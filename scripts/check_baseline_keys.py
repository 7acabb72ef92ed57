#!/usr/bin/env python3
"""Check that a committed benchdiff baseline gates every metric.

    python3 scripts/check_baseline_keys.py RECORDING BASELINE [EXEMPT...]

RECORDING is `benchdiff record` run on a fresh BENCH_<section>.json,
BASELINE the committed bench/baselines/<section>.json.  The two must
list the same (layer, instance, metric) keys in the same order, so a
metric added to a section fails here until its baseline is re-recorded.
An EXEMPT argument names keys the baseline leaves out on purpose:
`layer:metric` for one metric of a layer, `:metric` for a metric of
any layer, `layer:` for a whole layer.  Exits 1 on a mismatch.
"""

import json
import sys


def keys(path):
    return [(e["layer"], e["instance"], e["metric"])
            for e in json.load(open(path))["entries"]]


def exempt(key, rules):
    layer, _, metric = key
    return any(r in (f"{layer}:{metric}", f":{metric}", f"{layer}:")
               for r in rules)


def main():
    rec_path, base_path, rules = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = [k for k in keys(rec_path) if not exempt(k, rules)]
    base = keys(base_path)
    if len(set(rec)) != len(rec):
        sys.exit(f"{rec_path}: duplicate keys in the recording")
    if rec != base:
        new = [k for k in rec if k not in set(base)]
        gone = [k for k in base if k not in set(rec)]
        print(f"{base_path}: keys differ from a fresh recording "
              f"({len(new)} ungated, {len(gone)} no longer recorded)")
        for k in new[:10]:
            print("  ungated:", *k)
        for k in gone[:10]:
            print("  gone:   ", *k)
        if not new and not gone:
            print("  same keys, different order")
        sys.exit(1)
    print(f"{base_path}: {len(base)} keys, every recorded metric gated")


if __name__ == "__main__":
    main()
