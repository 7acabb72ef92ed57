#!/usr/bin/env python3
"""The benchmark's own test: every workload runs clean on the default
and the held-out seed, both seeds report the same metric names (exactly
the ones BENCHMARK.json lists), and each workload keeps the layer
isolation it was chosen for.

    python3 benchmark/test_seeds.py      # from the root of a checkout

Takes a few minutes: each of the 12 runs does the minimum three
iterations (six in a traced run).
"""

import json
import subprocess
import sys

SEEDS = [42, 1991]  # default, held out


def run(workload, seed, trace):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    assert r.returncode == 0, "%s exited %d:\n%s" % (cmd, r.returncode, r.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    isolation = {
        # the paper's local grid never touches the network or NFS
        "iobench-local": lambda m: m["net.msgs_per_op"] == 0 and m["nfs.rpc.calls"] == 0,
        # server answers READs from memory; the client cache misses often
        "nfs-randrw": lambda m: (m["vm.pool_hit_ratio"] >= 0.99
                                 and m["nfs.server.disk_reads_per_read_rpc"] < 0.01
                                 and m["nfs.client.cache_hit_ratio"] < 0.8),
        # 128 clients each write and read back 128 blocks
        "fleet-stream": lambda m: (m["op.write_samples"] == 128 * 128
                                   and m["op.read_samples"] == 128 * 128
                                   and m["net.msgs_per_op"] > 0),
    }
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            names = []
            for seed in SEEDS:
                before = len(failures)
                out = run(w, seed, trace)
                tag = "%s seed %d trace %d" % (w, seed, trace)
                if not out["correct"] or out["failed"] != 0:
                    failures.append("%s: correct=%s failed=%d" % (tag, out["correct"], out["failed"]))
                got = set(out["metrics"])
                if got != expected[trace]:
                    failures.append("%s: metric names differ from BENCHMARK.json: %s"
                                    % (tag, sorted(got ^ expected[trace])))
                names.append(got)
                values = {k: v["value"] for k, v in out["metrics"].items()}
                if trace == 1 and not isolation[w](values):
                    failures.append("%s: layer isolation broken" % tag)
                print("ok  " if len(failures) == before else "FAIL", tag, flush=True)
            if names[0] != names[1]:
                failures.append("%s trace %d: seeds report different metrics" % (w, trace))
    for f in failures:
        print("FAIL:", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
