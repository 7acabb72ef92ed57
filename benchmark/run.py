#!/usr/bin/env python3
"""The repository benchmark: build the driver, run one workload for a
fixed time, check every output, print every metric.

    python3 benchmark/run.py --workload iobench-local|nfs-randrw|fleet-stream
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It builds benchmark/driver.exe from
source into .bench_build/ and runs it repeatedly, one process per
iteration (each iteration sets the workload up, measures it and
verifies it), until --seconds have passed.  Setup is also timed in a
few setup-only processes after each iteration.  Twice per iteration, a
process of its own times a fixed host-speed loop.  Host seconds are the
fast-quarter mean (see fast()) of the wall seconds, scaled by
CALIB_REF_S over the fast-quarter mean of the loop's.  Simulated figures
must be identical in every iteration.  --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics instead of the end-to-end
ones; the first traced iteration also writes its Perfetto trace to
.bench_out/<workload>.trace.json.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See benchmark/README.md for the workloads, metrics and seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["iobench-local", "nfs-randrw", "fleet-stream"]
DEFAULT_SEED = 42

BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "default", "benchmark", "driver.exe")
OUT_DIR = ".bench_out"

MIN_ITERATIONS = 3  # per kind (untraced, traced) and run
DEADLINE_S = 150  # start no iteration after this; a run must end in 180 s
ITERATION_TIMEOUT_S = 120

# scaled host seconds are seconds on a machine where the loop takes this
CALIB_REF_S = 0.1

# setup-only driver processes after each untraced iteration, so that
# setup_s is a median over several setups even where one is short
EXTRA_SETUPS = {"iobench-local": 5, "nfs-randrw": 1, "fleet-stream": 3}


def fast(values):
    """The mean of the fastest quarter.  On a shared machine, noise only
    ever slows a process down; the fast side of the samples tracks the
    machine's speed, and dividing by the calibration loop's fast side
    cancels the drift of that speed between runs (README.md compares it
    with medians)."""
    v = sorted(values)
    k = max(1, len(v) // 4)
    return sum(v[:k]) / k


def host_layer(name):
    """Per-layer figures measured on the host: medians over iterations.
    Every other figure is simulated and identical in every iteration."""
    return name.startswith("host.")


def die(msg, code):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune-project or lib/ here: run from the root of a checkout", 3)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./benchmark/driver.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e, 4)
    if r.returncode != 0:
        die("build failed (%s)" % " ".join(cmd), 4)


def driver(args):
    cmd = [DRIVER] + args
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=ITERATION_TIMEOUT_S)
    if r.returncode != 0:
        die("driver failed (%s):\n%s" % (" ".join(cmd), r.stderr), 5)
    return json.loads(r.stdout.strip().splitlines()[-1])


def calibrate():
    return driver(["--calibrate"])["calib_s"]


def iteration(workload, seed, traced=False, check=False, trace_out=None, setup_only=False):
    args = ["--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--traced")
    if trace_out:
        args += ["--trace-out", trace_out]
    if check:
        args.append("--check")
    if setup_only:
        args.append("--setup-only")
    return driver(args)


def simulated(it):
    """Everything an iteration reports in simulated units."""
    layers = {k: v for k, v in it["layers"].items()
              if not host_layer(k) and not k.startswith(("attrib.", "span."))}
    return it["digest"], it["sim"], layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # metric names and units: BENCHMARK.json at the root of the checkout
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as e:
        die("cannot read BENCHMARK.json: %s" % e, 3)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    start = time.monotonic()
    plain, traced, setups, calibs = [], [], [], []
    while True:
        elapsed = time.monotonic() - start
        enough = (len(plain) >= MIN_ITERATIONS
                  and (not args.trace or len(traced) >= MIN_ITERATIONS))
        if (enough and elapsed >= args.seconds) or (plain and elapsed >= DEADLINE_S):
            break
        calibs.append(calibrate())
        # untraced and traced iterations alternate in a traced run, so
        # machine-load drift hits both sides of the overhead alike
        if args.trace and len(traced) < len(plain):
            out = None
            if not traced:
                os.makedirs(OUT_DIR, exist_ok=True)
                out = os.path.join(OUT_DIR, args.workload + ".trace.json")
            traced.append(iteration(args.workload, args.seed, traced=True, trace_out=out))
        else:
            plain.append(iteration(args.workload, args.seed, check=not plain))
            setups.append(plain[-1]["host"]["wall_setup_s"])
            calibs.append(calibrate())
            if not args.trace:
                setups += [iteration(args.workload, args.seed, setup_only=True)["wall_setup_s"]
                           for _ in range(EXTRA_SETUPS[args.workload])]
    calibs.append(calibrate())

    runs = plain + traced
    problems = [f for it in runs for f in it["failures"]]
    correct = all(it["correct"] for it in runs)
    # the model is deterministic: every iteration, traced or not, must
    # reproduce the first one's simulated output exactly
    if any(simulated(it) != simulated(plain[0]) for it in runs):
        correct = False
        problems.append("simulated output differs between iterations")

    def med(its, get):
        return statistics.median(get(it) for it in its)

    def wall(its):
        return fast([it["host"]["wall_host_s"] for it in its])

    scale = CALIB_REF_S / fast(calibs)
    host_s = wall(plain) * scale
    if args.trace:
        values = dict(plain[0]["layers"])
        values.update({k: v for k, v in traced[0]["layers"].items()
                       if k.startswith(("attrib.", "span."))})
        for k in filter(host_layer, plain[0]["layers"]):
            values[k] = med(plain, lambda it: it["layers"][k])
        values["host.wall_s"] = wall(plain)
        values["host.calib_s"] = fast(calibs)
        values["sim.host_ns_per_event"] = host_s * 1e9 / max(1, values["sim.events"])
        values["span.trace_overhead_pct"] = 100.0 * (wall(traced) / wall(plain) - 1.0)
    else:
        values = dict(plain[0]["sim"])
        values["setup_s"] = fast(setups) * scale
        values["host_s"] = host_s
        values["peak_rss_mb"] = med(plain, lambda it: it["host"]["peak_rss_mb"])

    missing = [k for k in units if k not in values]
    if missing:
        correct = False
        problems.append("missing metrics: " + ", ".join(missing))

    for p in problems[:20]:
        print("FAILED: " + p)
    print("%s seed %d: %d iterations untraced, %d traced, digest %s"
          % (args.workload, args.seed, len(plain), len(traced), plain[0]["digest"]))
    for k, u in units.items():
        print("  %-36s %16.6g %s" % (k, values.get(k, float("nan")), u))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(it["attempted"] for it in runs),
        "failed": sum(it["failed"] for it in runs),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }))


if __name__ == "__main__":
    main()
