#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 mdpbench/run.py --workload sim_packet --seed 1 --seconds 30 --trace 0

Each run configures and builds mdpbench/ (which compiles ../src) into the
build directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to
the checkout root. Only the first run compiles everything; later runs
rebuild what changed. The benchmark binary prints human-readable lines
starting with '#' and, as its last line, one JSON result object; this
script passes both through and exits with the binary's exit code (non-zero
on any correctness or equivalence failure).

`--self-test` builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_packet", "sim_flows", "wire_loop")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure and build (incrementally after the first time); all tool
    output goes to a log file."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", "4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write("mdpbench: build failed:\n" + tail + "\n")
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    if args.self_test:
        return subprocess.call([os.path.join(out, "test_mdpbench")])
    if not args.workload:
        ap.error("--workload is required")

    cmd = [os.path.join(out, "mdpbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("mdpbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("mdpbench: no result line\n")
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result.get("correct"):
        return proc.returncode or 1
    # The metrics printed must be exactly the ones BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    declared = [(m["name"], m["unit"]) for m in spec]
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if printed != declared:
        sys.stderr.write("mdpbench: metrics differ from BENCHMARK.json\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
