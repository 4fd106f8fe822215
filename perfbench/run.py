#!/usr/bin/env python3
"""Served-path benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, Release) from the
sources in this checkout, runs one workload, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics:
the end_to_end metrics of BENCHMARK.json with --trace 0, the per_layer ones
with --trace 1.

    python3 perfbench/run.py --workload sa-zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--workload all runs every workload of BENCHMARK.json in turn (one result
line each). The build goes to $CARGO_TARGET_DIR, or .bench_build when that
is unset; the traced run writes its spans there too.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures and builds served_bench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "served_bench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(out, "served_bench")
    return binary if os.path.isfile(binary) else None


def run_workload(binary, out, spec, args, workload):
    trace_file = os.path.join(out, "trace-%s.tsv" % workload)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_file, "--tiny", "1" if args.tiny else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("served_bench timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("served_bench exited with %d" % proc.returncode, file=sys.stderr)
        return None
    raw = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("metric %s missing or in the wrong unit" % m["name"],
                  file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print("checked: %d served scores" % raw["checked"])
    print("host: %s" % json.dumps(raw["host"], sort_keys=True))
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model suites, for the self-test")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        print("unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    for workload in workloads:
        result = run_workload(binary, out, spec, args, workload)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
