#!/usr/bin/env python3
"""Self-test of the served-path benchmark.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
through perfbench/run.py, and asserts that:
  - the run exits 0 and its last line is the result object with exactly the
    keys correct, attempted, failed and metrics;
  - every end_to_end (untraced) or per_layer (traced) metric is emitted with
    the unit BENCHMARK.json gives it, as a finite number;
  - output checking ran (a positive count of checked scores) and passed;
  - the traced run wrote its spans, one id per request, a parent per span.

    python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return ["exit code %d" % proc.returncode]
    errors = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("outputs not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted %r" % result.get("attempted"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append("metric %s missing or not in %s" % (m["name"], m["unit"]))
        elif not math.isfinite(got["value"]):
            errors.append("metric %s not finite" % m["name"])
    checked = [l for l in lines if l.startswith("checked: ")]
    if not checked or int(checked[-1].split()[1]) < 1:
        errors.append("no served score was checked")
    if trace:
        errors += check_trace(workload)
    return errors


def check_trace(workload):
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, build, "trace-%s.tsv" % workload)
    if not os.path.isfile(path):
        return ["no trace file %s" % path]
    with open(path) as f:
        header = f.readline().split()
        rows = [line.split("\t") for line in f]
    if header != ["request", "span", "parent", "name", "start_ns", "end_ns"]:
        return ["trace header %s" % header]
    if not rows:
        return ["trace file is empty"]
    spans = {r[1]: r for r in rows}
    errors = []
    for r in rows:
        parent = r[2]
        if parent != "-1" and (parent not in spans or spans[parent][0] != r[0]):
            errors.append("span %s has no parent in its request" % r[1])
            break
    roots = sum(1 for r in rows if r[2] == "-1")
    if roots != len({r[0] for r in rows}):
        errors.append("requests do not have exactly one root span each")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            print("%-4s %s trace=%d %s" % ("ok" if not errors else "FAIL",
                                           workload, trace, "; ".join(errors)))
            failed |= bool(errors)
    print("selftest %s" % ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
