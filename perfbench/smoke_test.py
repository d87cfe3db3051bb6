#!/usr/bin/env python3
"""Smoke check of the end-to-end benchmark on small streams.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

Runs perfbench/run.py on all three workloads at smoke size, untraced and
traced, and fails unless every run exits 0 with a correct result whose
metric names and units are exactly those BENCHMARK.json lists, and whose
run record shows every report digest equal to the scoring pass's. Then
checks that the benchmark refuses to run, printing no result, from a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def results_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_run(spec, workload, trace):
    done = run_bench(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return ["%s exited %d: %s" % (where, done.returncode,
                                      done.stderr[-2000:])]
    errors = []
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s"
                      % (where, result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (where, result.get("attempted")))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s, units %s" % (
                          where, sorted(set(wanted) - set(got)),
                          sorted(set(got) - set(wanted)),
                          sorted(n for n in wanted
                                 if n in got and got[n] != wanted[n])))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append("%s: %s is not a number" % (where, name))

    with open(os.path.join(results_dir(), "results", "%s-seed%d-trace%d.json"
                           % (workload, SEED, trace))) as record_file:
        record = json.load(record_file)
    digest = record["prepare"]["digest_scoring"]
    digests = [record["prepare"]["digest_oracle"]]
    digests += [run["digest"] for run in record["timed"] + record["traced"]]
    if any(d != digest for d in digests) or not digests:
        errors.append("%s: digests %s differ from scoring pass %s"
                      % (where, digests, digest))
    for key in ("seed", "lines", "tasks", "executions", "peak_groups",
                "nproc", "build_type", "compiler"):
        if key not in record:
            errors.append("%s: run record lacks %s" % (where, key))
    return errors


def check_bare_directory():
    """Without the repository's sources the benchmark must fail cleanly."""
    bare = os.path.join(results_dir(), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, "paper-multi", 0)
    shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if done.returncode == 0:
        errors.append("bare directory: exited 0")
    if done.stdout.strip():
        errors.append("bare directory printed a result: %r"
                      % done.stdout[-200:])
    return errors


def main():
    spec = load_spec()
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    errors += check_bare_directory()
    for error in errors:
        print("FAIL: " + error)
    print("smoke: %s" % ("ok" if not errors else "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
