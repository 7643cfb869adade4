#!/usr/bin/env python3
"""Smoke test of the mnt_e2e benchmark.

Usage (from the repository root):

    python3 mnt_e2e/smoke.py [--seconds 1]

Runs every workload of BENCHMARK.json briefly through run.py, untraced and
traced, and checks that
  - every run exits 0 and reports correct outputs (the benchmark checks the
    layouts, stores and served bytes itself, and a traced run fails when its
    replay does not reproduce the untraced layout hashes, store manifest or
    response bytes);
  - the metric names and units are exactly those BENCHMARK.json lists:
    the end-to-end metrics untraced, the per-layer metrics traced;
  - in a traced generation or store run, unattributed_s is at most 10% of
    the traced wall time;
  - a directory holding only BENCHMARK.json and the benchmark's files (no
    library sources) makes the benchmark exit non-zero without a result.
Exits 0 when every check passed and 1 otherwise. Takes a few minutes; the
first run also builds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 900

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL " + what, file=sys.stderr)
    return ok


def run(cwd, workload, seconds, trace):
    command = ["python3", os.path.join("mnt_e2e", "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, seconds, trace):
    label = "%s --trace %d" % (workload, trace)
    before = len(failures)
    done = run(ROOT, workload, seconds, trace)
    result = result_of(done)
    if not check(done.returncode == 0 and result is not None,
                 "%s: exit %d, stderr: %s" % (label, done.returncode, done.stderr[-2000:])):
        return
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "%s: correct=%s attempted=%d failed=%d" % (label, result["correct"], result["attempted"],
                                                      result["failed"]))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if not check(emitted == expected, "%s: metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            label, sorted(set(expected) - set(emitted)), sorted(set(emitted) - set(expected)),
            sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n]))):
        return
    metrics = result["metrics"]
    if trace and workload in ("table1_curated", "family_store"):
        wall = metrics["traced_wall_s"]["value"]
        unattributed = metrics["unattributed_s"]["value"]
        check(wall > 0 and unattributed <= 0.1 * wall,
              "%s: unattributed_s %.4g of traced_wall_s %.4g" % (label, unattributed, wall))
    if len(failures) == before:
        print("ok   %s" % label, file=sys.stderr)


def check_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "mnt_e2e"))
    done = run(bare, "table1_curated", 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if check(done.returncode != 0 and result_of(done) is None,
             "without library sources: exit %d, stdout %r" % (done.returncode, done.stdout[-200:])):
        print("ok   without library sources", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0, help="measured seconds per run")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, args.seconds, trace)
    check_without_sources()
    print("%d failed checks" % len(failures), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
