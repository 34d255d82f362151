#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Every workload answers correctly at two seeds, and corrupting one answer
   (--corrupt 1) raises the failure count by exactly one.
2. Two traced runs at different seeds report identical exact counts
   (sim.events, sim.windows, sim.messages, sim.fault_crashes,
   sim.fault_retries).
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

from run import ALL_WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ["sim.events", "sim.windows", "sim.messages", "sim.fault_crashes",
          "sim.fault_retries"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def result(*args):
    out = bench(*args)
    if out.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} failed:\n{out.stderr}")
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def main():
    failures = []
    for w in ALL_WORKLOADS:
        for seed in ("1", "7"):
            base = ["--workload", w, "--seed", seed, "--seconds", "2",
                    "--trace", "0"]
            clean = result(*base)
            bad = result(*base, "--corrupt", "1")
            ok = (clean["correct"] and clean["failed"] == 0
                  and not bad["correct"] and bad["failed"] == 1)
            print(f"{w} seed {seed}: clean {clean['failed']}/"
                  f"{clean['attempted']} failed, corrupted "
                  f"{bad['failed']}/{bad['attempted']} failed"
                  f" -> {'ok' if ok else 'FAIL'}", flush=True)
            if not ok:
                failures.append(f"{w} seed {seed}")

    traced = [result("--workload", "des", "--seed", seed, "--seconds", "2",
                     "--trace", "1")["metrics"] for seed in ("1", "2")]
    for name in COUNTS:
        a, b = (t[name]["value"] for t in traced)
        print(f"{name}: {a} / {b} -> {'ok' if a == b else 'FAIL'}")
        if a != b:
            failures.append(name)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "plan", "--seed", "1", "--seconds", "2",
                "--trace", "0", cwd=bare)
    printed = '"correct"' in out.stdout
    ok = out.returncode != 0 and not printed
    print(f"bare directory: exit {out.returncode}, "
          f"{'a result' if printed else 'no result'} printed"
          f" -> {'ok' if ok else 'FAIL'}")
    shutil.rmtree(bare, ignore_errors=True)
    if not ok:
        failures.append("bare directory")

    print("selftest:", "FAIL " + ", ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
