#!/usr/bin/env python3
"""Builds dmlbench from the enclosing checkout and runs one workload.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds a
Release tree in .bench_build/ (later runs rebuild incrementally). dmlbench
prints its report; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Its metric names must match
BENCHMARK.json: the end_to_end list without --trace, the per_layer list with
--trace 1 (in --workload all, each prefixed with the workload's name, and
without peak_rss_mb). --seconds defaults to BENCHMARK.json's run_seconds.
Each result is also saved, stamped with the build type, nproc, compiler and
seed, under .bench_build/results/.

Any extra flags (--corrupt 1) are passed to dmlbench.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dmlbench")
RUN_TIMEOUT_S = 170
# What dmlbench runs for --workload all. BENCHMARK.json lists the subset the
# benchmark is judged on; the README says why des and calibrate are not in it.
ALL_WORKLOADS = ("plan", "des", "serve", "calibrate")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release dmlbench; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dmlbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("build step failed:", " ".join(step))
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace, workload):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if workload == "all":
        # One process runs every workload, so its peak memory is not any
        # one workload's: dmlbench leaves peak_rss_mb out.
        return {f"{w}.{n}" for w in ALL_WORKLOADS for n in names
                if n != "peak_rss_mb"}
    return set(names)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    # Turn SIGTERM into SystemExit: subprocess.run then kills and reaps the
    # child it is waiting on, so no build or dmlbench process outlives us.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not build():
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(BUILD, "results", tag + ".spans.json")]
    command += extra
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"dmlbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        log("\n".join(lines))
        log(f"dmlbench exited with code {run.returncode}")
        return run.returncode
    result = json.loads(lines[-1])
    got = set(result["metrics"])
    want = expected_metrics(spec, args.trace, args.workload)
    if got != want:
        log("\n".join(lines))
        log("metrics differ from BENCHMARK.json: missing",
            sorted(want - got), "unexpected", sorted(got - want))
        return 1
    stamp = lines[0].lstrip("# ")
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
