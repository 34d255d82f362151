#!/usr/bin/env python3
"""Steadiness check: repeats every workload with fresh seeds and reports
each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads plan,des]
                                [--first-seed 1]

Each round runs every workload once, in an order that alternates from round
to round, with the round's seed. The spread of a metric is (Q3 - Q1) /
median over its runs, with quartiles from statistics.quantiles(n=4); it
should stay below a third of the metric's bound in BENCHMARK.json (setup_s
excepted). With --sets 2 it also says whether the two sets agree: each
median of the second set within the metric's bound of the first's, in
either direction.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} answers failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_set(spec, workloads, runs, first_seed):
    values = {w: {} for w in workloads}
    for r in range(runs):
        seed = first_seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            for name, v in run_once(w, seed, spec["run_seconds"]).items():
                values[w].setdefault(name, []).append(v)
            print(f"round {r + 1}/{runs} seed {seed} {w} done",
                  file=sys.stderr, flush=True)
    return values


def report(spec, values):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    print(f"{'workload':10} {'metric':15} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound/3':>7}")
    for w, metrics in values.items():
        for name, vs in metrics.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{w:10} {name:15} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bounds[name] / 3:7.3f}"
                  f"{'' if ok else '  TOO NOISY'}")
    return steady


def agree(spec, first, second):
    """True when every median of `second` is within the metric's bound of
    `first`'s, either way. How much worse the second set is (negative when
    better) is printed for information."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w, metrics in second.items():
        for name, vs in metrics.items():
            a = statistics.median(first[w][name])
            b = statistics.median(vs)
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            fine = abs(b - a) / a <= bounds[name]
            ok &= fine
            print(f"{w:10} {name:15} first {a:12.5g} second {b:12.5g} "
                  f"worse by {worse:+.3f} (bound {bounds[name]})"
                  f"{'' if fine else '  DISAGREE'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    sets = [run_set(spec, workloads, args.runs,
                    args.first_seed + k * args.runs)
            for k in range(args.sets)]
    steady = True
    for k, values in enumerate(sets):
        print(f"\nset {k + 1}:")
        steady &= report(spec, values)
    agreed = True
    for k in range(1, len(sets)):
        print(f"\nset {k + 1} against set {k}:")
        agreed &= agree(spec, sets[k - 1], sets[k])
    print(f"\nsteady: {'yes' if steady else 'no'}"
          + (f"; sets agree: {'yes' if agreed else 'no'}"
             if len(sets) > 1 else ""))
    return 0 if steady and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
