"""Alternating benchmark pairs of two haarent checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload discrete \
        --seed 7 --seconds 36 --pairs 10

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, the parent first in even pairs and the
change first in odd ones. For every end-to-end metric the parent's
BENCHMARK.json declares, it prints each side's median and quartiles, the
pairs the change won (ties count for neither side), and whether a gain
may be claimed: the change wins at least 9 pairs in 10, its median is
better than the parent's by more than the parent's interquartile range,
and its runs fail no more operations in all than the parent's. It also
prints each side's failed operations and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> dict:
    """The result line of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {checkout}: bench/run.py exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(declared: list, runs: dict) -> list:
    """One row per metric: (name, unit, parent quartiles, change
    quartiles, change wins, pairs, whether a gain may be claimed)."""
    failed = {side: sum(r["failed"] for r in results)
              for side, results in runs.items()}
    rows = []
    for m in declared:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        old = [r["metrics"][name]["value"] for r in runs["parent"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        pq, cq = quartiles(old), quartiles(new)
        gain = (wins >= 0.9 * len(old)
                and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
                and failed["change"] <= failed["parent"])
        rows.append((name, m["unit"], pq, cq, wins, len(old), gain))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(args.parent, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change")[::1 if pair % 2 == 0 else -1]
        for side in order:
            runs[side].append(run_once(sides[side], args.workload,
                                       args.seed, args.seconds))
        old, new = (runs[side][-1]["metrics"] for side in sides)
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): "
              + ", ".join(f"{name} {old[name]['value']:.4g} -> "
                          f"{new[name]['value']:.4g}" for name in old),
              flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} pairs; median [q1, q3], parent -> change")
    for name, unit, pq, cq, wins, n, gain in summary(declared, runs):
        print(f"  {name} ({unit}): {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
              f"-> {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]; change won "
              f"{wins}/{n}; gain {'holds' if gain else 'not shown'}")
    for side, results in runs.items():
        print(f"  {side}: failed operations "
              f"{[r['failed'] for r in results]} of "
              f"{results[0]['attempted']}; correct "
              f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
