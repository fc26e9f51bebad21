"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python tools/bench_pairs.py DIR_A DIR_B --workload W --seed S --pairs N

DIR_A is the parent and DIR_B the change, each the root of a source checkout.
A pair runs `perfbench/run.py --workload W --seed S` once in each checkout,
from its root, at the benchmark's own run length; the side that runs first
alternates from pair to pair.  For every end-to-end metric that DIR_A's
BENCHMARK.json declares, on every workload run, it prints both sides' medians
and quartiles and the number of pairs the change won (ties count for
neither), then the verdict: a gain needs at least ten pairs, the change
winning at least nine tenths of them, and the medians to differ, in the
metric's better direction, by more than the distance between the parent's
quartiles.  After each verdict it prints the pairs themselves, as
"KEY pairs: " and a JSON list of [parent, change] values, so runs on several
seeds, all fixed before measuring, can be pooled: join their lists and judge
the pooled pairs with `compare`.  A run that reports failed jobs is printed
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list) -> tuple:
    """The first quartile, the median and the third quartile."""
    return tuple(statistics.quantiles(values, n=4))


def compare(parent: list, change: list, better: str) -> dict:
    """Paired runs of one metric: medians, quartiles, pairs won and verdict."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    qa, qb = quartiles(parent), quartiles(change)
    gain = sign * (qa[1] - qb[1])
    spread = qa[2] - qa[0]
    return {"parent": qa, "change": qb, "won": won, "pairs": len(parent),
            "gain": gain, "spread": spread,
            "claimed": len(parent) >= 10 and 10 * won >= 9 * len(parent)
                       and gain > spread}


def run_benchmark(root: str, workload: str, seed: int) -> dict:
    """One run of the benchmark in a checkout: its result line, with each
    metric keyed "workload.metric"."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if workload != "all":
        result["metrics"] = {f"{workload}.{key}": m for key, m in result["metrics"].items()}
    return result


def report(runs: dict, metrics: dict) -> list:
    """Lines comparing the runs of each side, per workload and metric: the
    verdict, then every pair's values."""
    lines = []
    for key in sorted(runs["parent"][0]["metrics"]):
        better = metrics.get(key.split(".", 1)[1])
        if better is None:
            continue
        parent, change = ([r["metrics"][key]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        c = compare(parent, change, better)
        lines.append(
            f"{key} ({better} is better): parent median {c['parent'][1]:.6g} "
            f"[{c['parent'][0]:.6g}, {c['parent'][2]:.6g}], change median "
            f"{c['change'][1]:.6g} [{c['change'][0]:.6g}, {c['change'][2]:.6g}]; "
            f"change won {c['won']} of {c['pairs']} pairs; median gain {c['gain']:.6g} "
            f"vs parent quartile spread {c['spread']:.6g}: "
            + ("gain" if c["claimed"] else "no gain claimed"))
        lines.append(f"{key} pairs: {json.dumps([list(pair) for pair in zip(parent, change)])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="DIR_A")
    parser.add_argument("change", metavar="DIR_B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_benchmark(getattr(args, side), args.workload, args.seed)
            runs[side].append(result)
            print(f"pair {i + 1} {side}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} job runs failed", flush=True)
            ok = ok and result["correct"]
    for line in report(runs, metrics):
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
