"""Compare the benchmark of two source trees in alternating pairs of runs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed-base S

Pair i runs `python3 bench/run.py --workload W --seed S+i --seconds 20
--trace 0` once in each tree, each run in its own process started in that
tree; the parent runs first in even pairs and the change first in odd ones,
so a drift of the host's speed within a pair falls on both sides alike.
Bytecode writing is switched off, so no run writes under bench/.

For each end-to-end metric the summary gives the parent's median and
interquartile range (inclusive quartiles), the change's median, their
ratio, and in how many pairs the change read lower; then the summed
attempted and failed operations of each side, and the pairs where they
differ.  Each pair's readings are printed as it completes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line (the last line of standard output) of one bench run in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20", "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(pairs: list[tuple[dict, dict]]) -> str:
    """The summary table of (parent, change) result lines, one pair each."""
    names = list(pairs[0][0]["metrics"])
    lines = [f"{'metric':<12} {'parent':>12} {'parent IQR':>25} {'change':>12} {'ratio':>7} lower"]
    for name in names:
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        m_old, m_new = statistics.median(old), statistics.median(new)
        lower = sum(b < a for a, b in zip(old, new))
        lines.append(f"{name:<12} {m_old:>12.6g} {f'{q1:.6g} - {q3:.6g}':>25} {m_new:>12.6g} "
                     f"{m_new / m_old:>7.4f} {lower}/{len(pairs)}")
    for side, k in (("parent", 0), ("change", 1)):
        attempted = sum(pair[k]["attempted"] for pair in pairs)
        failed = sum(pair[k]["failed"] for pair in pairs)
        lines.append(f"{side}: attempted {attempted}, failed {failed}")
    differ = [i for i, (p, c) in enumerate(pairs)
              if (p["attempted"], p["failed"]) != (c["attempted"], c["failed"])]
    lines.append(f"pairs whose attempted/failed differ: {differ or 'none'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=("enumerate", "q3", "correct"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args(argv)
    pairs = []
    for i in range(args.pairs):
        parent_first = i % 2 == 0
        trees = (args.parent, args.change) if parent_first else (args.change, args.parent)
        first, second = (run_once(tree, args.workload, args.seed_base + i) for tree in trees)
        pairs.append((first, second) if parent_first else (second, first))
        print(f"pair {i} seed {args.seed_base + i}: "
              + ", ".join(f"{name} {pairs[-1][0]['metrics'][name]['value']:.6g} -> "
                          f"{pairs[-1][1]['metrics'][name]['value']:.6g}"
                          for name in pairs[-1][0]["metrics"]), flush=True)
    print(summarize(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
