"""Alternating pairs of benchmark runs: a base revision against the working tree.

    python3 tools/pairs.py --workload grid8-tokens --pairs 10 --seed 2001
        [--seconds 30] [--base REV | --base-dir DIR] [--json FILE]

Run from the root of a checkout. Pair i runs `perfbench/run.py --workload W
--seed S+i --seconds T --trace 0` once in each tree, the base first in even
pairs and the working tree first in odd ones, each as a fresh process with
PYTHONDONTWRITEBYTECODE=1. The base tree is a `git worktree` of REV (default
HEAD, the parent of uncommitted changes), added in a temporary directory and
removed afterwards; --base-dir names an existing checkout instead.

For every end-to-end metric of BENCHMARK.json it prints the median and
quartiles of each side, the pairs in which the working tree was better, and
whether the claim resolves: the median gap is wider than the base's own
quartile spread, in the metric's better direction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree} seed {seed}: correct {result['correct']}, "
                         f"failed {result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(base: list[float], new: list[float], better: str) -> dict:
    """Medians, quartiles, wins of new, and the resolve rule."""
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    nq1, _, nq3 = statistics.quantiles(new, n=4, method="inclusive")
    sign = -1 if better == "lower" else 1
    gap = statistics.median(new) - statistics.median(base)
    return {
        "base": {"median": statistics.median(base), "q1": q1, "q3": q3, "runs": base},
        "new": {"median": statistics.median(new), "q1": nq1, "q3": nq3, "runs": new},
        "wins": sum(sign * (n - b) > 0 for b, n in zip(base, new)),
        "pairs": len(base),
        "median_gap": gap,
        "base_iqr": q3 - q1,
        "resolved": sign * gap > q3 - q1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--base", default="HEAD", help="git revision of the base tree")
    where.add_argument("--base-dir", type=Path, help="an existing checkout as the base tree")
    ap.add_argument("--json", type=Path, help="also write the summary to this file")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = args.base_dir
        if base_dir is None:
            base_dir = Path(tmp) / "base"
            subprocess.run(["git", "worktree", "add", "--detach", str(base_dir), args.base],
                           cwd=ROOT, check=True, capture_output=True)
        try:
            runs = {"base": [], "new": []}
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("base", base_dir), ("new", ROOT)]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_once(tree, args.workload, seed, args.seconds))
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        finally:
            if args.base_dir is None:
                subprocess.run(["git", "worktree", "remove", "--force", str(base_dir)],
                               cwd=ROOT, check=False, capture_output=True)

    out = {}
    for m in metrics:
        name = m["name"]
        s = out[name] = summary([r[name] for r in runs["base"]],
                                [r[name] for r in runs["new"]], m["better"])
        print(f"{name:12s} base {s['base']['median']:.4f} [{s['base']['q1']:.4f}, "
              f"{s['base']['q3']:.4f}]  new {s['new']['median']:.4f} "
              f"[{s['new']['q1']:.4f}, {s['new']['q3']:.4f}]  "
              f"better in {s['wins']}/{s['pairs']}  gap {s['median_gap']:+.4f} "
              f"vs base IQR {s['base_iqr']:.4f}: "
              f"{'resolved' if s['resolved'] else 'not resolved'}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "seconds": args.seconds, "metrics": out},
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
