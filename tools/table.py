"""Search counters of both SAT drivers on the five hard 8x8 table instances.

    python3 tools/table.py [--timeout S] [--json FILE]

Run from the root of a checkout. Solves each instance of the ROADMAP's
lazy/eager table with `mdd_sat_solve` (eager) and `smt_cbs_solve` (lazy) and
prints, per driver: status and xi, CDCL conflicts (for lazy, how many of
them the collision theory found), solve calls and `SolveStats.sat_time`.
Conflicts are read off `SatSolver.conflicts_total` around every
`SatSolver.solve` call, so they are deterministic; the times are not.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reloc import satcore  # noqa: E402
from reloc.graphs import make_grid  # noqa: E402
from reloc.relocation import (  # noqa: E402
    Variant,
    random_instance,
    random_permutation_instance,
)
from reloc.solvers import mdd_sat_solve, smt_cbs_solve  # noqa: E402

GRID8 = make_grid(8, 8)
INSTANCES = (
    ("TSWAP k=8 s=8", random_permutation_instance(GRID8, Variant.TSWAP, 8, 8)),
    ("TSWAP k=12 s=9", random_permutation_instance(GRID8, Variant.TSWAP, 12, 9)),
    ("TSWAP k=8 s=5", random_permutation_instance(GRID8, Variant.TSWAP, 8, 5)),
    ("MAPF k=12 s=0", random_instance(GRID8, Variant.MAPF, 12, 0)),
    ("MAPF k=12 s=3", random_instance(GRID8, Variant.MAPF, 12, 3)),
)
DRIVERS = (("eager", mdd_sat_solve), ("lazy", smt_cbs_solve))


class Counted:
    """Sums the conflicts of every SatSolver.solve call while installed."""

    def __init__(self):
        self.conflicts = self.theory = 0
        self._solve = satcore.SatSolver.solve

    def __enter__(self):
        solve, counted = self._solve, self

        def wrapper(solver, *args, **kwargs):
            before = solver.conflicts_total, getattr(solver, "theory_conflicts", 0)
            try:
                return solve(solver, *args, **kwargs)
            finally:
                counted.conflicts += solver.conflicts_total - before[0]
                counted.theory += getattr(solver, "theory_conflicts", 0) - before[1]

        satcore.SatSolver.solve = wrapper
        return self

    def __exit__(self, *exc):
        satcore.SatSolver.solve = self._solve


def measure(solver, inst, timeout) -> dict:
    with Counted() as counted:
        res = solver(inst, timeout=timeout)
    return {"status": res.status, "xi": res.xi, "conflicts": counted.conflicts,
            "theory_conflicts": counted.theory, "sat_calls": res.stats.sat_calls,
            "sat_time": round(res.stats.sat_time, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--json", help="also write the rows to this file")
    args = ap.parse_args(argv)
    rows = []
    print(f"{'instance':16} {'driver':6} {'status':8} {'xi':>4} {'conflicts':>9} "
          f"{'theory':>6} {'calls':>5} {'sat_time':>8}")
    for name, inst in INSTANCES:
        for driver, solver in DRIVERS:
            row = {"instance": name, "driver": driver, **measure(solver, inst, args.timeout)}
            rows.append(row)
            print(f"{name:16} {driver:6} {row['status']:8} {row['xi'] or '-':>4} "
                  f"{row['conflicts']:>9} {row['theory_conflicts']:>6} "
                  f"{row['sat_calls']:>5} {row['sat_time']:>8.3f}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
