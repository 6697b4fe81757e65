"""The search is unchanged: the benchmark's deterministic counters are pinned.

perfbench/run.py's traced_counters solves the first instances of a workload
with all three solvers and returns the counters that repeat exactly from run
to run (CT nodes, cost bounds, clauses, refinements, CDCL conflicts). The
slices below cover all four variants: desk's first 48 instances are its
whole grid3 family (MAPF, TSWAP, TROT, TPERM), and grid8-tokens' first 12
reach past its TSWAP instances into TPERM.

A change meant to keep the search step for step must leave these values
alone. A change that alters the search updates the pins and lists the old
and new values side by side in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
for path in (str(BENCH.parent / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402

PINS = {
    ("desk", 48): {
        "cbs.ct_nodes": 185, "encoder.bounds": 182,
        "encoder.clauses_built": 29384, "solvers.mddsat_clauses": 10242,
        "solvers.smtcbs_clauses": 8828, "solvers.refinements": 273,
        "satcore.conflicts": 166,
    },
    ("grid8-mapf", 12): {
        "cbs.ct_nodes": 299, "encoder.bounds": 38,
        "encoder.clauses_built": 28907, "solvers.mddsat_clauses": 12502,
        "solvers.smtcbs_clauses": 11754, "solvers.refinements": 192,
        "satcore.conflicts": 61,
    },
    ("grid8-tokens", 12): {
        "cbs.ct_nodes": 3330, "encoder.bounds": 164,
        "encoder.clauses_built": 188049, "solvers.mddsat_clauses": 38714,
        "solvers.smtcbs_clauses": 31398, "solvers.refinements": 1290,
        "satcore.conflicts": 997,
    },
}


@pytest.mark.parametrize("workload,limit", sorted(PINS))
def test_traced_counters_are_pinned(workload, limit, capsys):
    got = run.traced_counters(workload, 1, limit)
    assert set(run.DETERMINISTIC) == set(PINS[workload, limit])
    assert got == {"failed": 0, **PINS[workload, limit]}
