"""The benchmark's per-layer hooks still find every layer of the solvers.

perfbench/tracer.py wraps module attributes by name, so a refactor that
renames a function or stops calling it through its module binding silently
turns a per-layer metric into `missing` or changes a counter.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
for path in (str(BENCH.parent / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from reloc import Instance, Variant, build_graph, make_grid, random_instance  # noqa: E402

PATH3 = build_graph(3, [(0, 1), (1, 2)])
SQUARE = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

# one small solvable instance per variant
SOLVED = [
    random_instance(make_grid(2, 3), Variant.MAPF, 3, 1),
    Instance(PATH3, Variant.TSWAP, (0, 1, 2), (2, 1, 0)),
    Instance(SQUARE, Variant.TROT, (0, 1, 2, 3), (1, 2, 3, 0)),
    Instance(SQUARE, Variant.TPERM, (0, 1, 2, 3), (1, 0, 3, 2)),
]

# the SAT drivers no longer call the precheck themselves: every precheck
# call is counted through the reloc.cbs hook
UNBOUND = {"reloc.solvers.solvability_precheck"}


def test_every_per_layer_metric_is_measured(capsys):
    refs = [run.Reference(inst, None) for inst in SOLVED]
    tally = run.Tally()
    metrics = run.per_layer(SOLVED, refs, 0, tally)
    assert tally.failed == 0 and tally.attempted == 2 * 3 * len(SOLVED)
    missing = [name for name, m in metrics.items() if m.get("missing")]
    assert missing == []
    lines = capsys.readouterr().err.splitlines()
    unbound = {line.split(": ", 1)[1] for line in lines
               if line.startswith("missing hook: ")}
    assert unbound <= UNBOUND
    assert metrics["oracle.precheck_calls"]["value"] == 3 * len(SOLVED)


def test_cold_caches_empties_both_per_instance_caches():
    # _cold_caches finds the caches by name and skips a missing one silently;
    # a renamed cache would then be shared by the three solvers of a round
    from reloc import relocation

    caches = (relocation.effective_adjacency, relocation.effective_distances)
    relocation.effective_distances(SOLVED[0])
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    run._cold_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
