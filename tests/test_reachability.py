import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from reloc.cbs import cbs_solve
from reloc.graphs import build_graph, make_clique, make_grid
from reloc.oracle import is_solvable
from reloc.reachability import (
    RULE_NONE,
    RULE_SINGLE_MOVES,
    RULES,
    biconnected_blocks,
    decide,
)
from reloc.relocation import Instance, Variant
from reloc.solvers import mdd_sat_solve, smt_cbs_solve
from test_acceptance import report, tiny_instances

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "perfbench"), str(ROOT / "tools")):
    if path not in sys.path:
        sys.path.insert(0, path)

from precheck_fuzz import small_graph_instances  # noqa: E402
from workloads import base_instances  # noqa: E402

SLICE_SEED, SLICE_COUNT = 0, 600


def test_precheck_never_contradicts_the_oracle():
    cases = [*tiny_instances(), *base_instances("desk"),
             *small_graph_instances(SLICE_SEED, SLICE_COUNT)]
    decided = Counter()
    wrong = []
    for inst in cases:
        rule, answer = decide(inst)
        decided[rule] += 1
        if answer is None:
            continue
        if answer != is_solvable(inst, vertex_cap=inst.graph.n, item_cap=inst.k):
            wrong.append((inst.variant.value, sorted(inst.graph.edges),
                          inst.starts, inst.goals, rule))
    report(
        "precheck answers agree with oracle.is_solvable",
        not wrong and all(decided[rule] > 0 for rule in RULES),
        f"{len(cases)} instances; " + ", ".join(
            f"{rule} {decided[rule]}" for rule in RULES)
        + f"; {len(wrong)} wrong, first {wrong[:3]}",
    )


def test_biconnected_blocks():
    # two triangles sharing vertex 2, a bridge 4-5 and an isolated vertex 6
    g = build_graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
    blocks = sorted(sorted(b) for b in biconnected_blocks(g.adj, range(g.n)))
    assert blocks == [[0, 1, 2], [2, 3, 4], [4, 5]]
    grid = make_grid(3, 3)
    assert [sorted(b) for b in biconnected_blocks(grid.adj, range(9))] == [list(range(9))]


def test_mapf_rules_by_graph_shape():
    k4 = make_clique(4)
    # two empty vertices on a 2-connected graph that is not a cycle: anything goes
    assert decide(Instance(k4, Variant.MAPF, (0, 1), (1, 0))) == ("two-connected", True)
    square = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # on a cycle the items keep their cyclic order, in both directions of travel
    assert decide(Instance(square, Variant.MAPF, (0, 1, 2), (1, 2, 3))) == ("cycle", True)
    assert decide(Instance(square, Variant.MAPF, (0, 1, 2), (2, 1, 0))) == ("cycle", False)


# a 10-vertex tree on which the single-move search visits most of the
# 30,240 configurations of 5 items before it meets the goal
SLOW_TREE = Instance(
    build_graph(10, [(0, 1), (1, 2), (1, 9), (2, 3), (2, 4), (3, 5), (4, 6),
                     (4, 7), (6, 8)]),
    Variant.MAPF, (3, 0, 9, 8, 7), (3, 2, 1, 8, 7))


@pytest.mark.parametrize("solver", [cbs_solve, mdd_sat_solve, smt_cbs_solve])
def test_precheck_keeps_the_budget(solver):
    t0 = time.monotonic()
    assert decide(SLOW_TREE) == (RULE_SINGLE_MOVES, True)
    assert time.monotonic() - t0 >= 0.05
    t0 = time.monotonic()
    res = solver(SLOW_TREE, timeout=0.0)
    assert res.status == "timeout"
    assert time.monotonic() - t0 <= 0.25


def test_out_of_scope_mapf_is_undecided():
    # one empty vertex on theta0 with six items: neither a theorem nor the
    # single-move search applies
    theta0 = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                             (0, 6), (3, 6)])
    inst = Instance(theta0, Variant.MAPF, (0, 1, 2, 3, 4, 5), (1, 0, 2, 3, 4, 5))
    assert decide(inst) == (RULE_NONE, None)
