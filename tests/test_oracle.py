import time

import pytest

from reloc.bench import SOLVERS
from reloc.graphs import build_graph, make_clique, make_grid, make_star
from reloc.oracle import is_solvable, oracle_solve, successor_positions
from reloc.relocation import Instance, Variant, plan_cost, random_instance, validate

PATH3 = build_graph(3, [(0, 1), (1, 2)])
EDGE2 = build_graph(2, [(0, 1)])
TRI = make_clique(3)


def test_already_solved_costs_zero():
    i = Instance(PATH3, Variant.MAPF, (0, 2), (0, 2))
    res = oracle_solve(i)
    assert res.status == "solved" and res.xi == 0
    assert validate(i, res.plan) == []


def test_two_tokens_one_edge_per_variant():
    starts, goals = (0, 1), (1, 0)
    for variant, want in [
        (Variant.TSWAP, 2),
        (Variant.TPERM, 2),
    ]:
        res = oracle_solve(Instance(EDGE2, variant, starts, goals))
        assert res.status == "solved" and res.xi == want
    # a rotation needs a cycle of length >= 3: a single edge cannot provide one
    res = oracle_solve(Instance(EDGE2, Variant.TROT, starts, goals))
    assert res.status == "unsolvable"
    assert not is_solvable(Instance(EDGE2, Variant.TROT, starts, goals))


def test_rotation_on_triangle():
    i = Instance(TRI, Variant.TROT, (0, 1, 2), (1, 2, 0))
    res = oracle_solve(i)
    assert res.status == "solved" and res.xi == 3
    assert validate(i, res.plan) == []


def test_mapf_corridor_with_spare_room():
    # two agents crossing a path graph need the side vertex
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    i = Instance(g, Variant.MAPF, (0, 2), (2, 0))
    res = oracle_solve(i)
    assert res.status == "solved"
    assert validate(i, res.plan) == []
    assert plan_cost(res.plan.paths) == res.xi


def test_mapf_full_path_unsolvable():
    i = Instance(PATH3, Variant.MAPF, (0, 2), (2, 0))
    assert oracle_solve(i).status == "unsolvable"
    assert not is_solvable(i)


def test_oracle_plan_cost_matches_xi():
    g = make_grid(3, 3)
    for variant in Variant:
        for seed in range(8):
            i = random_instance(g, variant, 3, seed)
            res = oracle_solve(i)
            if res.status != "solved":
                continue
            assert validate(i, res.plan) == []
            assert plan_cost(res.plan.paths) == res.xi


def test_tperm_never_costlier_than_tswap_or_trot():
    # every swap is a 2-cycle and every rotation is a cycle, so the
    # permutation variant's optimum is a lower bound for both
    g = make_grid(3, 3)
    for seed in range(6):
        base = random_instance(g, Variant.TSWAP, 3, seed)
        rs = oracle_solve(base)
        rp = oracle_solve(Instance(g, Variant.TPERM, base.starts, base.goals))
        rr = oracle_solve(Instance(g, Variant.TROT, base.starts, base.goals))
        if rs.status == "solved":
            assert rp.status == "solved" and rp.xi <= rs.xi
        if rr.status == "solved":
            assert rp.status == "solved" and rp.xi <= rr.xi


def test_successor_positions_variants():
    i = Instance(EDGE2, Variant.TSWAP, (0, 1), (1, 0))
    succ = successor_positions(i, (0, 1), [0, 1])
    assert (1, 0) in succ and (0, 1) in succ
    j = Instance(EDGE2, Variant.TROT, (0, 1), (1, 0))
    assert successor_positions(j, (0, 1), [0, 1]) == [(0, 1)]


def test_size_caps_enforced():
    g = make_star(16)
    i = Instance(g, Variant.MAPF, (1, 2), (3, 4))
    with pytest.raises(ValueError):
        is_solvable(i)
    with pytest.raises(ValueError):
        oracle_solve(i)
    # caps can be widened explicitly
    assert is_solvable(i, vertex_cap=16)


def test_disconnected_goal_unsolvable():
    g = build_graph(4, [(0, 1), (2, 3)])
    i = Instance(g, Variant.MAPF, (0,), (3,))
    assert oracle_solve(i).status == "unsolvable"


def test_oracle_honours_its_time_budget():
    # solved after about 0.3-0.6 s without a budget
    inst = random_instance(make_grid(3, 3), Variant.MAPF, 5, 1)
    t0 = time.monotonic()
    res = SOLVERS["oracle"](inst, timeout=0.05)
    assert res.status == "timeout"
    assert time.monotonic() - t0 <= 0.05 + 0.25
