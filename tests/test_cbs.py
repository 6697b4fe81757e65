import pytest

from reloc.cbs import (
    STATUS_SOLVED,
    STATUS_UNSOLVABLE,
    cbs_solve,
    cost_cutoff,
    joint_collisions,
    padded_configs,
    solvability_precheck,
)
from reloc.bench import suite_instance
from reloc.graphs import build_graph, make_clique, make_grid, make_star
from reloc.oracle import oracle_solve
from reloc.relocation import Instance, Variant, plan_cost, random_instance, validate
from reloc.solvers import mdd_sat_solve, smt_cbs_solve

EDGE2 = build_graph(2, [(0, 1)])
PATH3 = build_graph(3, [(0, 1), (1, 2)])


def test_padded_configs_extends_short_paths():
    padded, horizon = padded_configs([(0, 1, 2), (5,)])
    assert horizon == 2
    assert padded == [(0, 1, 2), (5, 5, 5)]


def test_joint_collisions_clean_plan_is_empty():
    i = Instance(EDGE2, Variant.TSWAP, (0, 1), (1, 0))
    assert joint_collisions(i, [(0, 1), (1, 0)]) == []


def test_solvability_precheck():
    # token swaps on a connected fully-occupied support: always solvable
    assert solvability_precheck(Instance(EDGE2, Variant.TSWAP, (0, 1), (1, 0))) is True
    # rotation with no available cycle
    assert solvability_precheck(Instance(EDGE2, Variant.TROT, (0, 1), (1, 0))) is False
    # unreachable goal is a definite no for every variant
    g = build_graph(4, [(0, 1), (2, 3)])
    assert solvability_precheck(Instance(g, Variant.MAPF, (0,), (3,))) is False


@pytest.mark.parametrize("solver", [cbs_solve, mdd_sat_solve, smt_cbs_solve])
def test_few_trot_tokens_on_a_large_grid_are_proved_unsolvable(solver):
    # tokens never leave the support, so the reachability check stays small
    # however large the graph is
    grid8 = make_grid(8, 8)
    cases = [Instance(grid8, Variant.TROT, (0, 1), (1, 0))] + [
        suite_instance("grid8", Variant.TROT, k, seed)
        for k in (4, 5) for seed in range(5)
    ]
    for inst in cases:
        assert solver(inst, timeout=0.1).status == STATUS_UNSOLVABLE, inst


def test_cbs_matches_oracle_on_small_instances():
    graphs = [make_grid(3, 3), make_star(6), make_clique(4)]
    for g in graphs:
        for variant in Variant:
            for seed in range(5):
                inst = random_instance(g, variant, 3, seed)
                want = oracle_solve(inst)
                got = cbs_solve(inst, timeout=30)
                assert got.status == want.status, (inst, want.status, got.status)
                if want.status == "solved":
                    assert got.xi == want.xi
                    assert validate(inst, got.plan) == []
                    assert plan_cost(got.plan.paths) == got.xi


def test_cbs_unsolvable_cases():
    assert cbs_solve(Instance(PATH3, Variant.MAPF, (0, 2), (2, 0))).status \
        == STATUS_UNSOLVABLE
    assert cbs_solve(Instance(EDGE2, Variant.TROT, (0, 1), (1, 0))).status \
        == STATUS_UNSOLVABLE


def test_cbs_two_tokens_one_edge():
    for variant, want in [(Variant.TSWAP, 2), (Variant.TPERM, 2)]:
        res = cbs_solve(Instance(EDGE2, variant, (0, 1), (1, 0)))
        assert res.status == STATUS_SOLVED and res.xi == want


def test_cbs_deterministic():
    inst = random_instance(make_grid(3, 3), Variant.MAPF, 3, 11)
    a = cbs_solve(inst, timeout=30)
    b = cbs_solve(inst, timeout=30)
    assert a.xi == b.xi and a.plan.paths == b.plan.paths
    assert a.stats.ct_nodes == b.stats.ct_nodes


def test_cbs_stats_populated():
    inst = random_instance(make_grid(3, 3), Variant.MAPF, 3, 4)
    res = cbs_solve(inst, timeout=30)
    assert res.stats.algorithm == "cbs"
    assert res.stats.ct_nodes >= 1
    assert res.stats.runtime >= 0.0


def test_cost_cutoff_exceeds_lower_bound():
    inst = random_instance(make_grid(3, 3), Variant.MAPF, 3, 0)
    from reloc.encoder import lower_bound
    assert cost_cutoff(inst) > lower_bound(inst)


def test_cbs_timeout_status():
    # dense hard instance with a tiny budget
    from reloc.relocation import random_permutation_instance
    inst = random_permutation_instance(make_grid(4, 4), Variant.TSWAP, 12, 0)
    res = cbs_solve(inst, timeout=0.0)
    assert res.status in ("timeout", "limit")
    assert res.plan is None
