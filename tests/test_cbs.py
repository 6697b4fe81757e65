import hashlib
import random
import time

import pytest

import reloc.cbs
from reloc.cbs import (
    STATUS_SOLVED,
    STATUS_UNSOLVABLE,
    _branch_bans,
    cbs_solve,
    cost_cutoff,
    joint_collisions,
    padded_configs,
    solvability_precheck,
)
from reloc.bench import suite_instance
from reloc.graphs import build_graph, make_clique, make_grid, make_star
from reloc.oracle import is_solvable, oracle_solve
from reloc.relocation import (
    Collision,
    Instance,
    Variant,
    plan_collisions,
    plan_cost,
    random_instance,
    validate,
)
from reloc.solvers import mdd_sat_solve, smt_cbs_solve

EDGE2 = build_graph(2, [(0, 1)])
PATH3 = build_graph(3, [(0, 1), (1, 2)])


def test_padded_configs_extends_short_paths():
    padded = padded_configs([(0, 1, 2), (5,)])
    assert len(padded[0]) - 1 == 2
    assert padded == [(0, 1, 2), (5, 5, 5)]


def test_joint_collisions_clean_plan_is_empty():
    i = Instance(EDGE2, Variant.TSWAP, (0, 1), (1, 0))
    assert joint_collisions(i, [(0, 1), (1, 0)]) == []


# (kind, the two children) for the collision (kind, t=3, i=1, v=5, j=4, u=6);
# in the joint plan below item 4 moves 43 -> 44 at t=3, so w = 44
BRANCHES = [
    ("vertex", [(1, (5, 3)), (4, (5, 3))]),
    ("occupancy", [(1, (5, 4)), (4, (5, 3))]),
    ("rot", [(1, (6, 5, 3)), (4, (5, 6, 3))]),
    ("swap", [(1, (6, 5, 3)), (4, (5, 44, 3))]),
]


@pytest.mark.parametrize("kind,children", BRANCHES, ids=[k for k, _ in BRANCHES])
def test_branch_bans_one_state_or_move_per_child(kind, children):
    padded = [tuple(range(10 * x, 10 * x + 6)) for x in range(5)]
    u = None if kind == "vertex" else 6
    assert _branch_bans(Collision(kind, 3, 1, 5, 4, u), padded) == children


def _random_walks(g, rng, starts, steps):
    paths = []
    for v in starts:
        path = [v]
        for _ in range(steps):
            path.append(rng.choice((path[-1],) + g.adj[path[-1]]))
        paths.append(tuple(path))
    return paths


def _head(collisions):
    """The prefix of sorted collisions that ends at the first non-degenerate one."""
    for n, c in enumerate(collisions):
        if not c.degenerate:
            return collisions[:n + 1]
    return collisions


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_joint_collisions_is_the_head_of_plan_collisions(variant):
    rng = random.Random(17)
    graphs = [make_grid(3, 3), make_grid(4, 4), make_star(6), make_clique(5)]
    kinds = {"clean": 0, "degenerate only": 0, "non-degenerate": 0}
    for trial in range(600):
        g = graphs[trial % len(graphs)]
        k = rng.randint(1, g.n - 1)
        inst = random_instance(g, variant, k, trial)
        steps = rng.randint(0, 6)
        shape = trial % 4
        if shape == 0:  # random walks from the start configuration
            paths = _random_walks(g, rng, inst.starts, steps)
        elif shape == 1:  # random walks from a non-injective configuration
            paths = _random_walks(g, rng, [rng.randrange(g.n) for _ in range(k)], steps)
        elif shape == 2:  # everybody waits: a clean plan
            paths = [(v,) * (steps + 1) for v in inst.starts]
        else:  # one item walks, the others wait
            mover = rng.randrange(k)
            paths = [(v,) * (steps + 1) for v in inst.starts]
            paths[mover] = _random_walks(g, rng, [inst.starts[mover]], steps)[0]
        full = plan_collisions(inst, paths)
        assert joint_collisions(inst, paths) == _head(full), (inst, paths)
        if not full:
            kinds["clean"] += 1
        elif all(c.degenerate for c in full):
            kinds["degenerate only"] += 1
        else:
            kinds["non-degenerate"] += 1
    assert kinds["clean"] > 0 and kinds["non-degenerate"] > 0
    if variant != Variant.MAPF:  # MAPF has no degenerate collisions
        assert kinds["degenerate only"] > 0


def test_cbs_keeps_its_budget():
    inst = suite_instance("grid8", Variant.MAPF, 16, 0)
    budget = 2.0
    t0 = time.monotonic()
    res = cbs_solve(inst, timeout=budget)
    elapsed = time.monotonic() - t0
    assert res.status == "timeout"
    assert elapsed <= budget + max(0.05 * budget, 0.25)


# sha256 of repr((status, xi, paths)) of cbs_solve on grid3 k=3 (all four
# variants) and grid8 k=6 (TSWAP, TPERM), seeds 0-2; computed with every
# duplicate CT node expanded, so pruning duplicates must not move a plan
CBS_PLANS_SHA256 = "83a3984de30441dd82515456f15a59202410589671a2827461814dd8a75da978"


def test_cbs_plans_are_pinned():
    digest = hashlib.sha256()
    cases = [("grid3", v, 3) for v in Variant] + [
        ("grid8", v, 6) for v in (Variant.TSWAP, Variant.TPERM)]
    for family, variant, k in cases:
        for seed in range(3):
            res = cbs_solve(suite_instance(family, variant, k, seed))
            paths = res.plan.paths if res.plan else None
            digest.update(repr((res.status, res.xi, paths)).encode())
    assert digest.hexdigest() == CBS_PLANS_SHA256


def test_cbs_plans_each_item_ban_set_and_expands_each_ban_tuple_once(monkeypatch):
    planned, pushed = [], []
    search, make_node = reloc.cbs.constrained_shortest_path, reloc.cbs.CTNode

    def plan(adj, dist, start, goal, states, moves, horizon):
        planned.append((start, goal, states, moves))  # start and goal name the item
        return search(adj, dist, start, goal, states, moves, horizon)

    def node(bans, paths, cost):
        pushed.append(bans)
        return make_node(bans, paths, cost)

    monkeypatch.setattr(reloc.cbs, "constrained_shortest_path", plan)
    monkeypatch.setattr(reloc.cbs, "CTNode", node)
    res = cbs_solve(suite_instance("grid8", Variant.TSWAP, 6, 0))
    assert res.status == STATUS_SOLVED
    assert len(set(planned)) == len(planned)
    # every CT node is pushed once and expanded at most once
    assert len(set(pushed)) == len(pushed) >= res.stats.ct_nodes
    assert res.stats.ct_nodes == 228  # 451 with duplicates expanded


def test_solvability_precheck():
    # token swaps on a connected fully-occupied support: always solvable
    assert solvability_precheck(Instance(EDGE2, Variant.TSWAP, (0, 1), (1, 0))) is True
    # rotation with no available cycle
    assert solvability_precheck(Instance(EDGE2, Variant.TROT, (0, 1), (1, 0))) is False
    # unreachable goal is a definite no for every variant
    g = build_graph(4, [(0, 1), (2, 3)])
    assert solvability_precheck(Instance(g, Variant.MAPF, (0,), (3,))) is False


# the (k, seed) of the solvable suite_instance("grid8", TROT, k, seed), k = 6, 7
TROT_GRID8_SOLVABLE = {(6, 0), (6, 1), (6, 2), (7, 2)}


@pytest.mark.parametrize("solver", [cbs_solve, mdd_sat_solve, smt_cbs_solve])
def test_few_trot_tokens_on_a_large_grid_are_proved_unsolvable(solver):
    # tokens never leave the support, so the reachability check stays small
    # however large the graph is
    grid8 = make_grid(8, 8)
    cases = [Instance(grid8, Variant.TROT, (0, 1), (1, 0))] + [
        suite_instance("grid8", Variant.TROT, k, seed)
        for k in (4, 5) for seed in range(5)
    ] + [
        suite_instance("grid8", Variant.TROT, k, seed)
        for k in (6, 7) for seed in range(5)
        if (k, seed) not in TROT_GRID8_SOLVABLE
    ]
    for inst in cases:
        t0 = time.monotonic()
        assert solver(inst, timeout=0.1).status == STATUS_UNSOLVABLE, inst
        assert time.monotonic() - t0 < 0.1, inst


def test_trot_precheck_on_a_large_grid_matches_the_oracle():
    for k in (6, 7):
        for seed in range(5):
            inst = suite_instance("grid8", Variant.TROT, k, seed)
            answer = solvability_precheck(inst)
            assert answer is ((k, seed) in TROT_GRID8_SOLVABLE)
            assert answer is is_solvable(inst, vertex_cap=64, item_cap=7)
    for k in (12, 16):
        inst = suite_instance("grid8", Variant.TROT, k, 0)
        t0 = time.monotonic()
        assert isinstance(solvability_precheck(inst), bool)
        assert time.monotonic() - t0 < 0.1


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
