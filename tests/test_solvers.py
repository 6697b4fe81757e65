import time

import pytest

from reloc import relocation, satcore, solvers
from reloc.bench import suite_instance
from reloc.cbs import cbs_solve
from reloc.encoder import clause_for_record, encode_basic, lower_bound, record_from_collision
from reloc.graphs import build_graph, make_clique, make_grid, make_star
from reloc.oracle import oracle_solve
from reloc.relocation import (
    Collision,
    Instance,
    KIND_VERTEX,
    TOKEN_VARIANTS,
    Variant,
    plan_cost,
    random_instance,
    random_permutation_instance,
    validate,
)
from reloc.result import STATUS_SOLVED, STATUS_UNSOLVABLE
from reloc.solvers import mdd_sat_solve, smt_cbs_solve

EDGE2 = build_graph(2, [(0, 1)])
PATH3 = build_graph(3, [(0, 1), (1, 2)])
# two items cross at a fork, so every plan of cost LB collides
CROSSING = Instance(build_graph(4, [(0, 1), (1, 2), (1, 3)]), Variant.MAPF, (0, 2), (2, 0))

SOLVERS = [mdd_sat_solve, smt_cbs_solve]


@pytest.mark.parametrize("solver", SOLVERS)
def test_matches_oracle_on_small_instances(solver):
    graphs = [make_grid(3, 3), make_star(6), make_clique(4)]
    for g in graphs:
        for variant in Variant:
            for seed in range(4):
                inst = random_instance(g, variant, 3, seed)
                want = oracle_solve(inst)
                got = solver(inst, timeout=30)
                assert got.status == want.status, (inst, want.status, got.status)
                if want.status == "solved":
                    assert got.xi == want.xi
                    assert validate(inst, got.plan) == []
                    assert plan_cost(got.plan.paths) == got.xi


@pytest.mark.parametrize("solver", SOLVERS)
def test_two_tokens_one_edge(solver):
    assert solver(Instance(EDGE2, Variant.TSWAP, (0, 1), (1, 0))).xi == 2
    assert solver(Instance(EDGE2, Variant.TPERM, (0, 1), (1, 0))).xi == 2
    res = solver(Instance(EDGE2, Variant.TROT, (0, 1), (1, 0)))
    assert res.status == STATUS_UNSOLVABLE


@pytest.mark.parametrize("solver", SOLVERS)
def test_unsolvable_mapf(solver):
    res = solver(Instance(PATH3, Variant.MAPF, (0, 2), (2, 0)))
    assert res.status == STATUS_UNSOLVABLE


def test_lazy_never_needs_more_clauses_than_eager():
    for variant in Variant:
        make = random_permutation_instance if variant in TOKEN_VARIANTS else random_instance
        for seed in range(6):
            inst = make(make_grid(3, 3), variant, 3, seed)
            eager = mdd_sat_solve(inst, timeout=30)
            lazy = smt_cbs_solve(inst, timeout=30)
            assert eager.status == lazy.status, inst
            if eager.status == STATUS_SOLVED:
                assert lazy.stats.clauses <= eager.stats.clauses, inst


def test_non_incremental_mode_equivalent():
    for solver in SOLVERS:
        for seed in range(5):
            inst = random_instance(make_grid(3, 3), Variant.TPERM, 3, seed)
            a = solver(inst, timeout=30)
            b = solver(inst, timeout=30, sat=satcore.solve)
            assert a.status == b.status and a.xi == b.xi


def test_external_backend_hook():
    calls = []

    def backend(formula, budget):
        calls.append(len(formula.clauses))
        return satcore.solve(formula, budget)

    inst = random_instance(make_grid(3, 3), Variant.MAPF, 3, 3)
    res = smt_cbs_solve(inst, timeout=30, sat=backend)
    assert res.status == STATUS_SOLVED and calls
    # the accumulated formula only ever grows within a bound
    assert calls == sorted(calls) or res.stats.sat_calls != len(calls)


def test_clause_for_record_grounds_vertex_collision():
    inst = random_instance(make_grid(3, 3), Variant.MAPF, 2, 0)
    _, vm = encode_basic(inst, lower_bound(inst) + 1)
    col = Collision(KIND_VERTEX, 0, 0, inst.starts[0], 1)
    clause = clause_for_record(record_from_collision(col), vm)
    a = vm.x(0, inst.starts[0], 0)
    if vm.x(1, inst.starts[0], 0) is None:
        assert clause is None
    else:
        assert clause == [-a, -vm.x(1, inst.starts[0], 0)]


def test_stats_account_for_refinements():
    # crossing agents force at least one collision-driven refinement
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)])
    inst = Instance(g, Variant.MAPF, (0, 2), (2, 0))
    res = smt_cbs_solve(inst, timeout=30)
    assert res.status == STATUS_SOLVED
    assert res.stats.refinements >= 1
    assert res.stats.sat_calls >= res.stats.refinements / max(1, res.stats.sat_calls)


@pytest.mark.parametrize("solver", SOLVERS)
def test_timeout_reported(solver):
    from reloc.relocation import random_permutation_instance
    inst = random_permutation_instance(make_grid(4, 4), Variant.TSWAP, 12, 0)
    res = solver(inst, timeout=0.0)
    assert res.status in ("timeout", "limit")
    assert res.plan is None


@pytest.mark.parametrize("solver", SOLVERS)
def test_timeout_comes_back_within_the_budget_on_8x8(solver):
    # at a late bound of this instance a conflict costs about 12 ms, so a
    # deadline checked only every 512 conflicts can overshoot by seconds
    inst = suite_instance("grid8", Variant.MAPF, 16, 0)
    t0 = time.monotonic()
    res = solver(inst, timeout=3)
    elapsed = time.monotonic() - t0
    assert res.status == "timeout"
    assert elapsed <= 3 + 1.5


@pytest.mark.parametrize("variant", [Variant.MAPF, Variant.TSWAP])
@pytest.mark.parametrize("solver", SOLVERS + [cbs_solve])
def test_a_one_second_budget_holds_on_8x8(solver, variant):
    # the deadline is checked in the precheck, the encoder, the clause load,
    # at every conflict (the theory's too) and every 64th decision
    budget = 1.0
    inst = suite_instance("grid8", variant, 16, 0)
    t0 = time.monotonic()
    res = solver(inst, timeout=budget)
    elapsed = time.monotonic() - t0
    assert res.status in ("solved", "timeout")
    assert elapsed <= budget + max(0.05 * budget, 0.25), (res.status, elapsed)


@pytest.mark.parametrize("solver,name", [(mdd_sat_solve, "encode_full"),
                                         (smt_cbs_solve, "encode_basic")])
def test_a_budget_of_about_zero_ends_in_the_encoder_on_8x8(solver, name, monkeypatch):
    # the bound loop hands the solve's deadline to the encoder, which raises
    # TimeoutError once it has passed; the solve then answers timeout
    raised = []

    def encode(*args, real=getattr(solvers, name), **kwargs):
        try:
            return real(*args, **kwargs)
        except TimeoutError:
            raised.append(name)
            raise

    monkeypatch.setattr(solvers, name, encode)
    inst = suite_instance("grid8", Variant.MAPF, 16, 0)
    t0 = time.monotonic()
    res = solver(inst, timeout=1e-6)
    assert res.status == "timeout" and res.plan is None
    assert time.monotonic() - t0 <= 1e-6 + 0.25
    assert raised == [name]


# --- the bound loop's guards ---------------------------------------------------

@pytest.mark.parametrize("solver", SOLVERS)
def test_a_plan_above_its_bound_is_rejected(solver, monkeypatch):
    # a faulty backend: it solves each formula without the unsettled flags and
    # the cost counter, so its models may cost more than the bound they answer
    cost_vars = {}
    for name in ("encode_full", "encode_basic"):
        def encode(*args, real=getattr(solvers, name), **kwargs):
            formula, vm = real(*args, **kwargs)
            cost_vars[formula] = min(vm.unsettled_vars(), default=formula.num_vars + 1)
            return formula, vm
        monkeypatch.setattr(solvers, name, encode)

    def costless(formula, budget):
        first = cost_vars[formula]
        relaxed = satcore.CnfFormula()
        relaxed.num_vars = formula.num_vars
        relaxed.clauses = [c for c in formula.clauses if all(abs(x) < first for x in c)]
        return satcore.solve(relaxed, budget)

    inst = random_instance(make_grid(3, 3), Variant.MAPF, 3, 0)
    assert lower_bound(inst) == 4 and oracle_solve(inst).xi == 6
    with pytest.raises(satcore.SatError, match="cost"):
        solver(inst, timeout=30, sat=costless)


def test_eager_never_refines(monkeypatch):
    # without its rule clauses the eager formula admits colliding plans,
    # which the eager driver must report instead of refining
    monkeypatch.setattr(solvers, "encode_full", encode_basic)
    with pytest.raises(RuntimeError, match="full encoding produced invalid plan"):
        mdd_sat_solve(CROSSING, timeout=30)


def test_lazy_refinement_that_adds_nothing_stalls(monkeypatch):
    monkeypatch.setattr(solvers, "clause_for_record", lambda rec, vm: None)
    with pytest.raises(RuntimeError, match="refinement stalled"):
        smt_cbs_solve(CROSSING, timeout=30)


@pytest.mark.parametrize("solver", SOLVERS + [cbs_solve])
def test_a_solve_runs_one_bfs_per_distinct_endpoint(solver, monkeypatch):
    calls = []
    bfs = relocation.bfs_distances

    def counted(n, adj, source):
        calls.append(source)
        return bfs(n, adj, source)

    monkeypatch.setattr(relocation, "bfs_distances", counted)
    for variant in Variant:
        inst = suite_instance("grid8", variant, 4, 3)
        relocation.effective_distances.cache_clear()
        calls.clear()
        solver(inst, timeout=30)
        assert sorted(calls) == sorted(set(inst.starts + inst.goals)), variant
