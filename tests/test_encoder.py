import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest

from reloc import encoder
from reloc.bench import suite_instance
from reloc.encoder import (
    Mdd,
    VarMap,
    at_most_k,
    build_mdd,
    clause_for_record,
    encode_basic,
    encode_full,
    extract_plan,
    lower_bound,
    makespan_bound,
    record_from_collision,
    rule_records,
)
from reloc.graphs import (
    INF,
    all_pairs_distances,
    build_graph,
    make_clique,
    make_grid,
    make_random,
    make_star,
)
from reloc.oracle import oracle_solve
from reloc.relocation import (
    Collision,
    Instance,
    Variant,
    effective_adjacency,
    effective_distances,
    make_plan,
    plan_cost,
    random_instance,
    random_permutation_instance,
    validate,
)
from reloc.satcore import CnfFormula, SatSolver, solve

PATH4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])


# --- bounds -------------------------------------------------------------------

def test_lower_bound_sums_distances():
    i = Instance(PATH4, Variant.MAPF, (0, 3), (2, 1))
    assert lower_bound(i) == 4


def test_lower_bound_inf_when_cut_off():
    g = build_graph(4, [(0, 1), (2, 3)])
    i = Instance(g, Variant.MAPF, (0,), (3,))
    assert lower_bound(i) >= INF
    # token supports restrict movement further than the raw graph does
    j = Instance(PATH4, Variant.TSWAP, (0, 2), (2, 0))
    assert lower_bound(j) >= INF


def test_makespan_bound_grows_with_slack():
    i = Instance(PATH4, Variant.MAPF, (0, 3), (2, 1))
    assert makespan_bound(i, 4) == 2
    assert makespan_bound(i, 7) == 5
    with pytest.raises(ValueError):
        makespan_bound(i, 3)


# --- decision diagrams --------------------------------------------------------

def test_mdd_level_zero_is_start_and_last_contains_goal():
    g = make_grid(3, 3)
    i = Instance(g, Variant.MAPF, (0, 8), (8, 0))
    for item in range(2):
        for xi in (8, 10):
            mdd = build_mdd(i, item, xi)
            assert mdd.levels[0] == (i.starts[item],)
            assert i.goals[item] in mdd.levels[-1]
            assert len(mdd.levels) - 1 == makespan_bound(i, xi)


def test_mdd_arcs_connect_adjacent_levels():
    g = make_grid(3, 3)
    i = Instance(g, Variant.MAPF, (0,), (8,))
    mdd = build_mdd(i, 0, 6)
    for t, lvl_arcs in enumerate(mdd.arcs):
        for u, v in lvl_arcs:
            assert u in mdd.levels[t] and v in mdd.levels[t + 1]
            assert u == v or g.has_edge(u, v)
    # every non-final level vertex has an outgoing arc and every non-initial
    # level vertex an incoming one (no dead ends by construction)
    for t in range(len(mdd.arcs)):
        outs = {u for u, _ in mdd.arcs[t]}
        ins = {v for _, v in mdd.arcs[t]}
        assert set(mdd.levels[t]) <= outs
        assert set(mdd.levels[t + 1]) <= ins


def test_mdd_zero_slack_is_geodesic_diamond():
    g = make_grid(3, 3)
    i = Instance(g, Variant.MAPF, (0,), (8,))
    mdd = build_mdd(i, 0, 4)
    # with no slack every vertex on a level lies on some shortest path
    assert mdd.levels[0] == (0,) and mdd.levels[-1] == (8,)
    assert all(len(lvl) >= 1 for lvl in mdd.levels)
    assert all(u != v for t in range(len(mdd.arcs)) for u, v in mdd.arcs[t])


def test_mdd_goal_tail_present_with_slack():
    i = Instance(PATH4, Variant.MAPF, (0, 3), (1, 2))
    mdd = build_mdd(i, 0, 4)  # two units of slack
    d = 1
    for t in range(d, len(mdd.levels)):
        assert i.goals[0] in mdd.levels[t]


def endpoint_instances(variant):
    """Seeded instances on grid, star, clique and random graphs. Token
    instances on a partial support leave the vertices off it at INF, and the
    random_instance ones, with a start set that differs from the goal set,
    have no finite lower bound."""
    for g in (make_grid(4, 3), make_star(7), make_clique(5), make_random(9, 0.15, 3)):
        for seed in range(4):
            k = 2 + seed % 3
            yield random_instance(g, variant, k, seed)
            if variant != Variant.MAPF:
                yield random_permutation_instance(g, variant, k, seed)


def all_pairs_effective_distances(inst):
    """BFS from every vertex over the effective adjacency."""
    adj = effective_adjacency(inst)
    n = inst.graph.n
    return all_pairs_distances(build_graph(n, [(u, v) for u in range(n) for v in adj[u]]))


def full_scan_mdd(inst, item, xi):
    """The module docstring's V_i^t, testing every vertex at every level
    against all-pairs distances, with every wait or effective edge between
    consecutive levels as an arc."""
    adj = effective_adjacency(inst)
    n = inst.graph.n
    dist = all_pairs_effective_distances(inst)
    s, g = inst.starts[item], inst.goals[item]
    d = dist(s, g)
    budget = d + xi - lower_bound(inst)
    levels = [
        tuple(v for v in range(n)
              if dist(s, v) <= t and t + dist(v, g) <= budget or v == g and t >= d)
        for t in range(makespan_bound(inst, xi) + 1)
    ]
    arcs = [
        tuple(sorted((u, v) for u in here for v in (u,) + adj[u] if v in there))
        for here, there in zip(levels, levels[1:])
    ]
    return Mdd(tuple(levels), tuple(arcs))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_endpoint_distance_rows_are_all_pairs_rows(variant):
    for inst in endpoint_instances(variant):
        ref = all_pairs_effective_distances(inst)
        table = effective_distances(inst)
        endpoints = set(inst.starts + inst.goals)
        assert set(table.dist) == endpoints
        for v in endpoints:
            assert table.dist[v] == ref.dist[v], (inst, v)
        for v in set(range(inst.graph.n)) - endpoints:
            with pytest.raises(KeyError):
                table(v, inst.goals[0])


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_mdd_equals_the_full_scan_of_its_definition(variant):
    checked = 0
    for inst in endpoint_instances(variant):
        lb = lower_bound(inst)
        if lb >= INF:
            continue
        for xi in (lb, lb + 1, lb + 3):
            for item in range(inst.k):
                assert build_mdd(inst, item, xi) == full_scan_mdd(inst, item, xi), (inst, item, xi)
                checked += 1
    assert checked > 100


# --- cardinality helper -------------------------------------------------------

@pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (4, 2), (5, 0), (5, 5)])
def test_at_most_k_exact(n, k):
    f = CnfFormula()
    lits = [f.new_var() for _ in range(n)]
    at_most_k(f, lits, k)
    for bits in itertools.product([False, True], repeat=n):
        model = dict(zip(lits, bits))
        # counter variables are free: the assignment extends iff count <= k
        sub = CnfFormula()
        sub.num_vars = f.num_vars
        for c in f.clauses:
            sub.add_clause(c)
        for v, b in model.items():
            sub.add_clause([v if b else -v])
        res = solve(sub)
        if sum(bits) <= k:
            assert isinstance(res, dict)
        else:
            assert res == "UNSAT"


# --- full encoding vs oracle --------------------------------------------------

def sat_at(inst, xi):
    f, vm = encode_full(inst, xi)
    res = solve(f)
    return res, vm


def test_full_encoding_matches_oracle_on_small_instances():
    graphs = [PATH4, make_clique(3), make_grid(3, 3)]
    for g in graphs:
        for variant in Variant:
            for seed in range(4):
                k = 2 if variant == Variant.MAPF and g.n == 3 else 2
                inst = random_instance(g, variant, k, seed)
                want = oracle_solve(inst)
                lb = lower_bound(inst)
                if lb >= INF:
                    assert want.status == "unsolvable"
                    continue
                for xi in range(lb, lb + 3):
                    res, vm = sat_at(inst, xi)
                    should = want.status == "solved" and want.xi <= xi
                    if should:
                        assert isinstance(res, dict), (inst, xi)
                        plan = extract_plan(vm, res)
                        assert validate(inst, plan) == []
                        assert plan_cost(plan.paths) <= xi
                    else:
                        assert res == "UNSAT", (inst, xi)


def test_full_encoding_finds_exact_optimum():
    g = make_grid(3, 3)
    inst = random_instance(g, Variant.MAPF, 3, 2)
    want = oracle_solve(inst)
    assert want.status == "solved"
    lb = lower_bound(inst)
    for xi in range(lb, want.xi):
        res, _ = sat_at(inst, xi)
        assert res == "UNSAT"
    res, vm = sat_at(inst, want.xi)
    assert isinstance(res, dict)
    assert plan_cost(extract_plan(vm, res).paths) == want.xi


# --- lazy encoding and refinement records --------------------------------------

def small_instance(variant, seed):
    """A 3x3 instance: 3 agents for MAPF, else 4 tokens on a connected support."""
    if variant == Variant.MAPF:
        return random_instance(make_grid(3, 3), variant, 3, seed)
    return random_permutation_instance(make_grid(3, 3), variant, 4, seed)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_basic_encoding_is_subset_of_full(variant):
    inst = small_instance(variant, 1)
    fb, _ = encode_basic(inst, lower_bound(inst) + 1)
    ff, _ = encode_full(inst, lower_bound(inst) + 1)
    basic = {tuple(sorted(c)) for c in fb.clauses}
    full = {tuple(sorted(c)) for c in ff.clauses}
    assert basic <= full
    assert len(basic) < len(full)  # collision clauses are deferred


@pytest.mark.parametrize("variant", [Variant.TSWAP, Variant.TROT, Variant.TPERM],
                         ids=lambda v: v.value)
def test_refinement_clauses_appear_in_full_encoding(variant):
    # run the lazy loop by hand: every clause grounded for a collision that
    # validate reports on a model of encode_basic is a clause of encode_full
    kinds = set()
    for seed in range(4):
        inst = small_instance(variant, seed)
        lb = lower_bound(inst)
        for xi in (lb, lb + 1):
            ff, _ = encode_full(inst, xi)
            full = {tuple(sorted(c)) for c in ff.clauses}
            records = []
            for _ in range(100):
                fb, vm = encode_basic(inst, xi, records)
                model = solve(fb)
                if not isinstance(model, dict):
                    break
                collisions = validate(inst, extract_plan(vm, model))
                if not collisions:
                    break
                for col in collisions:
                    rec = record_from_collision(col)
                    records.append(rec)
                    clause = clause_for_record(rec, vm)
                    if clause is None:
                        continue
                    kinds.add(rec.kind)
                    assert tuple(sorted(clause)) in full, rec
            else:
                pytest.fail(f"refinement did not settle on {inst} at xi={xi}")
    expected = {
        Variant.TSWAP: {"vertex", "swap"},
        Variant.TROT: {"vertex", "rot", "empty"},
        Variant.TPERM: {"vertex", "empty"},
    }[variant]
    assert kinds == expected


def random_mdd_plan(vm, rng):
    """A joint plan of independent forward walks along each item's MDD arcs:
    every path is one the encodings can express, and paths may collide."""
    paths = []
    for mdd in vm.mdds:
        path = [mdd.levels[0][0]]
        for lvl_arcs in mdd.arcs:
            path.append(rng.choice([v for u, v in lvl_arcs if u == path[-1]]))
        paths.append(path)
    return make_plan(paths)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_every_collision_of_an_mdd_plan_is_a_rule_record(variant):
    # lazy is a subset of eager at the record level: whatever collision
    # validation can report on paths inside the MDDs, which include every
    # model of the basic encoding, encode_full has already grounded through
    # the same record
    kinds = set()
    rng = random.Random(7)
    for g in (make_grid(3, 3), make_star(6), make_clique(5)):
        for seed in range(6):
            if variant == Variant.MAPF:
                inst = random_instance(g, variant, 3, seed)
            else:
                inst = random_permutation_instance(g, variant, 4, seed)
            lb = lower_bound(inst)
            if lb >= INF:
                continue
            for xi in (lb, lb + 2):
                ff, vm = encode_full(inst, xi)
                rules = set(rule_records(vm))
                full = {tuple(sorted(c)) for c in ff.clauses}
                for _ in range(20):
                    for col in validate(inst, random_mdd_plan(vm, rng)):
                        rec = record_from_collision(col)
                        assert rec in rules, rec
                        clause = clause_for_record(rec, vm)
                        assert clause is not None, rec
                        assert tuple(sorted(clause)) in full, rec
                        kinds.add(rec.kind)
    expected = {
        Variant.MAPF: {"vertex", "occupancy"},
        Variant.TSWAP: {"vertex", "swap"},
        Variant.TROT: {"vertex", "empty", "rot"},
        Variant.TPERM: {"vertex", "empty"},
    }[variant]
    assert kinds == expected


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_distinct_records_ground_to_distinct_clauses(variant):
    # the lazy bound loop skips a record it already holds and posts every new
    # one; that adds no clause twice because, at one bound, the starting
    # formula repeats no clause, no two records ground to the same clause,
    # and no record clause is a path or cost clause. Every record the lazy
    # solver can hold whose clause exists at a bound is in rule_records there.
    grounded = 0
    for family in ("grid3", "star8", "clique5", "rand8"):
        for k in (2, 3, 4):
            for seed in range(4):
                inst = suite_instance(family, variant, k, seed)
                lb = lower_bound(inst)
                if lb >= INF:
                    continue
                for xi in (lb, lb + 2):
                    fb, vm = encode_basic(inst, xi)
                    owner = {}
                    for clause in fb.clauses:
                        key = tuple(sorted(clause))
                        assert key not in owner, f"duplicate basic clause {key}"
                        owner[key] = "basic"
                    records = list(rule_records(vm))
                    assert len(set(records)) == len(records)
                    for rec in records:
                        clause = clause_for_record(rec, vm)
                        if clause is None:
                            continue
                        key = tuple(sorted(clause))
                        assert key not in owner, (rec, owner[key])
                        owner[key] = rec
                        grounded += 1
    assert grounded > 1000


# sha256 of repr((num_vars, clauses)) of encode_full over 36 formulas; a
# refactor of the encoder must leave every formula byte-identical, and a
# change that alters the formulas updates this pin and says so in CHANGES.md
FULL_ENCODING_SHA256 = "8b0c4090b8d5630b1df80ccc6c7f1da797b1f6a3f3af8b1b08674c52a7786d62"


def test_full_encodings_are_pinned():
    digest = hashlib.sha256()
    for variant in Variant:
        for seed in range(3):
            inst = suite_instance("grid3", variant, 3, seed)
            lb = lower_bound(inst)
            for xi in range(lb, lb + 3):
                f, _ = encode_full(inst, xi)
                digest.update(repr((f.num_vars, f.clauses)).encode())
    assert digest.hexdigest() == FULL_ENCODING_SHA256


# sha256 of repr((num_vars, clauses)) of 24 formulas on 8x8 grids: encode_full,
# and encode_basic with every 7th of the sorted rule records, at LB and LB+1
# of MAPF k=5 and TSWAP and TPERM k=6, seeds 0-1; pinned like the one above
GRID8_ENCODING_SHA256 = "b28fc7e3996fa018b2d87ae6be2fe11ed3314d3e64be2580748246ca90a24ca8"


def test_grid8_encodings_are_pinned():
    digest = hashlib.sha256()
    for variant, k in ((Variant.MAPF, 5), (Variant.TSWAP, 6), (Variant.TPERM, 6)):
        for seed in range(2):
            inst = suite_instance("grid8", variant, k, seed)
            lb = lower_bound(inst)
            for xi in (lb, lb + 1):
                f, vm = encode_full(inst, xi)
                digest.update(repr((f.num_vars, f.clauses)).encode())
                f, _ = encode_basic(inst, xi, sorted(rule_records(vm))[::7])
                digest.update(repr((f.num_vars, f.clauses)).encode())
    assert digest.hexdigest() == GRID8_ENCODING_SHA256


# --- the variable tables ------------------------------------------------------

@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_varmap_accessors_answer_none_off_the_mdds(variant):
    # x, e and u name a variable exactly on the MDDs and the unsettled
    # window, also at t = -1 and t = mu + 1, where a list-indexed table would
    # wrap or overrun; items_at is the k-scan of the MDD levels
    for seed in range(3):
        inst = small_instance(variant, seed)
        n, lb = inst.graph.n, lower_bound(inst)
        dist = effective_distances(inst)
        for xi in (lb, lb + 2):
            f, vm = encode_basic(inst, xi)
            assert vm.mu == makespan_bound(inst, xi)
            named = []
            for t in range(-1, vm.mu + 2):
                for v in range(n):
                    assert vm.items_at(v, t) == [
                        i for i, mdd in enumerate(vm.mdds)
                        if 0 <= t <= vm.mu and v in mdd.levels[t]
                    ]
            for i, mdd in enumerate(vm.mdds):
                d = dist(inst.starts[i], inst.goals[i])
                for t in range(-1, vm.mu + 2):
                    level = mdd.levels[t] if 0 <= t <= vm.mu else ()
                    arcs = mdd.arcs[t] if 0 <= t < vm.mu else ()
                    for v in range(n):
                        assert (vm.x(i, v, t) is not None) == (v in level)
                        for u in range(n):
                            assert (vm.e(i, u, v, t) is not None) == ((u, v) in arcs)
                    assert (vm.u(i, t) is not None) == (d <= t < d + xi - lb)
                named += [vm.x(i, v, t) for t, level in enumerate(mdd.levels) for v in level]
                named += [vm.e(i, u, v, t) for t, arcs in enumerate(mdd.arcs) for u, v in arcs]
            assert vm.unsettled_vars() == [
                vm.u(i, t) for i in range(inst.k)
                for t in range(dist(inst.starts[i], inst.goals[i]), vm.mu + 1)
                if vm.u(i, t) is not None
            ]
            # X and E item by item, then U: one consecutive run from 1
            named += vm.unsettled_vars()
            assert named == list(range(1, len(named) + 1))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_encodings_read_the_tables_not_the_accessors(variant, monkeypatch):
    # the bulk sections and the grounding of rule_records look variables up
    # in the per-level tables; a per-literal x or e call in their loops fails
    inst = small_instance(variant, 0)
    xi = lower_bound(inst) + 1
    want_basic, _ = encode_basic(inst, xi)
    want_full, vm = encode_full(inst, xi)
    records = list(rule_records(vm))

    def accessor(*args):
        raise AssertionError("VarMap accessor called in an encoding loop")

    monkeypatch.setattr(VarMap, "x", accessor)
    monkeypatch.setattr(VarMap, "e", accessor)
    got_basic, vm = encode_basic(inst, xi)
    assert got_basic.clauses == want_basic.clauses
    grounded = [clause_for_record(rec, vm) for rec in rule_records(vm)]
    assert got_basic.clauses + [c for c in grounded if c is not None] == want_full.clauses
    assert list(rule_records(vm)) == records


def test_the_deadline_is_checked_per_item_and_time_step(monkeypatch):
    # never per clause: an encoding looks at the clock a fixed number of
    # times, and raises TimeoutError at the first look past the deadline
    now = []
    monkeypatch.setattr(encoder, "time",
                        SimpleNamespace(monotonic=lambda: now.append(1) or len(now)))
    for variant in Variant:
        inst = small_instance(variant, 1)
        xi = lower_bound(inst) + 1
        now.clear()
        encode_basic(inst, xi, deadline=10**9)
        assert len(now) == 2 * inst.k  # VarMap and the path clauses
        now.clear()
        _, vm = encode_full(inst, xi, deadline=10**9)
        per_item = 4 if variant == Variant.TROT else 3  # and the per-arc records
        assert len(now) == per_item * inst.k + vm.mu + 1  # and the vertex pairs
        for deadline in (0, inst.k, 2 * inst.k + 1):
            now.clear()
            with pytest.raises(TimeoutError):
                encode_full(inst, xi, deadline=deadline)
            assert len(now) == deadline + 1


def test_records_sort_kind_major_then_by_fields():
    # the lazy driver grounds records in sorted order, so this order fixes
    # its clause order; j and u are None for some kinds
    recs = [
        Collision("vertex", t=1, i=0, v=4, j=2),
        Collision("swap", t=0, i=1, v=3, u=2),
        Collision("empty", t=2, i=0, v=1, u=0),
        Collision("rot", t=0, i=2, v=1, j=0, u=5),
        Collision("occupancy", t=0, i=1, v=2, j=0, u=1),
        Collision("vertex", t=1, i=0, v=4, j=1),
        Collision("swap", t=0, i=1, v=2, u=7),
        Collision("empty", t=0, i=3, v=1, u=2),
        Collision("rot", t=0, i=2, v=1, j=0, u=4),
        Collision("occupancy", t=0, i=0, v=2, j=1, u=3),
        Collision("vertex", t=0, i=1, v=0, j=2),
    ]
    got = sorted(recs)
    want = sorted(recs, key=lambda r: (
        r.kind, r.t, r.i, r.v,
        -1 if r.j is None else r.j,
        -1 if r.u is None else r.u,
    ))
    assert got == want
    assert [r.kind for r in got] == (
        ["empty"] * 2 + ["occupancy"] * 2 + ["rot"] * 2 + ["swap"] * 2 + ["vertex"] * 3
    )
    assert got[0] == Collision("empty", t=0, i=3, v=1, u=2)
    assert got[-3:] == [
        Collision("vertex", t=0, i=1, v=0, j=2),
        Collision("vertex", t=1, i=0, v=4, j=1),
        Collision("vertex", t=1, i=0, v=4, j=2),
    ]
    assert sorted(set(recs + recs)) == got


def test_record_from_collision_grounds_each_kind():
    from reloc.relocation import (
        KIND_EMPTY, KIND_OCCUPANCY, KIND_ROT, KIND_SWAP, KIND_VERTEX,
    )

    r = record_from_collision(Collision(KIND_VERTEX, 2, 0, 1, 1))
    assert (r.kind, r.i, r.j, r.v, r.t) == ("vertex", 0, 1, 1, 2)
    r = record_from_collision(Collision(KIND_OCCUPANCY, 0, 0, 1, 1, 0))
    assert r.kind == "occupancy" and r.u == 0
    r = record_from_collision(Collision(KIND_SWAP, 0, 0, 1, 1, 0))
    assert r.kind == "swap"
    # degenerate: moving into an empty vertex is a swap nobody answers
    r = record_from_collision(Collision(KIND_SWAP, 0, 0, 3, 0, 2))
    assert r == Collision("swap", t=0, i=0, v=3, u=2)
    r = record_from_collision(Collision(KIND_EMPTY, 0, 0, 3, 0, 2))
    assert r == Collision("empty", t=0, i=0, v=3, u=2)
    r = record_from_collision(Collision(KIND_ROT, 0, 0, 1, 1, 0))
    assert r.kind == "rot"


def test_clause_for_record_drops_absent_literals():
    inst = Instance(PATH4, Variant.MAPF, (0, 3), (1, 2))
    f = CnfFormula()
    vm = VarMap(f, inst, lower_bound(inst))
    # item 1 can never reach vertex 0 at t=0, so the forbidden pair cannot
    # happen and the record contributes nothing
    rec = Collision("vertex", t=0, i=0, v=0, j=1)
    assert clause_for_record(rec, vm) is None
    # a swap record keeps its negated head and drops only missing partner
    # back-arcs (positive literals)
    s = Instance(PATH4, Variant.TSWAP, (0, 1), (1, 0))
    fs = CnfFormula()
    vs = VarMap(fs, s, 2)
    head = vs.e(0, 0, 1, 0)
    assert head is not None
    clause = clause_for_record(Collision("swap", t=0, i=0, v=1, u=0), vs)
    assert clause[0] == -head
    assert all(lit > 0 for lit in clause[1:])


def test_encode_basic_with_records_appends_their_clauses():
    inst = random_instance(make_grid(3, 3), Variant.MAPF, 2, 0)
    xi = lower_bound(inst)
    f0, vm = encode_basic(inst, xi)
    recs = []
    for v in range(inst.graph.n):
        for t in range(vm.mu + 1):
            r = Collision("vertex", t=t, i=0, v=v, j=1)
            if clause_for_record(r, vm) is not None:
                recs.append(r)
    f1, vm1 = encode_basic(inst, xi, records=recs)
    assert len(f1.clauses) == len(f0.clauses) + len(recs)
    assert f1.num_vars == f0.num_vars


# --- one session across bounds --------------------------------------------------

def session_instances(variant):
    """Seeded small instances: 3x3 grids, and random 7-vertex graphs."""
    for seed in range(4):
        yield small_instance(variant, seed)
        g = make_random(7, 0.2, seed)
        if variant == Variant.MAPF:
            yield random_instance(g, variant, 3, seed)
        else:
            yield random_permutation_instance(g, variant, 4, seed)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_one_session_across_bounds_answers_like_fresh_encodings(variant):
    # one Session and one SatSolver grown from LB to LB+3 with a fixed record
    # list, plus the records of each plan's collisions as the lazy driver
    # adds them: at every bound the live clauses count those of a fresh
    # encode_basic, the answers agree, and every plan is a plan of cost <= xi
    answers = set()
    for inst in session_instances(variant):
        lb = lower_bound(inst)
        _, vm = encode_full(inst, lb + 3)
        records = sorted(rule_records(vm))[::2]
        session, solver = encoder.Session(), SatSolver()
        for xi in range(lb, lb + 4):
            solver.simplify(session.spent)
            f, vm = encode_basic(inst, xi, records, session=session)
            solver.add_clauses(f.num_vars, f.clauses)
            for _ in range(2):
                fresh, _ = encode_basic(inst, xi, records)
                assert session.live == len(fresh.clauses)
                got, want = solver.solve(assumptions=[-session.guard]), solve(fresh)
                assert isinstance(got, dict) == isinstance(want, dict), (inst, xi)
                answers.add(isinstance(got, dict))
                if not isinstance(got, dict):
                    break
                plan = extract_plan(vm, got)
                collisions = validate(inst, plan)  # raises on a broken path
                assert plan.cost <= xi and plan.makespan == vm.mu
                for rec in sorted({record_from_collision(c) for c in collisions} - set(records)):
                    clause = clause_for_record(rec, vm)
                    if clause is not None:
                        solver.add_clause(session.post(rec, clause))
                        records.append(rec)
    assert answers == {True, False}
