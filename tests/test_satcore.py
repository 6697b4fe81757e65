import heapq
import itertools
import random
import time

import pytest

from reloc.satcore import (
    CnfFormula,
    SatError,
    SatSolver,
    from_dimacs,
    solve,
    to_dimacs,
)


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            return model
    return None


def formula_of(num_vars, clauses):
    f = CnfFormula()
    for _ in range(num_vars):
        f.new_var()
    for c in clauses:
        f.add_clause(c)
    return f


def random_clauses(rng, num_vars, m, width=3):
    out = []
    for _ in range(m):
        w = rng.randint(1, width)
        out.append([rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(w)])
    return out


def random_3sat(rng, num_vars, m):
    """Clauses of three distinct variables; hard near m = 4.26 * num_vars."""
    return formula_of(num_vars, [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(m)
    ])


def php(holes):
    """Pigeonhole: holes+1 pigeons into `holes` holes. Classic UNSAT."""
    f = CnfFormula()
    pigeons = holes + 1
    var = {(p, h): f.new_var() for p in range(pigeons) for h in range(holes)}
    for p in range(pigeons):
        f.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                f.add_clause([-var[p1, h], -var[p2, h]])
    return f


# --- formula container --------------------------------------------------------

def test_formula_rejects_unallocated_literals():
    f = formula_of(2, [])
    with pytest.raises(SatError):
        f.add_clause([3])
    with pytest.raises(SatError):
        f.add_clause([0])


@pytest.mark.parametrize("bad", [0, 4, -4])
def test_add_clauses_rejects_a_bad_literal_and_appends_nothing(bad):
    f = formula_of(3, [[1, -2]])
    before = [list(c) for c in f.clauses]
    with pytest.raises(SatError, match=f"^literal {bad} references an unallocated variable$"):
        f.add_clauses([[1, 2], [-3, 3], [2, bad, 5], [1]])
    assert f.clauses == before
    # the message names the first bad literal, as add_clause does
    with pytest.raises(SatError, match=f"^literal {bad} references"):
        f.add_clause([3, bad])
    assert f.clauses == before


def test_add_clauses_appends_in_order_and_accepts_an_empty_batch():
    f = formula_of(3, [[1]])
    f.add_clauses([])
    assert f.clauses == [[1]]
    f.add_clauses([[-3, 2], [3], [-1, -2, -3]])
    f.add_clauses([[]])  # an empty clause is a clause, as with add_clause
    assert f.clauses == [[1], [-3, 2], [3], [-1, -2, -3], []]


def test_check_model():
    f = formula_of(2, [[1, 2], [-1]])
    assert f.check_model({1: False, 2: True})
    assert not f.check_model({1: False, 2: False})


def test_check_model_rejects_a_falsified_clause_and_a_missing_variable():
    f = formula_of(3, [[2, 1], [3, -1]])
    assert f.check_model({1: True, 2: False, 3: True})
    assert not f.check_model({1: True, 2: False, 3: False})  # falsifies [3, -1]
    # every clause has a true literal, but variable 1 has no value
    assert not f.check_model({2: True, 3: True})
    # a variable that occurs in no clause still needs a value
    assert not formula_of(2, [[1]]).check_model({1: True})


# --- solver vs brute force ----------------------------------------------------

def test_trivial_cases():
    assert solve(formula_of(0, [])) == {}
    assert solve(formula_of(1, [[1], [-1]])) == "UNSAT"
    m = solve(formula_of(1, [[1]]))
    assert m == {1: True}


def test_random_formulas_match_brute_force():
    rng = random.Random(0)
    for trial in range(300):
        nv = rng.randint(1, 8)
        clauses = random_clauses(rng, nv, rng.randint(1, 24))
        f = formula_of(nv, clauses)
        got = solve(f)
        want = brute_force(nv, clauses)
        if want is None:
            assert got == "UNSAT", f"trial {trial}"
        else:
            assert isinstance(got, dict) and f.check_model(got), f"trial {trial}"


def test_pigeonhole_unsat():
    assert solve(php(5)) == "UNSAT"


def test_empty_clause_is_unsat():
    f = formula_of(2, [[1], []])
    assert solve(f) == "UNSAT"


# --- bulk load ------------------------------------------------------------------

def messy_clauses(rng, num_vars, m):
    """Random clauses with duplicate literals, tautologies, units and now and
    then an empty clause."""
    out = []
    for _ in range(m):
        if rng.random() < 0.03:
            out.append([])
            continue
        clause = random_clauses(rng, num_vars, 1, width=5)[0]
        if rng.random() < 0.2:
            clause.insert(rng.randint(0, len(clause)), rng.choice(clause))
        if rng.random() < 0.1:
            clause.insert(rng.randint(0, len(clause)), -rng.choice(clause))
        out.append(clause)
    return out


def load_state(s):
    return (s.num_vars, s.clauses, s.is_learned, s.watches, s._units, s.unsat,
            s.vals, s.order)


def test_bulk_load_leaves_the_state_of_the_add_clause_loop():
    rng = random.Random(2)
    for trial in range(300):
        nv = rng.randint(1, 8)
        clauses = messy_clauses(rng, nv, rng.randint(0, 24))
        given = [list(c) for c in clauses]
        declared = rng.randint(0, nv)  # literals past it allocate variables
        bulk = SatSolver(declared, clauses)
        loop = SatSolver(declared)
        for c in clauses:
            loop.add_clause(c)
        assert load_state(bulk) == load_state(loop), f"trial {trial}"
        assert clauses == given, f"trial {trial}"
        assert not {id(c) for c in bulk.clauses} & {id(c) for c in clauses}
        res = bulk.solve()
        assert res == loop.solve(), f"trial {trial}"
        assert bulk.conflicts_total == loop.conflicts_total, f"trial {trial}"
        want = brute_force(nv, clauses)
        assert (res == "UNSAT") == (want is None), f"trial {trial}"


@pytest.mark.parametrize("make", [
    lambda: php(6),
    lambda: random_3sat(random.Random(7), 60, 256),  # UNSAT past a restart
])
def test_bulk_load_searches_like_the_add_clause_loop(make):
    f = make()
    bulk = SatSolver(f.num_vars, f.clauses)
    loop = SatSolver(f.num_vars)
    for c in f.clauses:
        loop.add_clause(c)
    assert bulk.solve() == loop.solve()
    assert bulk.conflicts_total == loop.conflicts_total > 0
    assert bulk.clauses == loop.clauses


class RequeueAllSolver(SatSolver):
    """Reference decision heap: every backtrack queues every freed variable
    again, and every stale entry is popped."""

    def _backtrack(self, level):
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for lit in self.trail[bound:]:
            self.vals[lit] = self.vals[-lit] = 0
            heapq.heappush(self.order, (-self.activity[abs(lit)], abs(lit)))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self):
        while self.order:
            act, v = self.order[0]
            if self.vals[v] != 0 or -act != self.activity[v]:
                heapq.heappop(self.order)
                continue
            return v if self.phase[v] else -v
        return 0


@pytest.mark.parametrize("seed", range(6))
def test_queued_flags_keep_the_decisions_of_the_reference_heap(seed):
    rng = random.Random(seed)
    f = php(5) if seed == 0 else random_3sat(rng, 50, 215)
    cut = len(f.clauses) // 2
    solvers = [cls(f.num_vars, f.clauses[:cut]) for cls in (SatSolver, RequeueAllSolver)]
    for s in solvers:
        s.solve()
        for c in f.clauses[cut:]:  # clauses added to a solved trail
            s.add_clause(c)
    got, want = (s.solve() for s in solvers)
    assert got == want
    assert solvers[0].conflicts_total == solvers[1].conflicts_total > 0
    assert solvers[0].clauses == solvers[1].clauses  # the same learned clauses
    assert solvers[0].trail == solvers[1].trail


# --- incremental interface ----------------------------------------------------

def test_incremental_matches_scratch():
    rng = random.Random(1)
    for trial in range(100):
        nv = rng.randint(2, 7)
        clauses = random_clauses(rng, nv, rng.randint(4, 20))
        s = SatSolver(nv)
        cut = rng.randint(0, len(clauses))
        for c in clauses[:cut]:
            s.add_clause(list(c))
        first = s.solve()
        # add the rest mid-session, possibly after a model was returned
        for c in clauses[cut:]:
            s.add_clause(list(c))
        res = s.solve()
        want = brute_force(nv, clauses)
        if want is None:
            assert res == "UNSAT", f"trial {trial}"
        else:
            assert isinstance(res, dict), f"trial {trial} (first={first})"
            assert all(
                any(res[abs(l)] == (l > 0) for l in c) for c in clauses
            ), f"trial {trial}"


def test_incremental_tightening_to_unsat():
    s = SatSolver(3)
    s.add_clause([1, 2, 3])
    assert isinstance(s.solve(), dict)
    for res_expected, clause in [
        (dict, [-1]), (dict, [-2]), (str, [-3]),
    ]:
        s.add_clause(clause)
        res = s.solve()
        if res_expected is dict:
            assert isinstance(res, dict)
        else:
            assert res == "UNSAT"
    # once unsat, always unsat
    assert s.solve() == "UNSAT"


def test_incremental_unit_after_model():
    s = SatSolver(2)
    s.add_clause([1, 2])
    m = s.solve()
    assert isinstance(m, dict)
    picked = 1 if m[1] else 2
    s.add_clause([-picked])
    res = s.solve()
    assert isinstance(res, dict) and not res[picked]


# --- assumptions and retirement -----------------------------------------------

def satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_solve_under_assumptions_agrees_with_brute_force():
    rng = random.Random(7)
    unsat_under = 0
    for trial in range(300):
        nv = rng.randint(2, 8)
        clauses = random_clauses(rng, nv, rng.randint(3, 4 * nv))
        picked = rng.sample(range(1, nv + 1), rng.randint(0, min(3, nv)))
        assumptions = [rng.choice([-1, 1]) * v for v in picked]
        s = SatSolver(nv, clauses)
        res = s.solve(assumptions=assumptions)
        want = brute_force(nv, clauses + [[a] for a in assumptions])
        if want is None:
            assert res == "UNSAT", trial
            # the answer under assumptions is not final unless the formula
            # itself is unsatisfiable
            assert s.unsat == (brute_force(nv, clauses) is None), trial
            unsat_under += brute_force(nv, clauses) is not None
        else:
            assert isinstance(res, dict), trial
            assert satisfies(res, clauses) and all(res[abs(a)] == (a > 0) for a in assumptions)
        # and the solver answers correctly afterwards, without and with them
        again = s.solve()
        if brute_force(nv, clauses) is None:
            assert again == "UNSAT", trial
        else:
            assert isinstance(again, dict) and satisfies(again, clauses), trial
        assert isinstance(s.solve(assumptions=assumptions), dict) == (want is not None), trial
    assert unsat_under > 20


def test_unsat_under_assumptions_is_not_final():
    # a -> x and a -> not x: refuted under a only
    s = SatSolver(3, [[-1, 2], [-1, -2], [2, 3]])
    assert s.solve(assumptions=[1]) == "UNSAT"
    assert not s.unsat
    model = s.solve()
    assert isinstance(model, dict) and not model[1]
    assert s.solve(assumptions=[1]) == "UNSAT"
    model = s.solve(assumptions=[-2])
    assert isinstance(model, dict) and model[3] and not model[2]
    s.add_clause([-3])
    assert s.solve(assumptions=[-2]) == "UNSAT" and not s.unsat
    assert s.solve() == {1: False, 2: True, 3: False}
    s.add_clause([-2])
    assert s.solve() == "UNSAT" and s.unsat


@pytest.mark.parametrize("seed", range(4))
def test_retired_guards_leave_every_clause_watched_by_its_first_two(seed):
    # the clauses of each round carry the negation of its activation
    # literal; a round is solved under its literal and retired by its
    # negation, which drops every clause level 0 then satisfies
    rng = random.Random(seed)
    nv, rounds = 30, 4
    s = SatSolver(nv)
    kept = []
    for r in range(rounds):
        a = nv + 1 + r
        permanent = random_3sat(rng, nv, 40).clauses
        guarded = random_3sat(rng, nv, 60).clauses
        kept += permanent
        s.add_clauses(a, permanent + [c + [-a] for c in guarded])
        res = s.solve(assumptions=[a])
        want = SatSolver(nv, kept + guarded).solve()
        assert isinstance(res, dict) == isinstance(want, dict)
        if res != "UNSAT":
            assert satisfies(res, kept + guarded) and res[a]
        s.simplify([-a])
        assert watched_by_first_two(s)
        assert all(-a not in clause for clause in s.clauses)
        level0 = set(s.trail)
        assert all(level0.isdisjoint(clause) for clause in s.clauses)
        assert s.n_learned == sum(s.is_learned)
        res = s.solve()
        if SatSolver(nv, kept).solve() == "UNSAT":
            assert res == "UNSAT"
            break
        assert isinstance(res, dict) and satisfies(res, kept)
    assert s.conflicts_total > 0


def test_a_load_past_its_deadline_is_interrupted():
    # the eager formula of MAPF k=16 at LB+10 has about 280,000 clauses,
    # whose load alone takes about a second
    from reloc.bench import suite_instance
    from reloc.encoder import encode_full, lower_bound
    from reloc.relocation import Variant

    inst = suite_instance("grid8", Variant.MAPF, 16, 0)
    f, _ = encode_full(inst, lower_bound(inst) + 10)
    assert len(f.clauses) > 200_000
    t0 = time.monotonic()
    assert solve(f, timeout=1e-6) == "TIMEOUT"
    assert time.monotonic() - t0 <= 0.25
    with pytest.raises(TimeoutError):
        SatSolver(f.num_vars, f.clauses, deadline=time.monotonic() + 0.01)
    assert time.monotonic() - t0 <= 0.25


# --- clause database upkeep ---------------------------------------------------

def watched_by_first_two(s):
    """True iff every clause has two distinct variables first and sits in
    exactly the watch lists of those two literals, and the lists hold
    nothing else."""
    want = [[] for _ in s.watches]
    for ci, clause in enumerate(s.clauses):
        if len(clause) < 2 or abs(clause[0]) == abs(clause[1]):
            return False
        want[-clause[0]].append(ci)
        want[-clause[1]].append(ci)
    return [sorted(w) for w in s.watches] == want


@pytest.mark.parametrize("seed,sat", [(1, True), (2, False)])
def test_reduce_db_keeps_originals_and_drops_the_older_long_learned_half(seed, sat):
    # a search on 90% of a random 3-SAT formula learns a few hundred
    # clauses; the rest of the formula is added after the reduction
    f = random_3sat(random.Random(seed), 120, 511)
    cut = len(f.clauses) * 9 // 10
    s = SatSolver(f.num_vars, f.clauses[:cut])
    assert isinstance(s.solve(), dict)
    assert s.n_learned >= 300
    s._backtrack(0)
    before = [(list(c), learned) for c, learned in zip(s.clauses, s.is_learned)]
    long_learned = [ci for ci, (c, learned) in enumerate(before) if learned and len(c) > 3]
    older_half = set(long_learned[:len(long_learned) // 2])
    s._reduce_db()
    assert [(list(c), learned) for c, learned in zip(s.clauses, s.is_learned)] == [
        entry for ci, entry in enumerate(before) if ci not in older_half
    ]
    originals = [c for c, learned in before if not learned]
    assert [c for c, learned in zip(s.clauses, s.is_learned) if not learned] == originals
    learned_before = sum(learned for _, learned in before)
    assert s.n_learned == sum(s.is_learned) == learned_before - len(older_half)
    assert watched_by_first_two(s)
    for clause in f.clauses[cut:]:
        s.add_clause(clause)
    res = s.solve()
    assert isinstance(SatSolver(f.num_vars, f.clauses).solve(), dict) is sat
    if sat:
        assert isinstance(res, dict) and f.check_model(res)
    else:
        assert res == "UNSAT"


@pytest.mark.parametrize("make", [
    lambda: php(5),
    lambda: random_3sat(random.Random(1), 120, 511),
], ids=["unsat", "sat"])
def test_rescaled_activities_keep_the_answer(make):
    f = make()
    want = SatSolver(f.num_vars, f.clauses).solve()
    s = SatSolver(f.num_vars, f.clauses)
    s.var_inc = 1e99  # the first bump past 1e100 rescales
    calls = []
    rescale = s._rescale
    s._rescale = lambda: (calls.append(1), rescale())
    res = s.solve()
    assert calls
    assert max(s.activity) < 1e100
    if want == "UNSAT":
        assert res == "UNSAT"
    else:
        assert isinstance(res, dict) and f.check_model(res)


# --- dimacs round trip --------------------------------------------------------

def test_dimacs_round_trip():
    f = formula_of(3, [[1, -2], [2, 3], [-3]])
    text = to_dimacs(f)
    g = from_dimacs(text)
    assert g.num_vars == f.num_vars and g.clauses == f.clauses


def test_dimacs_error_reports_line_numbers():
    with pytest.raises(SatError, match="line 2"):
        from_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(SatError, match="line 1"):
        from_dimacs("1 2 0\np cnf 2 1\n")
    with pytest.raises(SatError, match="line 3"):
        from_dimacs("c ok\np cnf 2 1\n1 x 0\n")
    with pytest.raises(SatError, match="header"):
        from_dimacs("")
    with pytest.raises(SatError, match="unterminated"):
        from_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(SatError, match="declared 2"):
        from_dimacs("p cnf 2 2\n1 2 0\n")


def test_dimacs_multi_clause_lines_and_blank_lines():
    f = from_dimacs("p cnf 2 2\n\n1 0 -2 0\n")
    assert f.clauses == [[1], [-2]]
