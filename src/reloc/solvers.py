"""SAT-based optimal solvers: eager full encoding and lazy refinement.

Both are one bound loop: starting at the sum of single-item shortest settle
times, each candidate xi is tested for a solution of cost <= xi, so the first
satisfiable bound is optimal. They differ only in when collision clauses are
posted.

mdd_sat_solve posts all of them up front: encode_full grounds the records of
the variant's whole rule (encoder.rule_records), and each bound is one
one-shot SAT call whose plan must be collision-free. smt_cbs_solve posts one
only once the search runs into it: each bound starts from the relaxed
encoding plus the records learned so far. With the internal solver a
CollisionTheory checks the rule inside the CDCL search, on every partial
assignment, and posts the clause of each record the assignment makes false
or unit (DPLL(T)), so each bound is one solve call whose plan must be
collision-free. An external solver sees no partial assignment: its
satisfying assignments are validated against the movement rules, and the
clauses of all violated rules are added before re-solving. An unsatisfiable
relaxation is a proof that the full encoding is unsatisfiable too, so the
bound can be raised. Records persist across bounds. Both ground records
through the same clause_for_record, the encoder's one clause builder per
record kind.

With the internal solver, smt_cbs_solve is one encoder.Session on one
SatSolver: a bound adds its new clauses, between solve calls and so outside
sat_time, and guards those that grow with xi (see Session). Eager and an
external solver get a fresh formula per bound, loaded inside the SAT call.

A model whose plan costs more than its bound is not a model of the formula;
it is rejected with satcore.SatError, so a faulty SAT backend never yields a
false optimum.
"""

from __future__ import annotations

import time

from .cbs import search_cap
from .encoder import (
    Session,
    clause_for_record,
    encode_basic,
    encode_full,
    extract_plan,
    lower_bound,
    record_from_collision,
)
from .relocation import (
    Collision,
    Instance,
    KIND_EMPTY,
    KIND_OCCUPANCY,
    KIND_ROT,
    KIND_SWAP,
    KIND_VERTEX,
    Variant,
    validate,
)
from .result import (
    STATUS_LIMIT,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    STATUS_UNSOLVABLE,
    SolveResult,
    SolveStats,
    finish,
)
from . import satcore as satmod


# the events of a variable's literals that the theory reads
X_TRUE, X_FALSE, E_TRUE, E_FALSE = range(4)


class CollisionTheory:
    """The variant's movement rule as a SatSolver theory (see satcore).

    check reports every record whose clause the assigned literals make false
    or unit, once one of its negated literals is true: grounded through
    clause_for_record, posted to the session and added to records. A false
    clause is a conflict; a unit one propagates, as an eager clause would
    (lazy clause generation, Ohrimenko, Stuckey & Codish 2009). The records
    are those rule_records enumerates, so a model the theory passes has no
    collision.

    By literal, like SatSolver.vals, on holds the event the literal makes:
    (X_TRUE, i, v, t, slot of (v, t)) for X(i, v, t), (E_TRUE, i, v, t,
    slot, u, arc slot of u->v at t, of v->u) for a move E(i, u, v, t), and
    their X_FALSE (empty) and E_FALSE (swap) twins where a kind reads them.
    Per slot it lists the X variables of (v, t) and the moves into it, per
    arc slot the E variables of the arc, and it reads their values from the
    solver, so it keeps no state of the trail. extend adds the variables of
    each bound. Binary kinds (vertex, occupancy, rot) are found when one
    literal becomes true; swap and empty when the mover becomes true or,
    with the mover true, an answering literal becomes false."""

    def __init__(self, inst: Instance, session: Session, records: set,
                 stats: SolveStats, vals: list[int]):
        variant = inst.variant
        self.occupancy = variant == Variant.MAPF
        self.swap = variant == Variant.TSWAP
        self.rot = variant == Variant.TROT
        self.empty = variant in (Variant.TROT, Variant.TPERM)
        self.session, self.records, self.stats, self.vals = session, records, stats, vals
        self.num_vars = 0
        self.on: list[tuple | None] = [None]
        self.slots: dict[tuple, int] = {}  # (v, t) and (u, v, t) -> slot
        self.vars: list[list] = []  # by slot: (item, X) or (item, E)
        self.into: list[list] = []  # by slot of (v, t): (item, u, E(item, u, v, t))

    def _slot(self, key) -> int:
        slot = self.slots.setdefault(key, len(self.vars))
        if slot == len(self.vars):
            self.vars.append([])
            self.into.append([])
        return slot

    def extend(self, vm, num_vars: int) -> None:
        """Add the variables above the last bound's to the tables."""
        on, slot, vars_, into = self.on, self._slot, self.vars, self.into
        old, self.num_vars = self.num_vars, num_vars
        on[old + 1:old + 1] = [None] * (2 * (num_vars - old))
        for i, (xs, es) in enumerate(zip(vm.xs, vm.es)):
            for t, level in enumerate(xs):
                for v, x in level.items():
                    if x > old:
                        s = slot((v, t))
                        vars_[s].append((i, x))
                        on[x] = (X_TRUE, i, v, t, s)
                        if self.empty:
                            on[-x] = (X_FALSE, i, v, t, s)
            for t, arcs in enumerate(es):
                for (u, v), e in arcs.items():
                    if e > old and u != v:
                        s, a = slot((v, t)), slot((u, v, t))
                        vars_[a].append((i, e))
                        into[s].append((i, u, e))
                        on[e] = (E_TRUE, i, v, t, s, u, a, slot((v, u, t)))
                        if self.swap:
                            on[-e] = (E_FALSE,) + on[e][1:]

    def _open(self, partners, i) -> bool:
        """No partner but i is true, and at most one is free."""
        vals = self.vals
        free = 0
        for j, var in partners:
            if j != i and vals[var] != -1:
                if vals[var] == 1 or free:
                    return False
                free = 1
        return True

    def check(self, lits) -> list[list[int]]:
        vals, vars_, into = self.vals, self.vars, self.into
        vm = self.session.vm
        out = []
        post = self._post
        for event in filter(None, map(self.on.__getitem__, lits)):
            kind, i, v, t, s = event[:5]
            if kind == X_TRUE:
                for j, x in vars_[s]:
                    if j != i and vals[x] != -1:
                        post(Collision(KIND_VERTEX, t, min(i, j), v, max(i, j)), vm, out)
                if self.occupancy:
                    for m, u, e in into[s]:
                        if m != i and vals[e] != -1:
                            post(Collision(KIND_OCCUPANCY, t, m, v, i, u), vm, out)
            elif kind == E_TRUE:
                u, a, b = event[5:]
                if self.occupancy:
                    for j, x in vars_[s]:
                        if j != i and vals[x] != -1:
                            post(Collision(KIND_OCCUPANCY, t, i, v, j, u), vm, out)
                elif self.swap:
                    if self._open(vars_[b], i):
                        post(Collision(KIND_SWAP, t, i, v, None, u), vm, out)
                elif self.rot:
                    for j, e in vars_[b]:
                        if j != i and vals[e] != -1:
                            post(Collision(KIND_ROT, t, i, v, j, u) if i < j
                                 else Collision(KIND_ROT, t, j, u, i, v), vm, out)
                if self.empty and self._open(vars_[s], i):
                    post(Collision(KIND_EMPTY, t, i, v, None, u), vm, out)
            elif kind == X_FALSE:  # a possible occupant of an entered vertex
                for m, u, e in into[s]:
                    if m != i and vals[e] == 1 and self._open(vars_[s], m):
                        post(Collision(KIND_EMPTY, t, m, v, None, u), vm, out)
            else:  # E_FALSE: E(i, u, v, t) answers every move v->u
                u, a, b = event[5:]
                for m, e in vars_[b]:
                    if m != i and vals[e] == 1 and self._open(vars_[a], m):
                        post(Collision(KIND_SWAP, t, m, u, None, v), vm, out)
        return out

    def _post(self, rec: Collision, vm, out: list) -> None:
        if rec in self.records:
            return  # found twice in one check
        clause = clause_for_record(rec, vm)
        if clause is None:
            raise RuntimeError(f"refinement stalled: no clause for {rec}")
        self.records.add(rec)
        self.stats.refinements += 1
        out.append(self.session.post(rec, clause))


def _bound_loop(inst: Instance, timeout, algorithm: str, encode, sat,
                refine: bool) -> SolveResult:
    """Raise the cost bound xi from the lower bound until the formula
    encode(xi, sorted records, deadline, session) yields a plan without
    collisions.

    sat(formula, budget) answers each formula from scratch; with sat None one
    SatSolver and one Session answer the whole solve, one bound at a time,
    and a CollisionTheory refines inside the search, so each bound is one
    solve call. With refine off, or with the theory, every plan must be
    collision-free; with refine on and an external sat the records of a
    plan's collisions are kept, their clauses added, and the bound solved
    again.
    """
    stats = SolveStats(algorithm=algorithm)
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    try:
        cap = search_cap(inst, deadline)
    except TimeoutError:
        return finish(stats, t0, STATUS_TIMEOUT)
    if cap is None:
        return finish(stats, t0, STATUS_UNSOLVABLE)
    records: set[Collision] = set()
    session = solver = None
    if sat is None:
        session, solver = Session(), satmod.SatSolver()
        solver.theory = theory = CollisionTheory(inst, session, records, stats, solver.vals)
    for xi in range(lower_bound(inst), cap + 1):
        try:
            if solver is not None:
                solver.simplify(session.spent)  # retire the last bound
            formula, vm = encode(xi, sorted(records), deadline, session)
            if solver is not None:
                solver.add_clauses(formula.num_vars, formula.clauses, deadline)
                theory.extend(vm, formula.num_vars)
        except TimeoutError:
            return finish(stats, t0, STATUS_TIMEOUT)
        stats.clauses = len(formula.clauses) if session is None else session.live
        stats.variables = formula.num_vars
        while True:
            budget = None if deadline is None else deadline - time.monotonic()
            if budget is not None and budget <= 0:
                return finish(stats, t0, STATUS_TIMEOUT)
            t1 = time.monotonic()
            # no model replay for the internal solver: satisfying assignments
            # are checked by plan extraction and validation
            model = (sat(formula, budget) if solver is None
                     else solver.solve(deadline, [-session.guard]))
            stats.sat_time += time.monotonic() - t1
            stats.sat_calls += 1
            if session is not None:
                stats.clauses = session.live  # with the theory's clauses
            if model == "TIMEOUT":
                return finish(stats, t0, STATUS_TIMEOUT)
            if model == "UNSAT":
                break
            plan = extract_plan(vm, model)
            if plan.cost > xi:
                raise satmod.SatError(
                    f"SAT backend returned a plan of cost {plan.cost} for bound {xi}"
                )
            collisions = validate(inst, plan)
            if not collisions:
                return finish(stats, t0, STATUS_SOLVED, plan)
            if not refine:
                raise RuntimeError(f"full encoding produced invalid plan: {collisions[0]}")
            if solver is not None:
                raise RuntimeError(f"the collision theory passed a plan with {collisions[0]}")
            added = 0
            for rec in sorted({record_from_collision(c) for c in collisions}):
                if rec in records:
                    # its clause is posted and satisfied, e.g. a swap answered
                    # by an item that itself collides; distinct records ground
                    # to distinct clauses, so a new record adds a new clause
                    continue
                records.add(rec)
                clause = clause_for_record(rec, vm)
                if clause is None:
                    continue
                formula.add_clause(clause)
                added += 1
            if added == 0:
                raise RuntimeError(
                    "refinement stalled: every collision clause already present"
                )
            stats.refinements += added
            stats.clauses = len(formula.clauses)
        # free this bound's formula before the next is encoded
        formula = vm = None
    return finish(stats, t0, STATUS_LIMIT)


def mdd_sat_solve(inst: Instance, timeout: float | None = None,
                  sat=None) -> SolveResult:
    """Optimal solve by eager encoding of increasing cost bounds."""
    return _bound_loop(inst, timeout, "mddsat",
                       lambda xi, _, deadline, __: encode_full(inst, xi, deadline=deadline),
                       sat or satmod.solve, refine=False)


def smt_cbs_solve(inst: Instance, timeout: float | None = None,
                  sat=None) -> SolveResult:
    """Optimal solve by lazy encoding with collision-driven refinement.

    With the internal solver the whole solve is one Session on one
    incremental SatSolver whose CollisionTheory refines inside the search;
    an external sat callable re-solves the accumulated formula of the bound
    from scratch after every validation-driven refinement.
    """
    return _bound_loop(inst, timeout, "smtcbs",
                       lambda xi, records, deadline, session:
                       encode_basic(inst, xi, records, deadline, session),
                       sat, refine=True)
