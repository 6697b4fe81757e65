"""SAT-based optimal solvers: eager full encoding and lazy refinement.

Both are one bound loop: starting at the sum of single-item shortest settle
times, each candidate xi is tested for a solution of cost <= xi, so the first
satisfiable bound is optimal. They differ only in when collision clauses are
posted.

mdd_sat_solve posts all of them up front: encode_full grounds the records of
the variant's whole rule (encoder.rule_records), and each bound is one
one-shot SAT call whose plan must be collision-free. smt_cbs_solve posts one
only after a plan breaks it: each bound starts from the relaxed encoding plus
the records learned so far, validates satisfying assignments against the
movement rules, and adds the clauses of all violated rules before re-solving.
An unsatisfiable relaxation is a proof that the full encoding is unsatisfiable
too, so the bound can be raised. Records persist across bounds. Both ground
records through the same clause_for_record, the encoder's one clause builder
per record kind.

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
from .relocation import Collision, Instance, validate
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


def _bound_loop(inst: Instance, timeout, algorithm: str, encode, sat,
                refine: bool) -> SolveResult:
    """Raise the cost bound xi from the lower bound until the formula
    encode(xi, sorted records, deadline, session) yields a plan without
    collisions.

    sat(formula, budget) answers each formula from scratch; with sat None one
    SatSolver and one Session answer the whole solve, one bound at a time.
    With refine off every plan must be collision-free; with it on the records
    of a plan's collisions are kept, their clauses added, and the bound solved
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
    session, solver = (Session(), satmod.SatSolver()) if sat is None else (None, None)
    for xi in range(lower_bound(inst), cap + 1):
        try:
            if solver is not None:
                solver.simplify(session.spent)  # retire the last bound
            formula, vm = encode(xi, sorted(records), deadline, session)
            if solver is not None:
                solver.add_clauses(formula.num_vars, formula.clauses, deadline)
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
                if solver is not None:
                    solver.add_clause(session.post(rec, clause))
                added += 1
            if added == 0:
                raise RuntimeError(
                    "refinement stalled: every collision clause already present"
                )
            stats.refinements += added
            stats.clauses = len(formula.clauses) if session is None else session.live
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
    """Optimal solve by lazy encoding with validation-driven refinement.

    With the internal solver the whole solve is one Session on one
    incremental SatSolver; an external sat callable re-solves the
    accumulated formula of the bound from scratch after every refinement.
    """
    return _bound_loop(inst, timeout, "smtcbs",
                       lambda xi, records, deadline, session:
                       encode_basic(inst, xi, records, deadline, session),
                       sat, refine=True)
