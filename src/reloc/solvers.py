"""SAT-based optimal solvers: eager full encoding and lazy refinement.

Both search the sum-of-costs axis: starting at the sum of single-item
shortest settle times, each candidate xi is tested for a solution of cost
<= xi, so the first satisfiable bound is optimal.

mdd_sat_solve tests each xi with the complete encoding. smt_cbs_solve tests
each xi with the relaxed encoding plus the conflict clauses learned so far,
validates satisfying assignments against the movement rules, and adds the
clauses of all violated rules before re-solving; an unsatisfiable relaxation
is a proof that the full encoding is unsatisfiable too, so the bound can be
raised. Conflict records persist across bounds and are re-grounded against
the new variable layout.

Both drivers ground collisions through the encoder's one clause builder per
record kind: encode_full grounds every record of the variant's rule before
the search, smt_cbs_solve only the records of collisions it observed.
"""

from __future__ import annotations

import time

from .cbs import search_cap
from .encoder import (
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


def _climb(inst: Instance, timeout, stats: SolveStats, test_bound) -> SolveResult:
    """Raise the cost bound from the lower bound until test_bound(xi,
    deadline) returns a plan; it may also return "UNSAT" or "TIMEOUT"."""
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    cap = search_cap(inst)
    if cap is None:
        return finish(stats, t0, STATUS_UNSOLVABLE)
    xi = lower_bound(inst)
    while xi <= cap:
        outcome = test_bound(xi, deadline)
        if outcome == "TIMEOUT":
            return finish(stats, t0, STATUS_TIMEOUT)
        if outcome != "UNSAT":
            return finish(stats, t0, STATUS_SOLVED, outcome)
        xi += 1
    return finish(stats, t0, STATUS_LIMIT)


def _sat_call(stats: SolveStats, solve, deadline):
    """solve(budget) timed into stats, or "TIMEOUT" when no time is left."""
    budget = None if deadline is None else deadline - time.monotonic()
    if budget is not None and budget <= 0:
        return "TIMEOUT"
    t1 = time.monotonic()
    model = solve(budget)
    stats.sat_time += time.monotonic() - t1
    stats.sat_calls += 1
    return model


def mdd_sat_solve(inst: Instance, timeout: float | None = None,
                  sat=None) -> SolveResult:
    """Optimal solve by eager encoding of increasing cost bounds."""
    sat = sat or satmod.solve
    stats = SolveStats(algorithm="mddsat")

    def test_bound(xi, deadline):
        formula, vm = encode_full(inst, xi)
        stats.clauses = len(formula.clauses)
        stats.variables = formula.num_vars
        model = _sat_call(stats, lambda budget: sat(formula, budget), deadline)
        if not isinstance(model, dict):
            return model
        plan = extract_plan(vm, model)
        residual = validate(inst, plan)
        if residual:
            raise RuntimeError(f"full encoding produced invalid plan: {residual[0]}")
        return plan

    return _climb(inst, timeout, stats, test_bound)


def smt_cbs_solve(inst: Instance, timeout: float | None = None,
                  sat=None) -> SolveResult:
    """Optimal solve by lazy encoding with validation-driven refinement.

    With the internal solver each bound keeps one incremental SatSolver
    across refinements; an external sat callable re-solves the accumulated
    formula from scratch after every refinement.
    """
    stats = SolveStats(algorithm="smtcbs")
    records: set[Collision] = set()

    def test_bound(xi, deadline):
        formula, vm = encode_basic(inst, xi, sorted(records))
        stats.clauses = len(formula.clauses)
        stats.variables = formula.num_vars
        # clause-level duplicate guard for this bound
        emitted = {tuple(sorted(c)) for c in formula.clauses}
        if len(emitted) != len(formula.clauses):
            raise RuntimeError("duplicate clause in initial lazy encoding")
        solver = None
        if sat is None:
            solver = satmod.SatSolver(formula.num_vars, formula.clauses)

        def solve(budget):
            # no model replay for the internal solver: satisfying assignments
            # are checked by plan extraction and validation
            return sat(formula, budget) if solver is None else solver.solve(deadline)

        while True:
            model = _sat_call(stats, solve, deadline)
            if not isinstance(model, dict):
                return model
            plan = extract_plan(vm, model)
            collisions = validate(inst, plan)
            if not collisions:
                return plan
            new_recs = sorted({record_from_collision(c) for c in collisions})
            added = 0
            for rec in new_recs:
                records.add(rec)
                clause = clause_for_record(rec, vm)
                if clause is None:
                    continue
                key = tuple(sorted(clause))
                if key in emitted:
                    # a colliding pair can re-trigger a record whose clause is
                    # already satisfied (e.g. a swap reciprocated by an item
                    # that itself collides); some other record of this round
                    # always yields a fresh clause
                    continue
                emitted.add(key)
                formula.add_clause(clause)
                if solver is not None:
                    solver.add_clause(clause)
                added += 1
            if added == 0:
                raise RuntimeError(
                    "refinement stalled: every collision clause already present"
                )
            stats.refinements += added
            stats.clauses = len(formula.clauses)

    return _climb(inst, timeout, stats, test_bound)
