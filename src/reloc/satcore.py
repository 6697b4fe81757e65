"""Propositional machinery: CNF container, CDCL solver, DIMACS round-trip.

Literals follow the DIMACS convention: nonzero ints, variable index v > 0,
-v for negation. The built-in solver does watched-literal unit propagation,
1UIP clause learning, VSIDS-style activities, phase saving and Luby restarts.
It is deterministic and adequate for desk-scale formulas; external solvers
can be plugged in through the DIMACS contract.
"""

from __future__ import annotations

import heapq
import time


class SatError(Exception):
    pass


class CnfFormula:
    """Variable pool plus clause list."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        lits = list(lits)
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SatError(f"literal {lit} references an unallocated variable")
        self.clauses.append(lits)

    def check_model(self, model: dict[int, bool]) -> bool:
        return all(
            any(model[abs(l)] == (l > 0) for l in clause) for clause in self.clauses
        )


def to_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CnfFormula:
    f = CnfFormula()
    declared_clauses = None
    current: list[int] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if declared_clauses is not None:
                raise SatError(f"line {ln}: duplicate problem header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"line {ln}: malformed header {line!r}")
            try:
                f.num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise SatError(f"line {ln}: malformed header {line!r}") from None
            continue
        if declared_clauses is None:
            raise SatError(f"line {ln}: clause before problem header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise SatError(f"line {ln}: bad literal {tok!r}") from None
            if lit == 0:
                f.clauses.append(current)
                current = []
            else:
                if abs(lit) > f.num_vars:
                    raise SatError(
                        f"line {ln}: variable {abs(lit)} exceeds declared {f.num_vars}"
                    )
                current.append(lit)
    if current:
        raise SatError("unterminated final clause")
    if declared_clauses is None:
        raise SatError("missing problem header")
    if len(f.clauses) != declared_clauses:
        raise SatError(
            f"declared {declared_clauses} clauses, found {len(f.clauses)}"
        )
    return f


def _luby(x: int) -> int:
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """Incremental CDCL solver. Clauses may be added between solve() calls;
    learned clauses are kept, so repeated solving over a growing formula is
    equivalent to solving the accumulated formula from scratch."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        self.clauses: list[list[int]] = []  # original + learned
        self.is_learned: list[bool] = []
        self.n_learned = 0
        self.watches: list[list[int]] = [[], []]  # indexed by literal code
        self.assign: list[int] = [0]  # 1 true, -1 false, 0 free; 1-based
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.order: list[tuple[float, int]] = []  # lazy max-heap on activity
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.unsat = False
        self.conflicts_total = 0
        self._seen: list[bool] = [False]
        self._units: list[int] = []
        self.ensure_vars(num_vars)

    # literal code: var v -> 2v (positive) / 2v+1 (negative)
    @staticmethod
    def _code(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.num_vars += 1
            self.assign.append(0)
            self.level.append(0)
            self.reason.append(-1)
            self.phase.append(False)
            self.activity.append(0.0)
            self.watches.append([])
            self.watches.append([])
            self._seen.append(False)
            heapq.heappush(self.order, (0.0, self.num_vars))

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits) -> None:
        """Add a clause; an empty clause makes the solver permanently UNSAT.

        Safe to call between solve() calls with the trail still assigned
        (incremental use): the trail is unwound just far enough to keep the
        watched-literal invariants, so the next solve() continues from the
        surviving prefix instead of from scratch.
        """
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        lits = out
        for lit in lits:
            self.ensure_vars(abs(lit))
        if not lits:
            self.unsat = True
            return
        if len(lits) == 1:
            self._backtrack(0)
            self.qhead = 0
            self._units.append(lits[0])
            return
        # unwind while the clause is falsified outright
        while True:
            false_lits = [l for l in lits if self.value(l) == -1]
            if len(false_lits) < len(lits):
                break
            top = max(self.level[abs(l)] for l in false_lits)
            if top == 0:
                self.unsat = True
                return
            self._backtrack(top - 1)
        nonfalse = [l for l in lits if self.value(l) != -1]
        if len(nonfalse) >= 2:
            a, b = nonfalse[0], nonfalse[1]
            lits.remove(a)
            lits.remove(b)
            lits[:0] = [a, b]
            self._attach(lits)
            return
        # exactly one non-false literal: the clause propagates it; keep every
        # false literal assigned no deeper than the propagation level
        ell = nonfalse[0]
        false_lits = [l for l in lits if self.value(l) == -1]
        top_lit = max(false_lits, key=lambda l: self.level[abs(l)])
        if self.value(ell) != 1:
            self._backtrack(self.level[abs(top_lit)])
        lits.remove(ell)
        lits.remove(top_lit)
        lits[:0] = [ell, top_lit]
        ci = self._attach(lits)
        if self.value(ell) == 0:
            self._enqueue(ell, ci)

    def _attach(self, lits: list[int], learned: bool = False) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.is_learned.append(learned)
        if learned:
            self.n_learned += 1
        self.watches[self._code(-lits[0])].append(ci)
        self.watches[self._code(-lits[1])].append(ci)
        return ci

    def _reduce_db(self) -> None:
        """Drop the older half of long learned clauses (call at level 0)."""
        long_idx = [
            ci
            for ci, clause in enumerate(self.clauses)
            if self.is_learned[ci] and len(clause) > 3
        ]
        drop = set(long_idx[: len(long_idx) // 2])
        clauses = []
        flags = []
        for ci, clause in enumerate(self.clauses):
            if ci not in drop:
                clauses.append(clause)
                flags.append(self.is_learned[ci])
        self.clauses = clauses
        self.is_learned = flags
        self.n_learned = sum(flags)
        for code in range(2, len(self.watches)):
            self.watches[code] = []
        for ci, clause in enumerate(self.clauses):
            self.watches[self._code(-clause[0])].append(ci)
            self.watches[self._code(-clause[1])].append(ci)
        for v in range(1, self.num_vars + 1):
            self.reason[v] = -1  # only level-0 assignments remain
        self.qhead = 0

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = abs(lit)
        val = self.value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Return index of a conflicting clause, or -1."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            code = self._code(lit)
            watch = self.watches[code]
            i = 0
            j = 0
            n = len(watch)
            while i < n:
                ci = watch[i]
                i += 1
                clause = self.clauses[ci]
                # ensure the false literal sits at position 1
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self.value(first) == 1:
                    watch[j] = ci
                    j += 1
                    continue
                moved = False
                for p in range(2, len(clause)):
                    if self.value(clause[p]) != -1:
                        clause[1], clause[p] = clause[p], clause[1]
                        self.watches[self._code(-clause[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                watch[j] = ci
                j += 1
                if not self._enqueue(first, ci):
                    while i < n:
                        watch[j] = watch[i]
                        j += 1
                        i += 1
                    del watch[j:]
                    return ci
            del watch[j:]
        return -1

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.num_vars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self.order = [(-self.activity[i], i) for i in range(1, self.num_vars + 1)]
            heapq.heapify(self.order)
        else:
            heapq.heappush(self.order, (-self.activity[v], v))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt = [0]
        seen = self._seen
        touched = []
        counter = 0
        lit = 0
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        first = True
        while True:
            clause = self.clauses[confl]
            start = 0 if first else 1
            for q in clause[start:] if not first else clause:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    touched.append(v)
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            first = False
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            v = abs(lit)
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            confl = self.reason[v]
            # treat the implied literal as resolved away
            clause = self.clauses[confl]
            if clause[0] != lit:
                # reason clause stores the implied literal first by convention
                for p, q in enumerate(clause):
                    if q == lit:
                        clause[0], clause[p] = clause[p], clause[0]
                        break
        learnt[0] = -lit
        # self-subsumption: drop literals whose reason lies inside the clause
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = self.reason[abs(q)]
            if r == -1:
                kept.append(q)
                continue
            if any(
                abs(other) != abs(q) and not seen[abs(other)] and self.level[abs(other)] > 0
                for other in self.clauses[r]
            ):
                kept.append(q)
        learnt = kept
        for v in touched:
            seen[v] = False
        if len(learnt) == 1:
            bt = 0
        else:
            # second-highest decision level among learnt literals
            levels = sorted((self.level[abs(q)] for q in learnt[1:]), reverse=True)
            bt = levels[0]
            # move a literal of that level into watch position 1
            for p in range(1, len(learnt)):
                if self.level[abs(learnt[p])] == bt:
                    learnt[1], learnt[p] = learnt[p], learnt[1]
                    break
        return learnt, bt

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for lit in self.trail[bound:]:
            v = abs(lit)
            self.assign[v] = 0
            heapq.heappush(self.order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        # lazy heap: stale entries are skipped on pop
        while self.order:
            act, v = self.order[0]
            if self.assign[v] != 0 or -act != self.activity[v]:
                heapq.heappop(self.order)
                continue
            return v if self.phase[v] else -v
        return 0

    def solve(self, deadline: float | None = None):
        """Return a model dict {var: bool}, "UNSAT", or "TIMEOUT"."""
        if self.unsat:
            return "UNSAT"
        if self._units:
            self._backtrack(0)
            self.qhead = 0
            while self._units:
                lit = self._units.pop()
                if not self._enqueue(lit, -1):
                    self.unsat = True
                    return "UNSAT"

        restart_idx = 0
        conflicts_until_restart = 100 * _luby(0)
        conflicts_since_check = 0
        while True:
            confl = self._propagate()
            if confl != -1:
                self.conflicts_total += 1
                conflicts_until_restart -= 1
                conflicts_since_check += 1
                if conflicts_since_check >= 512:
                    conflicts_since_check = 0
                    if deadline is not None and time.monotonic() > deadline:
                        self._backtrack(0)
                        return "TIMEOUT"
                if not self.trail_lim:
                    self.unsat = True
                    return "UNSAT"
                learnt, bt = self._analyze(confl)
                self._backtrack(bt)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        self.unsat = True
                        return "UNSAT"
                else:
                    ci = self._attach(learnt, learned=True)
                    self._enqueue(learnt[0], ci)
                self.var_inc /= 0.95
            else:
                if conflicts_until_restart <= 0:
                    restart_idx += 1
                    conflicts_until_restart = 100 * _luby(restart_idx)
                    self._backtrack(0)
                    if self.n_learned > 8000 + 2 * (len(self.clauses) - self.n_learned):
                        self._reduce_db()
                    continue
                lit = self._decide()
                if lit == 0:
                    # keep the trail: incremental callers add clauses against
                    # this model and resume from the surviving prefix
                    return {
                        v: self.assign[v] == 1 for v in range(1, self.num_vars + 1)
                    }
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, -1)


def solve(f: CnfFormula, timeout: float | None = None):
    """One-shot satisfiability check of a formula.

    Returns a model dict, "UNSAT", or "TIMEOUT". Every returned model is
    replayed against the clause list before being handed out.
    """
    s = SatSolver(f.num_vars)
    for clause in f.clauses:
        if not clause:
            return "UNSAT"
        s.add_clause(clause)
    deadline = None if timeout is None else time.monotonic() + timeout
    result = s.solve(deadline)
    if isinstance(result, dict):
        if not f.check_model(result):
            raise SatError("solver returned a non-model (internal bug)")
    return result
