"""Propositional machinery: CNF container, CDCL solver, DIMACS round-trip.

Literals follow the DIMACS convention: nonzero ints, variable index v > 0,
-v for negation. The built-in solver does watched-literal unit propagation,
1UIP clause learning, VSIDS-style activities, phase saving and Luby restarts.
It is deterministic and adequate for desk-scale formulas; external solvers
can be plugged in through the DIMACS contract.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from itertools import chain, compress, count, islice
from operator import neg


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
        self.add_clauses([list(lits)])

    def add_clauses(self, batch: list[list[int]]) -> None:
        """Append a list of clauses, taken over without copying. A literal 0
        or over an unallocated variable raises SatError and appends nothing."""
        lits = list(chain.from_iterable(batch))
        n = self.num_vars
        if 0 in lits or max(lits, default=0) > n or min(lits, default=0) < -n:
            bad = next(lit for lit in lits if lit == 0 or abs(lit) > n)
            raise SatError(f"literal {bad} references an unallocated variable")
        self.clauses += batch

    def check_model(self, model: dict[int, bool]) -> bool:
        """True when model assigns every variable and satisfies every clause."""
        try:
            true = {v if model[v] else -v for v in range(1, self.num_vars + 1)}
        except KeyError:
            return False
        return not any(map(true.isdisjoint, self.clauses))


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
    equivalent to solving the accumulated formula from scratch.

    SatSolver(num_vars, clauses) loads a clause list in bulk. It leaves the
    state a loop of add_clause calls leaves on the fresh solver, and keeps
    its own copy of every clause; add_clauses loads more at level 0, and
    simplify retires the clauses of an activation literal's negation.

    Per-literal state is indexed by the literal itself: entry lit for
    lit > 0 and Python's negative indexing for lit < 0, so entry 0 is unused
    and a list for n variables has 2n + 1 entries.
    """

    def __init__(self, num_vars: int = 0, clauses=(), deadline=None):
        self.num_vars = 0
        self.clauses: list[list[int]] = []  # original + learned
        self.is_learned: list[bool] = []
        self.n_learned = 0
        self.vals: list[int] = [0]  # by literal: 1 true, -1 false, 0 free
        # by literal: the clauses to visit when that literal becomes true,
        # i.e. those watching its negation
        self.watches: list[list[int]] = [[]]
        self.level: list[int] = [0]  # by variable, like the lists below
        self.reason: list[int] = [-1]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.order: list[tuple[float, int]] = []  # lazy max-heap on activity
        # by variable: order holds an entry with the variable's current
        # activity, so a backtrack need not queue it again
        self._queued: list[bool] = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.unsat = False
        self.conflicts_total = 0
        self._seen: list[bool] = [False]
        self._units: list[int] = []
        self._assumed: list[int] = []  # the assumptions the trail was built under
        self.ensure_vars(num_vars)
        self._load(clauses, deadline)

    def ensure_vars(self, n: int) -> None:
        old = self.num_vars
        if n <= old:
            return
        d = n - old
        self.num_vars = n
        # new positive literals go after the old ones, new negative ones
        # before theirs, so every old literal keeps its entry
        self.vals[old + 1:old + 1] = [0] * (2 * d)
        self.watches[old + 1:old + 1] = [[] for _ in range(2 * d)]
        self.level += [0] * d
        self.reason += [-1] * d
        self.phase += [False] * d
        self.activity += [0.0] * d
        self._seen += [False] * d
        self._queued += [True] * d
        # no queued entry is larger than (0.0, v) for a new v, so appending
        # them in order keeps the heap property
        self.order += [(0.0, v) for v in range(old + 1, n + 1)]

    def add_clauses(self, num_vars: int, clauses, deadline=None) -> None:
        """Bulk add_clause at level 0 of clauses over distinct variables each;
        the next solve() propagates level 0 again."""
        self._backtrack(0)
        self.qhead = 0
        self.ensure_vars(num_vars)
        self._load(clauses, deadline, distinct=True)

    def _load(self, clauses, deadline=None, distinct=False) -> None:
        """Bulk add_clause at level 0: skip tautologies and drop duplicate
        literals (unless distinct), queue units, watch the first two literals.
        The deadline is checked every 4,096 clauses; past it, TimeoutError."""
        units = self._units
        long = []
        clauses = iter(clauses)
        while chunk := list(islice(clauses, 4096)):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("clause loading ran past its deadline")
            for lits in chunk:
                if not distinct and len(set(map(abs, lits))) < len(lits):
                    # a repeated variable: a tautology or a duplicate literal
                    if not set(lits).isdisjoint(map(neg, lits)):
                        continue
                    lits = list(dict.fromkeys(lits))
                else:
                    lits = list(lits)
                if len(lits) > 1:
                    long.append(lits)
                elif lits:
                    units.append(lits[0])
                else:
                    self.unsat = True
        self.ensure_vars(max(map(abs, chain(units, *long)), default=0))
        watches = self.watches
        for ci, lits in enumerate(long, len(self.clauses)):
            watches[-lits[0]].append(ci)
            watches[-lits[1]].append(ci)
        self.clauses += long
        self.is_learned += [False] * len(long)

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
        if not lits:
            self.unsat = True
            return
        self.ensure_vars(max(map(abs, lits)))
        if len(lits) == 1:
            self._backtrack(0)
            self.qhead = 0
            self._units.append(lits[0])
            return
        vals = self.vals
        # unwind while the clause is falsified outright
        while True:
            false_lits = [l for l in lits if vals[l] == -1]
            if len(false_lits) < len(lits):
                break
            top = max(self.level[abs(l)] for l in false_lits)
            if top == 0:
                self.unsat = True
                return
            self._backtrack(top - 1)
        nonfalse = [l for l in lits if vals[l] != -1]
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
        false_lits = [l for l in lits if vals[l] == -1]
        top_lit = max(false_lits, key=lambda l: self.level[abs(l)])
        if vals[ell] != 1:
            self._backtrack(self.level[abs(top_lit)])
        lits.remove(ell)
        lits.remove(top_lit)
        lits[:0] = [ell, top_lit]
        ci = self._attach(lits)
        if vals[ell] == 0:
            self._enqueue(ell, ci)

    def _attach(self, lits: list[int], learned: bool = False) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.is_learned.append(learned)
        if learned:
            self.n_learned += 1
        self.watches[-lits[0]].append(ci)
        self.watches[-lits[1]].append(ci)
        return ci

    def _reduce_db(self) -> None:
        """Drop the older half of long learned clauses (call at level 0)."""
        long_idx = [ci for ci, clause in enumerate(self.clauses)
                    if self.is_learned[ci] and len(clause) > 3]
        drop = set(long_idx[: len(long_idx) // 2])
        self._keep([ci for ci in range(len(self.clauses)) if ci not in drop])

    def simplify(self, units=()) -> None:
        """Assert units at level 0 and drop every clause level 0 satisfies."""
        self._backtrack(0)
        for lit in units:
            self._enqueue(lit, -1)
        self._keep(list(compress(count(), map(set(self.trail).isdisjoint, self.clauses))))

    def _keep(self, kept: list[int]) -> None:
        """Keep the clauses of the ascending indices kept, each watched by
        its first two literals (call at level 0)."""
        self.clauses = list(map(self.clauses.__getitem__, kept))
        self.is_learned = list(map(self.is_learned.__getitem__, kept))
        self.n_learned = sum(self.is_learned)
        self.watches = watches = [[] for _ in self.watches]
        for ci, clause in enumerate(self.clauses):
            watches[-clause[0]].append(ci)
            watches[-clause[1]].append(ci)
        self.reason[1:] = [-1] * self.num_vars  # only level-0 assignments remain
        self.qhead = 0

    def _enqueue(self, lit: int, reason: int) -> bool:
        vals = self.vals
        if vals[lit]:
            return vals[lit] == 1
        v = abs(lit)
        vals[lit] = 1
        vals[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Return index of a conflicting clause, or -1."""
        trail = self.trail
        clauses = self.clauses
        watches = self.watches
        vals = self.vals
        level = self.level
        reason = self.reason
        phase = self.phase
        depth = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            watch = watches[lit]
            j = 0  # watch[:j] holds the clauses that keep watching -lit
            unvisited = iter(watch)
            for ci in unvisited:
                clause = clauses[ci]
                # ensure the false literal sits at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if vals[first] == 1:
                    watch[j] = ci
                    j += 1
                    continue
                for p in range(2, len(clause)):
                    q = clause[p]
                    if vals[q] != -1:
                        clause[p] = clause[1]
                        clause[1] = q
                        watches[-q].append(ci)
                        break
                else:
                    watch[j] = ci
                    j += 1
                    if vals[first]:  # false: the clause is in conflict
                        watch[j:] = list(unvisited)
                        self.qhead = qhead
                        return ci
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = depth
                    reason[v] = ci
                    phase[v] = first > 0
                    trail.append(first)
            del watch[j:]
        self.qhead = qhead
        return -1

    def _rescale(self) -> None:
        for i in range(1, self.num_vars + 1):
            self.activity[i] *= 1e-100
        self.var_inc *= 1e-100
        self.order = [(-self.activity[i], i) for i in range(1, self.num_vars + 1)]
        heapify(self.order)
        self._queued[1:] = [True] * self.num_vars

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        clauses = self.clauses
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        order = self.order
        queued = self._queued
        var_inc = self.var_inc
        learnt = [0]
        seen = self._seen
        touched = []
        counter = 0
        lit = 0
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        lits = clauses[confl]
        while True:
            for q in lits:
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    touched.append(v)
                    a = activity[v] + var_inc
                    activity[v] = a
                    if a > 1e100:
                        self._rescale()
                        order = self.order
                        var_inc = self.var_inc
                    else:
                        heappush(order, (-a, v))
                        queued[v] = True
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[index])]:
                index -= 1
            lit = trail[index]
            v = abs(lit)
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            # treat the implied literal as resolved away
            clause = clauses[reason[v]]
            if clause[0] != lit:
                # reason clause stores the implied literal first by convention
                for p, q in enumerate(clause):
                    if q == lit:
                        clause[0], clause[p] = clause[p], clause[0]
                        break
            lits = clause[1:]
        learnt[0] = -lit
        # self-subsumption: drop literals whose reason lies inside the clause
        kept = [learnt[0]]
        for q in learnt[1:]:
            v = abs(q)
            r = reason[v]
            if r == -1:
                kept.append(q)
                continue
            for other in clauses[r]:
                w = abs(other)
                if w != v and not seen[w] and level[w] > 0:
                    kept.append(q)
                    break
        learnt = kept
        for v in touched:
            seen[v] = False
        if len(learnt) == 1:
            bt = 0
        else:
            # highest decision level among the non-asserting literals
            bt = max(level[abs(q)] for q in learnt[1:])
            # move a literal of that level into watch position 1
            for p in range(1, len(learnt)):
                if level[abs(learnt[p])] == bt:
                    learnt[1], learnt[p] = learnt[p], learnt[1]
                    break
        return learnt, bt

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        vals = self.vals
        activity = self.activity
        order = self.order
        queued = self._queued
        for lit in self.trail[bound:]:
            vals[lit] = 0
            vals[-lit] = 0
            v = lit if lit > 0 else -lit
            if not queued[v]:
                queued[v] = True
                heappush(order, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int:
        # lazy heap: stale entries are skipped on pop. Every free variable
        # keeps one entry with its current activity, so the pick is the free
        # variable of highest activity, the lowest index among equals.
        order = self.order
        vals = self.vals
        activity = self.activity
        while order:
            act, v = order[0]
            if -act != activity[v]:
                heappop(order)
            elif vals[v] != 0:
                heappop(order)
                self._queued[v] = False
            else:
                return v if self.phase[v] else -v
        return 0

    def solve(self, deadline: float | None = None, assumptions=()):
        """Return a model dict {var: bool}, "UNSAT", or "TIMEOUT".

        Assumptions are decided first, one per level (MiniSat); "UNSAT" is
        then under them, and only a conflict at level 0 sets unsat for good.
        The deadline is checked at every conflict and every 64th decision.
        """
        if self.unsat:
            return "UNSAT"
        assumptions = list(assumptions)
        if assumptions != self._assumed:
            self._backtrack(0)
            self._assumed = assumptions
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
        decisions = 0
        while True:
            confl = self._propagate()
            if confl != -1:
                self.conflicts_total += 1
                conflicts_until_restart -= 1
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
                if assumptions and len(self.trail_lim) < len(assumptions):
                    lit = assumptions[len(self.trail_lim)]
                    if self.vals[lit] == -1:
                        self._backtrack(0)
                        return "UNSAT"
                    if self.vals[lit] == 1:
                        # an empty level keeps level d + 1 on assumption d
                        self.trail_lim.append(len(self.trail))
                        continue
                else:
                    lit = self._decide()
                    if lit == 0:
                        # keep the trail: incremental callers add clauses against
                        # this model and resume from the surviving prefix
                        vals = self.vals
                        return {v: vals[v] == 1 for v in range(1, self.num_vars + 1)}
                    decisions += 1
                    if (not decisions & 63 and deadline is not None
                            and time.monotonic() > deadline):
                        self._backtrack(0)
                        return "TIMEOUT"
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, -1)


def solve(f: CnfFormula, timeout: float | None = None):
    """One-shot satisfiability check of a formula.

    Returns a model dict, "UNSAT", or "TIMEOUT". The timeout covers loading
    the clauses as well as the search. Every returned model is replayed
    against the clause list before being handed out.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        s = SatSolver(f.num_vars, f.clauses, deadline)
    except TimeoutError:
        return "TIMEOUT"
    if s.unsat:
        return "UNSAT"
    if deadline is not None and time.monotonic() > deadline:
        return "TIMEOUT"
    result = s.solve(deadline)
    if isinstance(result, dict):
        if not f.check_model(result):
            raise SatError("solver returned a non-model (internal bug)")
    return result
