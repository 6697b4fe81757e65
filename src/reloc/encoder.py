"""Propositional encodings of bounded-cost relocation.

Time expansion: for a target sum-of-costs xi, each item i gets a layered
decision diagram over times 0..mu, where mu = max_i d_i + delta with
d_i the (effective) start-goal distance and delta = xi - sum_i d_i the
total slack. Level t of item i holds exactly the vertices v from which a
plan of individual cost <= d_i + delta is still possible:

    V_i^t = {v : dist(s_i, v) <= t  and  t + dist(v, g_i) <= d_i + delta}
            united with {g_i} when t >= d_i   (resting at the goal)

so build_mdd places each v of the ellipse dist(s_i, v) + dist(g_i, v) <= d_i +
delta once, on the levels dist(s_i, v) .. d_i + delta - dist(g_i, v), reading
only the distance rows of s_i and g_i (effective adjacency is symmetric).

Variables: X(i,v,t) "item i at v at time t", E(i,u,v,t) "item i traverses
arc u->v between t and t+1" (u == v is the wait arc), U(i,t) "item i is
still unsettled at time t" for t in [d_i, d_i + delta). VarMap numbers them
consecutively, item by item the X variables level by level in vertex order,
then the E variables level by level in arc order, and after the last item
the U variables item by item. Its tables are one dict per item and level,
xs[i][t] from vertex to X and es[i][t] from arc (u, v) to E (es[i][mu] is
empty), and the list us[i] of U(i, d_i), U(i, d_i + 1), ... Each section of
an encoding reads them through locals and hands the formula its clauses in
one batch. VarMap.extend grows them in place to a higher bound, whose MDDs
contain the lower one's, as a Session does across a lazy solve.

A movement rule is posted as the clauses of collision records
(relocation.Collision), each grounded by clause_for_record through the one
clause builder of its kind (vertex, occupancy, swap, rot, empty). The basic
encoding keeps only single-item path consistency plus cost accounting and
grounds the records of the collisions that validation discovered. The full
encoding adds rule_records(vm), every potential collision of the variant's
rule: vertex, plus occupancy (MAPF), swap (TSWAP), empty (TPERM) or empty
and rot (TROT). step_collisions names only the kinds of the variant's rule
(a TSWAP move into an empty vertex is a "swap"), so every lazy clause also
appears in the full encoding by construction.

Given a deadline (time.monotonic() seconds), an encoding checks it per item
and per time step, never per clause, and raises TimeoutError once it passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, count, islice, repeat
from operator import itemgetter

from .graphs import INF
from .relocation import (
    Collision,
    Instance,
    KIND_EMPTY,
    KIND_OCCUPANCY,
    KIND_ROT,
    KIND_SWAP,
    KIND_VERTEX,
    Plan,
    Variant,
    effective_adjacency,
    effective_distances,
    make_plan,
)
from .satcore import CnfFormula


def lower_bound(inst: Instance) -> int:
    """Sum of single-item shortest settle times; INF when some item is cut off."""
    return min(INF, sum(map(effective_distances(inst), inst.starts, inst.goals)))


def _bound(inst: Instance, xi: int):
    """(per-item start-goal distances, slack delta, horizon mu) of bound xi."""
    dists = list(map(effective_distances(inst), inst.starts, inst.goals))
    if any(d >= INF for d in dists):
        raise ValueError("instance has an unreachable goal; no finite horizon")
    delta = xi - sum(dists)
    if delta < 0:
        raise ValueError(f"xi={xi} below lower bound {sum(dists)}")
    return dists, delta, max(dists) + delta


def makespan_bound(inst: Instance, xi: int) -> int:
    """Horizon mu for cost bound xi: every item settles by max_i d_i + slack."""
    return _bound(inst, xi)[2]


def _check(deadline) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("encoding ran past its deadline")


@dataclass(frozen=True)
class Mdd:
    """Per-item layered diagram: vertices levels[t], moves arcs[t] (u, v) to t+1."""

    levels: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[tuple[int, int], ...], ...]


def build_mdd(inst: Instance, item: int, xi: int) -> Mdd:
    dists, delta, mu = _bound(inst, xi)
    rows = effective_distances(inst).dist
    adj = effective_adjacency(inst)
    g = inst.goals[item]
    from_s, to_g = rows[inst.starts[item]], rows[g]
    budget = dists[item] + delta  # this item's cost ceiling
    levels = [[] for _ in range(mu + 1)]
    ellipse = [v for v in range(inst.graph.n) if from_s[v] + to_g[v] <= budget]
    for v in ellipse:  # by vertex id, so every level is sorted
        last = mu if v == g else budget - to_g[v]  # the goal rests through mu
        for t in range(from_s[v], last + 1):
            levels[t].append(v)
    arcs = tuple(
        tuple(sorted([(u, v) for u in here for v in (u,) + adj[u] if v in there]))
        for here, there in zip(levels, map(set, levels[1:]))
    )
    return Mdd(tuple(map(tuple, levels)), arcs)


class VarMap:
    """Deterministic variable tables over the MDDs of one (instance, xi); the
    accessors x, e, u and items_at answer None or [] off the MDDs."""

    def __init__(self, formula: CnfFormula, inst: Instance, xi: int, deadline=None):
        self.inst = inst
        self.xs, self.es, self.us = ([[] for _ in range(inst.k)] for _ in range(3))
        self.extend(formula, xi, deadline)

    def extend(self, formula: CnfFormula, xi: int, deadline=None) -> None:
        """Grow the tables in place to a bound xi at least self.xi: what is
        new is numbered after formula.num_vars, in a fresh VarMap's order."""
        self.xi = xi
        self.dists, self.delta, self.mu = _bound(self.inst, xi)
        self.__dict__.pop("occupants", None)
        self.mdds = []
        ids = count(formula.num_vars + 1)  # zip stops before drawing past a level
        for i, (xs, es) in enumerate(zip(self.xs, self.es)):
            _check(deadline)
            self.mdds.append(mdd := build_mdd(self.inst, i, xi))
            xs += ({} for _ in range(len(xs), self.mu + 1))
            es += ({} for _ in range(len(es), self.mu + 1))  # es[i][mu] stays empty
            for table, level in zip(xs, mdd.levels):
                table.update(zip([v for v in level if v not in table] if table else level, ids))
            for table, arcs in zip(es, mdd.arcs):
                table.update(zip([a for a in arcs if a not in table] if table else arcs, ids))
        for us in self.us:
            us += islice(ids, self.delta - len(us))
        formula.num_vars = next(ids) - 1

    def x(self, i, v, t):
        return self.xs[i][t].get(v) if 0 <= t <= self.mu else None

    def e(self, i, u, v, t):
        return self.es[i][t].get((u, v)) if 0 <= t <= self.mu else None

    def u(self, i, t):
        t -= self.dists[i]
        return self.us[i][t] if 0 <= t < self.delta else None

    def unsettled_vars(self) -> list[int]:
        return [uv for us in self.us for uv in us]

    @cached_property
    def occupants(self) -> list[dict[int, list[int]]]:
        """Per time step, vertex -> the items that may occupy it, in item order."""
        occupants = [{} for _ in range(self.mu + 1)]
        for i, xs in enumerate(self.xs):
            for here, level in zip(occupants, xs):
                for v in level:
                    here.setdefault(v, []).append(i)
        return occupants

    def items_at(self, v, t):
        """Item ids that may occupy v at time t."""
        return self.occupants[t].get(v, []) if 0 <= t <= self.mu else []


def at_most_k(formula: CnfFormula, lits: list[int], k: int, guard=None,
              registers=()) -> None:
    """Sequential-counter cardinality constraint sum(lits) <= k (or guard),
    whose registers are the variables of registers, then new ones."""
    n = len(lits)
    if k >= n:
        return
    if k == 0:
        clauses = [[-lit] for lit in lits]
    else:
        # registers s[i][j]: at least j+1 of the first i+1 literals are true
        ids = chain(registers, iter(formula.new_var, None))
        s = [[next(ids) for _ in range(k)] for _ in range(n)]
        clauses = [[-lits[0], s[0][0]]] + [[-s[0][j]] for j in range(1, k)]
        for i in range(1, n):
            clauses += [-lits[i], s[i][0]], [-s[i - 1][0], s[i][0]]
            for j in range(1, k):
                clauses += [-lits[i], -s[i - 1][j - 1], s[i][j]], [-s[i - 1][j], s[i][j]]
            clauses.append([-lits[i], -s[i - 1][k - 1]])
    formula.add_clauses(clauses if guard is None else [c + [guard] for c in clauses])


def _encode_paths(vm: VarMap, deadline, base=0, guard=None) -> list[list[int]]:
    """Single-item consistency: endpoints, arc choice, arc effects, arrivals.

    With a guard, only what a session's bound adds. A node (v, t) of item i
    has all its arcs once its slack, d_i + delta - t - dist(v, g_i) less 2
    (out) or 0 (in), is >= 0, as a neighbour is at most one step further."""
    inst, mu = vm.inst, vm.mu
    rows = effective_distances(inst).dist
    clauses = []
    add = clauses.append

    def growing(clause, slack):  # guarded, for good, or None: posted before
        if slack < 0:
            return clause + [guard]
        return clause if slack == 0 or -clause[0] > base else None

    for i, (xs, es) in enumerate(zip(vm.xs, vm.es)):
        _check(deadline)
        start, goal = xs[0][inst.starts[i]], inst.goals[i]
        if start > base:
            add([start])
        if mu > 0 or goal != inst.starts[i]:
            add([xs[mu][goal]] if guard is None else [xs[mu][goal], guard])
        to_g, budget = rows[goal], vm.dists[i] + vm.delta
        arrivals = []  # per level, v -> [-X(v), its in-arcs...]
        for t, (here, there, arcs) in enumerate(zip(xs, xs[1:], es)):
            outgoing = {u: [-xu] for u, xu in here.items()}
            incoming = {v: [-xv] for v, xv in there.items()}
            for (u, v), ev in arcs.items():
                if ev > base:
                    add([-ev, here[u]])
                    add([-ev, there[v]])
                outgoing[u].append(ev)
                incoming[v].append(ev)
            for u, out in outgoing.items():
                if guard is None:
                    add(out)
                elif (clause := growing(out, budget - t - 2 - to_g[u])):
                    add(clause)
                if len(out) > 2 and out[-1] > base:
                    # a node's new arcs follow its old ones
                    clauses += ([-a, -b] for a, b in combinations(out[1:], 2) if b > base)
            if guard is not None:
                incoming = {v: growing(c, budget - t - 1 - to_g[v]) for v, c in incoming.items()}
            arrivals.append(incoming.values())
        for incoming in arrivals:
            clauses += filter(None, incoming) if guard is not None else incoming
    return clauses


def _encode_cost(formula: CnfFormula, vm: VarMap, base=0, guard=None, registers=()) -> None:
    """Tie unsettled flags to goal occupancy and cap total slack at delta
    (with a guard: the new ties, and the cap guarded)."""
    delta = vm.delta
    if delta == 0:
        return
    clauses = []
    for xs, us, d, g in zip(vm.xs, vm.us, vm.dists, vm.inst.goals):
        for t, uv in enumerate(us):
            if uv > base:
                xg = xs[d + t].get(g)
                clauses.append([uv] if xg is None else [xg, uv])
            if t + 1 < delta and us[t + 1] > base:
                clauses.append([-us[t + 1], uv])
    formula.add_clauses(clauses)
    at_most_k(formula, vm.unsettled_vars(), delta, guard, registers)


# ---------------------------------------------------------------------------
# records, one clause builder per collision kind, and the two encodings


def record_from_collision(col: Collision) -> Collision:
    """The record a lazy refinement keeps for a collision: the collision
    itself, with the partner of a swap or empty move dropped, since their
    clauses do not name it.

    Records sort kind-major, then by (t, i, v, j, u): within one kind j and u
    are always set or always None, so no None is ever compared with an int.
    """
    return col._replace(j=None) if col.kind in (KIND_SWAP, KIND_EMPTY) else col


# One clause builder per collision kind, (vm, t, i, v, j, u) -> clause | None,
# for 0 <= t <= mu; None when every violating assignment is already impossible
# (a negated variable does not exist). Missing positive literals are dropped.


def _vertex(vm: VarMap, t, i, v, j, u):
    a, b = vm.xs[i][t].get(v), vm.xs[j][t].get(v)
    return None if a is None or b is None else [-a, -b]


def _occupancy(vm: VarMap, t, i, v, j, u):
    ev, xj = vm.es[i][t].get((u, v)), vm.xs[j][t].get(v)
    return None if ev is None or xj is None else [-ev, -xj]


def _swap(vm: VarMap, t, i, v, j, u):
    ev = vm.es[i][t].get((u, v))
    if ev is None:
        return None
    backs = (es[t].get((v, u)) for other, es in enumerate(vm.es) if other != i)
    return [-ev] + [back for back in backs if back is not None]


def _rot(vm: VarMap, t, i, v, j, u):
    a, b = vm.es[i][t].get((u, v)), vm.es[j][t].get((v, u))
    return None if a is None or b is None else [-a, -b]


def _empty(vm: VarMap, t, i, v, j, u):
    ev = vm.es[i][t].get((u, v))
    if ev is None:
        return None
    return [-ev] + [vm.xs[other][t][v] for other in vm.items_at(v, t) if other != i]


_GROUND = {KIND_VERTEX: _vertex, KIND_OCCUPANCY: _occupancy, KIND_SWAP: _swap,
           KIND_ROT: _rot, KIND_EMPTY: _empty}


def clause_for_record(rec: Collision, vm: VarMap):
    """Ground clause for a record under the current variables, or None."""
    ground = _GROUND.get(rec.kind)
    if ground is None:
        raise ValueError(f"unknown record kind {rec.kind!r}")
    return ground(vm, *rec[1:]) if 0 <= rec.t <= vm.mu else None


def rule_records(vm: VarMap, deadline=None):
    """The record of every potential collision of the variant's rule: vertex
    pairs by time, vertex (in order of its first possible occupant) and a < b,
    then the variant's per-arc kind by item, then TROT's head-on pairs j > i."""
    occupants = vm.occupants
    for t, here in enumerate(occupants):
        _check(deadline)
        for v, items in here.items():
            for a, b in combinations(items, 2):
                yield Collision(KIND_VERTEX, t, a, v, b)
    variant = vm.inst.variant
    per_arc = KIND_SWAP if variant == Variant.TSWAP else KIND_EMPTY
    moves = [[(u, v, t) for t, arcs in enumerate(es) for u, v in arcs if u != v]
             for es in vm.es]
    for i, item_moves in enumerate(moves):
        _check(deadline)
        for u, v, t in item_moves:
            if variant != Variant.MAPF:
                yield Collision(per_arc, t, i, v, None, u)
                continue
            for j in occupants[t].get(v, ()):
                if j != i:
                    yield Collision(KIND_OCCUPANCY, t, i, v, j, u)
    if variant == Variant.TROT:
        for i, item_moves in enumerate(moves):
            _check(deadline)
            for u, v, t in item_moves:
                for j in range(i + 1, vm.inst.k):
                    yield Collision(KIND_ROT, t, i, v, j, u)


def encode_basic(inst: Instance, xi: int, records=(), deadline=None,
                 session=None) -> tuple[CnfFormula, VarMap]:
    """Relaxed encoding: path consistency and cost only, plus clauses for the
    given conflict records. A superset of assignments of the full encoding.
    With a Session, the formula holds only what bound xi adds to it, and the
    VarMap is the session's, grown to xi."""
    if session is not None:
        return session.grow(inst, xi, records, deadline)
    formula = CnfFormula()
    vm = VarMap(formula, inst, xi, deadline)
    formula.add_clauses(_encode_paths(vm, deadline))
    _encode_cost(formula, vm)
    _add_records(formula, vm, records)
    return formula, vm


class Session:
    """One lazy solve's formula, grown per bound for one SatSolver (Een &
    Sorensson 2003). A bound posts only what it adds: for good, what holds at
    every higher bound (start units, arc effects and at-most-one pairs, the
    unsettled flags' ties and chain, the arc-choice and arrival clauses of
    nodes whose arcs stopped growing, binary records); with guard, the
    negated activation literal a of the bound, the rest (goal units, other
    arc-choice and arrival clauses, the counter, swap and empty records).
    The solver assumes a; asserting spent retires the bound, which frees the
    counter's registers for the next one."""

    def __init__(self):
        self.vm = self.guard = None
        self.num_vars = self.permanent = self.live = 0
        self.spent: list[int] = []  # asserting these retires the current bound
        self.registers: list[int] = []  # counter variables, free once retired
        self.posted: set[Collision] = set()  # records with a clause for good

    def grow(self, inst: Instance, xi: int, records, deadline=None):
        formula = CnfFormula()
        formula.num_vars = base = self.num_vars
        if self.vm is None:
            self.vm = VarMap(formula, inst, xi, deadline)
        else:
            self.vm.extend(formula, xi, deadline)
        vm, a = self.vm, formula.new_var()
        self.guard = -a
        formula.add_clauses(_encode_paths(vm, deadline, base, -a))
        _encode_cost(formula, vm, base, -a, self.registers)
        self.registers += range(a + 1, formula.num_vars + 1)
        self.spent = [-a]
        guarded = list(map(itemgetter(-1), formula.clauses)).count(-a)
        self.permanent += len(formula.clauses) - guarded
        self.live = self.permanent + guarded
        for rec in records:
            if rec not in self.posted and (clause := clause_for_record(rec, vm)):
                formula.add_clause(self.post(rec, clause))
        self.num_vars = formula.num_vars
        return formula, vm

    def post(self, rec: Collision, clause: list[int]) -> list[int]:
        """The clause of record rec at the current bound, as posted."""
        self.live += 1
        if rec.kind in (KIND_SWAP, KIND_EMPTY):
            return clause + [self.guard]
        self.posted.add(rec)
        self.permanent += 1
        return clause


def encode_full(inst: Instance, xi: int, deadline=None) -> tuple[CnfFormula, VarMap]:
    """Complete encoding: SAT iff a solution of sum-of-costs <= xi exists."""
    formula, vm = encode_basic(inst, xi, deadline=deadline)
    _add_records(formula, vm, rule_records(vm, deadline))
    return formula, vm


def _add_records(formula: CnfFormula, vm: VarMap, records) -> None:
    clauses = map(clause_for_record, records, repeat(vm))
    formula.add_clauses([clause for clause in clauses if clause is not None])


def extract_plan(vm: VarMap, model: dict[int, bool]) -> Plan:
    """Read the per-item trajectories off a satisfying assignment."""
    paths = []
    for i, xs in enumerate(vm.xs):
        path = []
        for t, level in enumerate(xs):
            here = [v for v, x in level.items() if model[x]]
            if len(here) != 1:
                raise ValueError(f"model places item {i} at {len(here)} vertices at time {t}")
            path.append(here[0])
        paths.append(path)
    return make_plan(paths)
