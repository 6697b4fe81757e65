"""Propositional encodings of bounded-cost relocation.

Time expansion: for a target sum-of-costs xi, each item i gets a layered
decision diagram over times 0..mu, where mu = max_i d_i + delta with
d_i the (effective) start-goal distance and delta = xi - sum_i d_i the
total slack. Level t of item i holds exactly the vertices v from which a
plan of individual cost <= d_i + delta is still possible:

    V_i^t = {v : dist(s_i, v) <= t  and  t + dist(v, g_i) <= d_i + delta}
            united with {g_i} when t >= d_i   (resting at the goal)

Variables: X(i,v,t) "item i at v at time t", E(i,u,v,t) "item i traverses
arc u->v between t and t+1" (u == v is the wait arc), U(i,t) "item i is
still unsettled at time t" for t in [d_i, d_i + delta).

The full encoding adds the variant's movement rule as clauses over all
variable pairs; the basic encoding keeps only single-item path consistency
plus cost accounting and re-emits clauses for an explicit store of conflict
records discovered by validation. Every clause the basic encoding can emit
for a record also appears in the full encoding, restricted the same way to
existing variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import INF
from .relocation import (
    Collision,
    Instance,
    KIND_EDGE,
    KIND_OCCUPANCY,
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
    dist = effective_distances(inst)
    total = 0
    for s, g in zip(inst.starts, inst.goals):
        d = dist(s, g)
        if d >= INF:
            return INF
        total += d
    return total


def makespan_bound(inst: Instance, xi: int) -> int:
    """Horizon mu for cost bound xi: every item settles by max_i d_i + slack."""
    dist = effective_distances(inst)
    dists = [dist(s, g) for s, g in zip(inst.starts, inst.goals)]
    if any(d >= INF for d in dists):
        raise ValueError("instance has an unreachable goal; no finite horizon")
    delta = xi - sum(dists)
    if delta < 0:
        raise ValueError(f"xi={xi} below lower bound {sum(dists)}")
    return max(dists) + delta


@dataclass(frozen=True)
class Mdd:
    """Per-item layered diagram: levels[t] are vertices, arcs[t] are (u, v)
    moves from level t to t+1 (u == v is a wait)."""

    levels: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[tuple[int, int], ...], ...]


def build_mdd(inst: Instance, item: int, xi: int) -> Mdd:
    dist = effective_distances(inst)
    adj = effective_adjacency(inst)
    s, g = inst.starts[item], inst.goals[item]
    d = dist(s, g)
    mu = makespan_bound(inst, xi)
    budget = xi - lower_bound(inst) + d  # this item's cost ceiling d + delta
    levels = []
    for t in range(mu + 1):
        lvl = {
            v
            for v in range(inst.graph.n)
            if dist(s, v) <= t and t + dist(v, g) <= budget
        }
        if t >= d:
            lvl.add(g)
        levels.append(tuple(sorted(lvl)))
    arcs = []
    for t in range(mu):
        here, there = set(levels[t]), set(levels[t + 1])
        lvl_arcs = []
        for u in levels[t]:
            for v in (u,) + tuple(adj[u]):
                if v in there:
                    lvl_arcs.append((u, v))
        arcs.append(tuple(sorted(lvl_arcs)))
    return Mdd(tuple(levels), tuple(arcs))


class VarMap:
    """Deterministic variable allocation over the MDDs of one (instance, xi)."""

    def __init__(self, formula: CnfFormula, inst: Instance, xi: int):
        self.inst = inst
        self.xi = xi
        self.mu = makespan_bound(inst, xi)
        self.mdds = tuple(build_mdd(inst, i, xi) for i in range(inst.k))
        self._x: dict[tuple[int, int, int], int] = {}
        self._e: dict[tuple[int, int, int, int], int] = {}
        self._u: dict[tuple[int, int], int] = {}
        for i, mdd in enumerate(self.mdds):
            for t, lvl in enumerate(mdd.levels):
                for v in lvl:
                    self._x[i, v, t] = formula.new_var()
            for t, lvl_arcs in enumerate(mdd.arcs):
                for u, v in lvl_arcs:
                    self._e[i, u, v, t] = formula.new_var()
        dist = effective_distances(inst)
        delta = xi - lower_bound(inst)
        for i in range(inst.k):
            d = dist(inst.starts[i], inst.goals[i])
            for t in range(d, d + delta):
                self._u[i, t] = formula.new_var()

    def x(self, i, v, t):
        return self._x.get((i, v, t))

    def e(self, i, u, v, t):
        return self._e.get((i, u, v, t))

    def u(self, i, t):
        return self._u.get((i, t))

    def unsettled_vars(self) -> list[int]:
        return [self._u[key] for key in sorted(self._u)]

    def items_at(self, v, t):
        """Item ids that may occupy v at time t."""
        return [i for i in range(self.inst.k) if (i, v, t) in self._x]


def at_most_k(formula: CnfFormula, lits: list[int], k: int) -> None:
    """Sequential-counter cardinality constraint sum(lits) <= k."""
    n = len(lits)
    if k >= n:
        return
    if k == 0:
        for lit in lits:
            formula.add_clause([-lit])
        return
    # registers s[i][j]: at least j+1 of the first i+1 literals are true
    s = [[formula.new_var() for _ in range(k)] for _ in range(n)]
    formula.add_clause([-lits[0], s[0][0]])
    for j in range(1, k):
        formula.add_clause([-s[0][j]])
    for i in range(1, n):
        formula.add_clause([-lits[i], s[i][0]])
        formula.add_clause([-s[i - 1][0], s[i][0]])
        for j in range(1, k):
            formula.add_clause([-lits[i], -s[i - 1][j - 1], s[i][j]])
            formula.add_clause([-s[i - 1][j], s[i][j]])
        formula.add_clause([-lits[i], -s[i - 1][k - 1]])


def _encode_paths(formula: CnfFormula, vm: VarMap) -> None:
    """Single-item consistency: endpoints, arc choice, arc effects, arrivals."""
    inst = vm.inst
    for i, mdd in enumerate(vm.mdds):
        formula.add_clause([vm.x(i, inst.starts[i], 0)])
        if vm.mu > 0 or inst.goals[i] != inst.starts[i]:
            formula.add_clause([vm.x(i, inst.goals[i], vm.mu)])
        incoming: dict[tuple[int, int], list[int]] = {}
        for t, lvl_arcs in enumerate(mdd.arcs):
            outgoing: dict[int, list[int]] = {}
            for u, v in lvl_arcs:
                ev = vm.e(i, u, v, t)
                outgoing.setdefault(u, []).append(ev)
                incoming.setdefault((v, t + 1), []).append(ev)
                formula.add_clause([-ev, vm.x(i, u, t)])
                formula.add_clause([-ev, vm.x(i, v, t + 1)])
            for u in mdd.levels[t]:
                outs = outgoing.get(u, [])
                formula.add_clause([-vm.x(i, u, t)] + outs)
                for a in range(len(outs)):
                    for b in range(a + 1, len(outs)):
                        formula.add_clause([-outs[a], -outs[b]])
        for t in range(1, vm.mu + 1):
            for v in mdd.levels[t]:
                formula.add_clause(
                    [-vm.x(i, v, t)] + incoming.get((v, t), [])
                )


def _encode_cost(formula: CnfFormula, vm: VarMap) -> None:
    """Tie unsettled flags to goal occupancy and cap total slack at delta."""
    inst = vm.inst
    dist = effective_distances(inst)
    delta = vm.xi - lower_bound(inst)
    if delta == 0:
        return
    for i in range(inst.k):
        g = inst.goals[i]
        d = dist(inst.starts[i], g)
        for t in range(d, d + delta):
            uv = vm.u(i, t)
            xg = vm.x(i, g, t)
            if xg is None:
                formula.add_clause([uv])
            else:
                formula.add_clause([xg, uv])
            if t + 1 < d + delta:
                formula.add_clause([-vm.u(i, t + 1), uv])
    at_most_k(formula, vm.unsettled_vars(), delta)


def _encode_vertex_exclusion(formula: CnfFormula, vm: VarMap) -> None:
    for t in range(vm.mu + 1):
        occupants: dict[int, list[int]] = {}
        for i, mdd in enumerate(vm.mdds):
            for v in mdd.levels[t]:
                occupants.setdefault(v, []).append(i)
        for v, items in occupants.items():
            for a in range(len(items)):
                for b in range(a + 1, len(items)):
                    formula.add_clause(
                        [-vm.x(items[a], v, t), -vm.x(items[b], v, t)]
                    )


def _move_arcs(vm: VarMap):
    """All non-wait arcs as (i, u, v, t, var)."""
    for i, mdd in enumerate(vm.mdds):
        for t, lvl_arcs in enumerate(mdd.arcs):
            for u, v in lvl_arcs:
                if u != v:
                    yield i, u, v, t, vm.e(i, u, v, t)


def _encode_movement_rule(formula: CnfFormula, vm: VarMap) -> None:
    """The variant-specific interaction clauses over move arcs."""
    inst = vm.inst
    if inst.variant == Variant.MAPF:
        # moving into v requires v empty before the step
        for i, u, v, t, ev in _move_arcs(vm):
            for j in vm.items_at(v, t):
                if j != i:
                    formula.add_clause([-ev, -vm.x(j, v, t)])
        return
    if inst.variant == Variant.TSWAP:
        # every traversal is half of a swap
        for i, u, v, t, ev in _move_arcs(vm):
            partners = [
                vm.e(j, v, u, t)
                for j in range(inst.k)
                if j != i and vm.e(j, v, u, t) is not None
            ]
            formula.add_clause([-ev] + partners)
        return
    # TROT / TPERM: moving into v requires v occupied before the step
    for i, u, v, t, ev in _move_arcs(vm):
        occupants = [
            vm.x(j, v, t) for j in vm.items_at(v, t) if j != i
        ]
        formula.add_clause([-ev] + occupants)
    if inst.variant == Variant.TROT:
        # no swaps along a single edge
        for i, u, v, t, ev in _move_arcs(vm):
            for j in range(i + 1, inst.k):
                back = vm.e(j, v, u, t)
                if back is not None:
                    formula.add_clause([-ev, -back])


def encode_full(inst: Instance, xi: int) -> tuple[CnfFormula, VarMap]:
    """Complete encoding: SAT iff a solution of sum-of-costs <= xi exists."""
    formula = CnfFormula()
    vm = VarMap(formula, inst, xi)
    _encode_paths(formula, vm)
    _encode_cost(formula, vm)
    _encode_vertex_exclusion(formula, vm)
    _encode_movement_rule(formula, vm)
    return formula, vm


# ---------------------------------------------------------------------------
# conflict records and the lazy encoding


@dataclass(frozen=True)
class ConflictRecord:
    """Semantic description of one forbidden interaction, independent of any
    particular xi. kinds: "vertex" (i and j share v at t), "occupancy" (MAPF:
    i entering v over u->v while j rests at v), "swap" (i may traverse u->v
    only as half of a swap), "rot" (i and j swap head-on over u<->v), "empty"
    (token move u->v requires v occupied)."""

    kind: str
    t: int
    i: int
    v: int
    j: int | None = None
    u: int | None = None


def record_from_collision(inst: Instance, col: Collision) -> ConflictRecord:
    i, j = col.items
    if col.kind == KIND_VERTEX:
        return ConflictRecord("vertex", col.t, min(i, j), col.where, j=max(i, j))
    if col.kind == KIND_OCCUPANCY:
        return ConflictRecord("occupancy", col.t, i, col.where, j=j, u=col.src)
    u, v = col.where
    if col.degenerate:
        return ConflictRecord("empty", col.t, i, v, u=u)
    if inst.variant == Variant.TSWAP:
        return ConflictRecord("swap", col.t, i, v, u=u)
    return ConflictRecord("rot", col.t, i, v, j=j, u=u)


def clause_for_record(rec: ConflictRecord, vm: VarMap):
    """Ground clause for a record under the current variables, or None when
    every violating assignment is already impossible (a negated variable does
    not exist). Positive literals over missing variables are dropped."""
    k = vm.inst.k
    if rec.kind == "vertex":
        a, b = vm.x(rec.i, rec.v, rec.t), vm.x(rec.j, rec.v, rec.t)
        return None if a is None or b is None else [-a, -b]
    if rec.kind == "occupancy":
        ev = vm.e(rec.i, rec.u, rec.v, rec.t)
        xj = vm.x(rec.j, rec.v, rec.t)
        return None if ev is None or xj is None else [-ev, -xj]
    if rec.kind == "rot":
        a = vm.e(rec.i, rec.u, rec.v, rec.t)
        b = vm.e(rec.j, rec.v, rec.u, rec.t)
        return None if a is None or b is None else [-a, -b]
    if rec.kind == "swap":
        ev = vm.e(rec.i, rec.u, rec.v, rec.t)
        if ev is None:
            return None
        return [-ev] + [
            vm.e(j, rec.v, rec.u, rec.t)
            for j in range(k)
            if j != rec.i and vm.e(j, rec.v, rec.u, rec.t) is not None
        ]
    if rec.kind == "empty":
        ev = vm.e(rec.i, rec.u, rec.v, rec.t)
        if ev is None:
            return None
        return [-ev] + [
            vm.x(j, rec.v, rec.t)
            for j in vm.items_at(rec.v, rec.t)
            if j != rec.i
        ]
    raise ValueError(f"unknown record kind {rec.kind!r}")


def encode_basic(inst: Instance, xi: int, records=()) -> tuple[CnfFormula, VarMap]:
    """Relaxed encoding: path consistency and cost only, plus clauses for the
    given conflict records. A superset of assignments of the full encoding."""
    formula = CnfFormula()
    vm = VarMap(formula, inst, xi)
    _encode_paths(formula, vm)
    _encode_cost(formula, vm)
    for rec in records:
        clause = clause_for_record(rec, vm)
        if clause is not None:
            formula.add_clause(clause)
    return formula, vm


def extract_plan(vm: VarMap, model: dict[int, bool]) -> Plan:
    """Read the per-item trajectories off a satisfying assignment."""
    paths = []
    for i, mdd in enumerate(vm.mdds):
        path = []
        for t in range(vm.mu + 1):
            here = [v for v in mdd.levels[t] if model[vm.x(i, v, t)]]
            if len(here) != 1:
                raise ValueError(
                    f"model places item {i} at {len(here)} vertices at time {t}"
                )
            path.append(here[0])
        paths.append(path)
    return make_plan(paths)
