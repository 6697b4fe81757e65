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
still unsettled at time t" for t in [d_i, d_i + delta).

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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    from_s, to_g = dist.dist[s], dist.dist[g]
    d = from_s[g]
    mu = makespan_bound(inst, xi)
    budget = xi - lower_bound(inst) + d  # this item's cost ceiling d + delta
    levels = [[] for _ in range(mu + 1)]
    for v in range(inst.graph.n):  # by vertex id, so every level is sorted
        last = mu if v == g else budget - to_g[v]  # the goal rests through mu
        for t in range(from_s[v], last + 1):
            levels[t].append(v)
    arcs = tuple(
        tuple(sorted((u, v) for u in here for v in (u,) + adj[u] if v in there))
        for here, there in zip(levels, map(set, levels[1:]))
    )
    return Mdd(tuple(map(tuple, levels)), arcs)


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


# One clause builder per collision kind, (vm, t, i, v, j, u) -> clause | None.
# None means every violating assignment is already impossible (a negated
# variable does not exist); positive literals over missing variables are
# dropped.


def _vertex(vm: VarMap, t, i, v, j, u):
    a, b = vm.x(i, v, t), vm.x(j, v, t)
    return None if a is None or b is None else [-a, -b]


def _occupancy(vm: VarMap, t, i, v, j, u):
    ev, xj = vm.e(i, u, v, t), vm.x(j, v, t)
    return None if ev is None or xj is None else [-ev, -xj]


def _swap(vm: VarMap, t, i, v, j, u):
    ev = vm.e(i, u, v, t)
    if ev is None:
        return None
    backs = (vm.e(other, v, u, t) for other in range(vm.inst.k) if other != i)
    return [-ev] + [back for back in backs if back is not None]


def _rot(vm: VarMap, t, i, v, j, u):
    a, b = vm.e(i, u, v, t), vm.e(j, v, u, t)
    return None if a is None or b is None else [-a, -b]


def _empty(vm: VarMap, t, i, v, j, u):
    ev = vm.e(i, u, v, t)
    if ev is None:
        return None
    return [-ev] + [vm.x(other, v, t) for other in vm.items_at(v, t) if other != i]


_GROUND = {
    KIND_VERTEX: _vertex,
    KIND_OCCUPANCY: _occupancy,
    KIND_SWAP: _swap,
    KIND_ROT: _rot,
    KIND_EMPTY: _empty,
}


def clause_for_record(rec: Collision, vm: VarMap):
    """Ground clause for a record under the current variables, or None."""
    ground = _GROUND.get(rec.kind)
    if ground is None:
        raise ValueError(f"unknown record kind {rec.kind!r}")
    return ground(vm, *rec[1:])


def _move_arcs(vm: VarMap):
    """All non-wait arcs as (i, u, v, t)."""
    for i, mdd in enumerate(vm.mdds):
        for t, lvl_arcs in enumerate(mdd.arcs):
            for u, v in lvl_arcs:
                if u != v:
                    yield i, u, v, t


def rule_records(vm: VarMap):
    """The record of every potential collision of the variant's rule: vertex
    pairs by time, vertex (in order of its first possible occupant) and a < b,
    then the variant's per-arc kind, then TROT's head-on pairs with j > i."""
    for t in range(vm.mu + 1):
        occupants: dict[int, list[int]] = {}
        for i, mdd in enumerate(vm.mdds):
            for v in mdd.levels[t]:
                occupants.setdefault(v, []).append(i)
        for v, items in occupants.items():
            for a in range(len(items)):
                for b in range(a + 1, len(items)):
                    yield Collision(KIND_VERTEX, t, items[a], v, items[b])
    variant = vm.inst.variant
    if variant == Variant.MAPF:
        for i, u, v, t in _move_arcs(vm):
            for j in vm.items_at(v, t):
                if j != i:
                    yield Collision(KIND_OCCUPANCY, t, i, v, j, u)
        return
    per_arc = KIND_SWAP if variant == Variant.TSWAP else KIND_EMPTY
    for i, u, v, t in _move_arcs(vm):
        yield Collision(per_arc, t, i, v, None, u)
    if variant == Variant.TROT:
        for i, u, v, t in _move_arcs(vm):
            for j in range(i + 1, vm.inst.k):
                yield Collision(KIND_ROT, t, i, v, j, u)


def encode_basic(inst: Instance, xi: int, records=()) -> tuple[CnfFormula, VarMap]:
    """Relaxed encoding: path consistency and cost only, plus clauses for the
    given conflict records. A superset of assignments of the full encoding."""
    formula = CnfFormula()
    vm = VarMap(formula, inst, xi)
    _encode_paths(formula, vm)
    _encode_cost(formula, vm)
    _add_records(formula, vm, records)
    return formula, vm


def encode_full(inst: Instance, xi: int) -> tuple[CnfFormula, VarMap]:
    """Complete encoding: SAT iff a solution of sum-of-costs <= xi exists."""
    formula, vm = encode_basic(inst, xi)
    _add_records(formula, vm, rule_records(vm))
    return formula, vm


def _add_records(formula: CnfFormula, vm: VarMap, records) -> None:
    for rec in records:
        clause = clause_for_record(rec, vm)
        if clause is not None:
            formula.add_clause(clause)


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
