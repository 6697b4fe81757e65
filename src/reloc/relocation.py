"""Problem model: variants, instances, step legality, plan validation.

The four relocation variants share one formulation: distinguishable items on
an undirected graph, at most one item per vertex, discrete timesteps. They
differ only in which simultaneous steps are legal:

  MAPF  - an item may wait or move into a vertex that was empty before the
          step; no two items may target the same vertex.
  TSWAP - the only moves are pairwise swaps across edges; swapped edges are
          vertex-disjoint.
  TROT  - items rotate along vertex-disjoint cycles of length >= 3; swaps
          along a single edge are forbidden.
  TPERM - rotations along vertex-disjoint cycles of any length >= 2.

Empty vertices are static placeholders in the token variants: an item never
moves into a vertex that was unoccupied before the step. A consequence used
throughout the solvers is that in TSWAP/TROT/TPERM the set of occupied
vertices never changes, so all movement is confined to the subgraph induced
by the start positions ("support").
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .graphs import INF, Graph, DistTable, bfs_distances


class Variant(str, Enum):
    MAPF = "mapf"
    TSWAP = "tswap"
    TROT = "trot"
    TPERM = "tperm"


TOKEN_VARIANTS = frozenset({Variant.TSWAP, Variant.TROT, Variant.TPERM})

# Collision kinds, one per rule a step can break. In Collision(kind, t, i,
# v, j, u):
#   "vertex":    i and j (i < j) are both at v at time t.
#   "occupancy": MAPF: i moves u->v at t while j is at v.
#   "swap":      TSWAP: i moves u->v at t and j, at v, does not move back;
#                j == i when v is empty (a swap that nobody answers).
#   "rot":       TROT: i and j (i < j) swap head-on over u<->v at t.
#   "empty":     TROT/TPERM: i moves u->v at t into an empty vertex, j == i.
KIND_VERTEX = "vertex"
KIND_OCCUPANCY = "occupancy"
KIND_SWAP = "swap"
KIND_ROT = "rot"
KIND_EMPTY = "empty"
_KIND_RANK = {KIND_VERTEX: 0, KIND_OCCUPANCY: 1, KIND_SWAP: 2, KIND_ROT: 2, KIND_EMPTY: 2}


class Collision(NamedTuple):
    """One illegal interaction of items i and j at v (entered from u) at time t.

    The one vocabulary of step legality: CBS branches on a collision and the
    SAT drivers ground it as a clause. Tuples order kind-major, then by
    (t, i, v, j, u); sort_key orders time-major instead.
    """

    kind: str
    t: int
    i: int
    v: int
    j: int | None = None
    u: int | None = None

    def sort_key(self):
        rank = _KIND_RANK[self.kind]
        where = (self.v, -1) if rank < 2 else (self.u, self.v)
        return (self.t, min(self.i, self.j), rank, self.i, self.j, where)

    @property
    def degenerate(self) -> bool:
        """True for single-item collisions (a token move into an empty vertex)."""
        return self.i == self.j


@dataclass(frozen=True)
class Instance:
    graph: Graph
    variant: Variant
    starts: tuple[int, ...]
    goals: tuple[int, ...]

    def __post_init__(self):
        n = self.graph.n
        k = len(self.starts)
        if len(self.goals) != k:
            raise ValueError("start and goal configurations differ in item count")
        for cfg in (self.starts, self.goals):
            if any(not 0 <= v < n for v in cfg):
                raise ValueError("configuration references invalid vertex")
            if len(set(cfg)) != k:
                raise ValueError("configuration is not injective")
        if self.variant == Variant.MAPF:
            if k >= n:
                raise ValueError(f"MAPF requires k < n, got k={k}, n={n}")
        elif k > n:
            raise ValueError(f"k={k} exceeds vertex count n={n}")

    @property
    def k(self) -> int:
        return len(self.starts)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.starts)


@dataclass(frozen=True)
class Plan:
    """Per-item vertex sequences over a common horizon of makespan+1 steps."""

    paths: tuple[tuple[int, ...], ...]
    cost: int
    makespan: int


def make_plan(paths) -> Plan:
    paths = tuple(tuple(p) for p in paths)
    return Plan(paths, plan_cost(paths), len(paths[0]) - 1)


def plan_cost(paths) -> int:
    """Sum-of-costs: each item pays 1 per step until it settles at its goal.

    Trailing waits at the goal are free; an earlier visit to the goal is not
    if the item leaves again.
    """
    total = 0
    for path in paths:
        goal = path[-1]
        t = len(path) - 1
        while t > 0 and path[t - 1] == goal:
            t -= 1
        total += t
    return total


def _check_structure(inst: Instance, paths) -> None:
    k = inst.k
    if len(paths) != k:
        raise ValueError("plan has wrong item count")
    length = len(paths[0])
    if length < 1 or any(len(p) != length for p in paths):
        raise ValueError("plan paths must share a common positive length")
    for i, path in enumerate(paths):
        if path[0] != inst.starts[i] or path[-1] != inst.goals[i]:
            raise ValueError(f"path of item {i} does not match instance endpoints")
        for t in range(length - 1):
            u, v = path[t], path[t + 1]
            if u != v and not inst.graph.has_edge(u, v):
                raise ValueError(f"item {i} jumps {u}->{v} at step {t}")


def _vertex_collisions(nxt, t: int) -> list[Collision]:
    if len(set(nxt)) == len(nxt):
        return []
    at: dict[int, list[int]] = {}
    for i, v in enumerate(nxt):
        at.setdefault(v, []).append(i)
    out = []
    for v, items in at.items():
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                out.append(Collision(KIND_VERTEX, t, items[a], v, items[b]))
    return out


def step_collisions(inst: Instance, cur, nxt, t: int) -> list[Collision]:
    """All collisions in the single step cur -> nxt taken at time t.

    Vertex collisions (shared target) are stamped with the arrival time t+1;
    variant-rule violations are stamped with the departure time t. cur may be
    non-injective (it can be an intermediate configuration of an invalid
    plan); the occupant of a vertex is then the lowest item id there.
    """
    k = inst.k
    if len(cur) != k or len(nxt) != k:
        raise ValueError("configuration over wrong item set")
    for i in range(k):
        if cur[i] != nxt[i] and not inst.graph.has_edge(cur[i], nxt[i]):
            raise ValueError(f"item {i} jumps {cur[i]}->{nxt[i]}")

    collisions = _vertex_collisions(nxt, t + 1)
    occupant: dict[int, int] = {}
    for i in range(k - 1, -1, -1):
        occupant[cur[i]] = i
    variant = inst.variant

    for i in range(k):
        u, v = cur[i], nxt[i]
        if u == v:
            continue
        j = occupant.get(v)
        if variant == Variant.MAPF:
            if j is not None:
                collisions.append(Collision(KIND_OCCUPANCY, t, i, v, j, u))
        elif j is None:
            # Token variants: moving into an unoccupied vertex is illegal.
            kind = KIND_SWAP if variant == Variant.TSWAP else KIND_EMPTY
            collisions.append(Collision(kind, t, i, v, i, u))
        elif variant == Variant.TSWAP:
            if not (cur[j] == v and nxt[j] == u):
                collisions.append(Collision(KIND_SWAP, t, i, v, j, u))
        elif variant == Variant.TROT:
            if cur[j] == v and nxt[j] == u and i < j:
                collisions.append(Collision(KIND_ROT, t, i, v, j, u))
        # TPERM: occupied targets are policed by vertex collisions alone; a
        # stayer at v shows up as a shared vertex at t+1, and chains that do
        # not close a cycle terminate in a stayer or an empty vertex.

    collisions.sort(key=Collision.sort_key)
    return collisions


def step_legal(inst: Instance, cur, nxt, t: int = 0) -> list[Collision]:
    """Empty list iff nxt results from cur under the variant's movement rule."""
    return step_collisions(inst, tuple(cur), tuple(nxt), t)


def plan_collisions(inst: Instance, paths) -> list[Collision]:
    """Collisions of every step of paths that share a common length, sorted."""
    collisions: list[Collision] = []
    for t in range(len(paths[0]) - 1):
        cur = tuple(p[t] for p in paths)
        nxt = tuple(p[t + 1] for p in paths)
        collisions.extend(step_collisions(inst, cur, nxt, t))
    collisions.sort(key=Collision.sort_key)
    return collisions


def validate(inst: Instance, plan: Plan) -> list[Collision]:
    """Collision report for a whole plan; empty iff the plan is a solution."""
    _check_structure(inst, plan.paths)
    return plan_collisions(inst, plan.paths)


def random_instance(g: Graph, variant: Variant, k: int, seed: int) -> Instance:
    """Independent uniform injective start and goal placements."""
    limit = g.n - 1 if variant == Variant.MAPF else g.n
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} out of range for n={g.n} ({variant.value})")
    rng = random.Random(seed)
    starts = tuple(rng.sample(range(g.n), k))
    goals = tuple(rng.sample(range(g.n), k))
    return Instance(g, variant, starts, goals)


def random_permutation_instance(g: Graph, variant: Variant, k: int, seed: int) -> Instance:
    """Items on a randomly grown connected vertex set, goals a permutation of it.

    Under the static-empties model a token instance is solvable only if start
    and goal occupy the same vertices; this generator produces benchmark
    instances that are solvable by construction for TSWAP/TPERM.
    """
    limit = g.n - 1 if variant == Variant.MAPF else g.n
    if not 1 <= k <= limit:
        raise ValueError(f"k={k} out of range for n={g.n} ({variant.value})")
    rng = random.Random(seed)
    root = rng.randrange(g.n)
    chosen = [root]
    chosen_set = {root}
    frontier = [v for v in g.adj[root]]
    while len(chosen) < k:
        frontier = [v for v in frontier if v not in chosen_set]
        if not frontier:
            raise ValueError(f"graph has no connected vertex set of size {k}")
        v = frontier[rng.randrange(len(frontier))]
        chosen.append(v)
        chosen_set.add(v)
        frontier.extend(g.adj[v])
    starts = list(chosen)
    goals = list(chosen)
    rng.shuffle(starts)
    rng.shuffle(goals)
    return Instance(g, variant, tuple(starts), tuple(goals))


@functools.lru_cache(maxsize=256)
def effective_adjacency(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Adjacency restricted to the reachable world of the variant.

    Token-variant movement never leaves the support, so edges touching
    unoccupied vertices are dropped; MAPF uses the full graph.
    """
    if inst.variant not in TOKEN_VARIANTS:
        return inst.graph.adj
    sup = inst.support
    return tuple(
        tuple(u for u in inst.graph.adj[v] if u in sup) if v in sup else ()
        for v in range(inst.graph.n)
    )


@functools.lru_cache(maxsize=256)
def effective_distances(inst: Instance) -> DistTable:
    """Distances over the effective adjacency from the starts and goals only,
    the rows the solvers read; the adjacency is symmetric, so they read
    dist(v, g) as dist(g, v)."""
    adj = effective_adjacency(inst)
    n = inst.graph.n
    return DistTable({s: tuple(bfs_distances(n, adj, s)) for s in {*inst.starts, *inst.goals}})
