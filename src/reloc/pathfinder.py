"""Time-indexed single-item shortest path under vertex and edge constraints.

This is the CBS low level: A* over (vertex, time) states with heuristic
dist(v, goal). An item finishes by settling at its goal, i.e. resting there
through the horizon without violating any later constraint on the goal
vertex. Trailing goal-waits are free, so the path cost equals the settle
time.

The search reads everything it consults per state from plain containers
built once per call: the item's banned states and moves (`ConstraintSet.bans`)
and the goal's column of the distance table. A state (v, t) is keyed as the
integer t * n + v; heap entries stay (f, t, v), so ties break as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .graphs import INF

VERTEX = "vertex"
EDGE = "edge"


@dataclass(frozen=True)
class Constraint:
    """Prohibition for one item: a vertex at a time, or a directed edge
    (u, v) departed at time t. Wait actions are edge constraints with u == v."""

    item: int
    kind: str
    t: int
    v: int
    u: int | None = None

    def __post_init__(self):
        if self.kind not in (VERTEX, EDGE):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if (self.kind == EDGE) != (self.u is not None):
            raise ValueError("edge constraints need u, vertex constraints must not set it")
        if self.t < 0:
            raise ValueError("constraint time must be non-negative")


class ConstraintSet:
    """Immutable collection of constraints; duplicates collapse."""

    def __init__(self, constraints=()):
        self._all = frozenset(constraints)

    def __len__(self):
        return len(self._all)

    def __contains__(self, c: Constraint) -> bool:
        return c in self._all

    def __iter__(self):
        return iter(self._all)

    def with_constraint(self, c: Constraint) -> "ConstraintSet":
        return ConstraintSet(self._all | {c})

    def bans(self, item: int):
        """The item's banned states {(v, t)} and moves {(u, v, t)}."""
        states, moves = set(), set()
        for c in self._all:
            if c.item == item:
                if c.u is None:
                    states.add((c.v, c.t))
                else:
                    moves.add((c.u, c.v, c.t))
        return states, moves


def constrained_shortest_path(adj, dist, item: int, start: int, goal: int,
                              cs: ConstraintSet, horizon: int):
    """Minimum-settle-time path for one item, or None when no path fits.

    adj: per-vertex neighbor lists (already restricted for token variants).
    dist: DistTable over the same (undirected) adjacency, used as the A*
    heuristic.
    Ties break on (smaller time, smaller vertex id) so runs are reproducible.
    """
    n = len(adj)
    to_goal = dist.dist[goal]  # distances are symmetric: the goal's column
    h0 = to_goal[start]
    if h0 >= INF:
        return None
    states, moves = cs.bans(item)
    # the earliest time from which the item may rest at its goal forever
    barrier = max(
        [t + 1 for v, t in states if v == goal]
        + [t + 1 for u, v, t in moves if u == v == goal],
        default=0,
    )
    if (start, 0) in states:
        return None
    banned = {t * n + v for v, t in states}

    open_heap = [(h0, 0, start)]
    parent: dict[int, int] = {}
    closed: set[int] = set()
    while open_heap:
        f, t, v = heappop(open_heap)
        s = t * n + v
        if s in closed:
            continue
        closed.add(s)
        if v == goal and t >= barrier and t <= horizon:
            path = [v]
            while s in parent:
                s = parent[s]
                path.append(s % n)
            path.reverse()
            return path
        t1 = t + 1
        if t1 > horizon:
            continue
        base = t1 * n
        for w in (v,) + tuple(adj[v]):
            hw = to_goal[w]
            if hw >= INF or t1 + hw > horizon:
                continue
            s1 = base + w
            if s1 in closed or s1 in banned:
                continue
            if moves and (v, w, t) in moves:
                continue
            if s1 not in parent:
                parent[s1] = s
                heappush(open_heap, (t1 + hw, t1, w))
    return None
