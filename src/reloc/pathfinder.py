"""Time-indexed single-item shortest path under banned states and moves.

This is the CBS low level: A* over (vertex, time) states with heuristic
dist(v, goal). The item's prohibitions are two plain sets, as CBS keeps them
per item: banned states {(v, t)} and banned moves {(u, v, t)}, a wait being
the move (v, v, t). An item finishes by settling at its goal, i.e. resting
there through the horizon without entering a banned state or taking a
banned move. Trailing goal-waits are free, so the path cost equals the
settle time.

Per state the search reads only plain containers: the two ban sets and the
goal's row of the distance table. A state (v, t) is keyed as the integer
t * n + v; heap entries are (f, t, v), so ties break on time, then vertex.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graphs import INF


def constrained_shortest_path(adj, dist, start: int, goal: int,
                              states, moves, horizon: int):
    """Minimum-settle-time path for one item, or None when no path fits.

    adj: per-vertex neighbor lists (already restricted for token variants).
    dist: DistTable over the same (undirected) adjacency holding the goal's
    row, used as the A* heuristic.
    states, moves: the item's banned states {(v, t)} and banned moves
    {(u, v, t)}, the move from u to v departing at time t.
    Ties break on (smaller time, smaller vertex id) so runs are reproducible.
    """
    n = len(adj)
    to_goal = dist.dist[goal]  # distances are symmetric: the goal's row
    h0 = to_goal[start]
    if h0 >= INF:
        return None
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
