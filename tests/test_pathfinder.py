from reloc.graphs import INF, all_pairs_distances, make_grid, build_graph
from reloc.pathfinder import constrained_shortest_path

GRID = make_grid(3, 3)
DT = all_pairs_distances(GRID)
NONE = frozenset()


def split(bans):
    """Banned states (v, t) and moves (u, v, t) out of one mixed list."""
    return (frozenset(b for b in bans if len(b) == 2),
            frozenset(b for b in bans if len(b) == 3))


def sp(start, goal, bans=(), horizon=30, g=GRID, dt=DT):
    states, moves = split(bans)
    return constrained_shortest_path(g.adj, dt, start, goal, states, moves, horizon)


def test_unconstrained_path_is_geodesic():
    p = sp(0, 8)
    assert p is not None and len(p) == 5 and p[0] == 0 and p[-1] == 8


def test_vertex_constraint_forces_detour_or_wait():
    block = [(1, t) for t in range(1, 4)] + [(3, t) for t in range(1, 4)]
    p = sp(0, 8, block)
    assert p is not None
    # both exits from the corner are blocked through t=3: wait three steps,
    # then take the geodesic
    assert len(p) - 1 == 7
    for t, v in enumerate(p):
        assert not (v in (1, 3) and 1 <= t <= 3)


def test_edge_constraint_blocks_departure_time_only():
    p = sp(0, 2, [(0, 1, 0)])
    assert p is not None and len(p) - 1 == 3  # wait, then go


def test_wait_arc_constraint():
    # forbidden to wait at the start at t=0; the geodesic is still fine
    p = sp(0, 2, [(0, 0, 0)])
    assert p == [0, 1, 2]


def test_settle_barrier_delays_arrival():
    # goal blocked at t=4: a 4-step path must stretch to settle at t>=5
    p = sp(0, 8, [(8, 4)])
    assert p is not None and len(p) - 1 == 5 and p[-1] == 8 and p[-2] != 8


def test_goal_wait_prohibition_also_raises_barrier():
    p = sp(0, 2, [(2, 2, 3)])
    # resting at the goal across t=3 is forbidden, so settle at t>=4
    assert p is not None and len(p) - 1 == 4


def test_start_constraint_at_time_zero_unsolvable():
    assert sp(0, 8, [(0, 0)]) is None


def test_horizon_cuts_off():
    assert sp(0, 8, horizon=3) is None
    assert sp(0, 8, horizon=4) is not None


def test_unreachable_goal():
    g = build_graph(3, [(0, 1)])
    dt = all_pairs_distances(g)
    assert constrained_shortest_path(g.adj, dt, 0, 2, NONE, NONE, 10) is None


def test_restricted_adjacency_is_respected():
    # simulate a token item confined to a 2-vertex support
    adj = ((1,), (0,), ())
    g2 = build_graph(3, [(0, 1), (1, 2)])
    dt = all_pairs_distances(g2)
    # full-graph distances claim 1->2 is reachable, but the restricted
    # adjacency should never be exceeded; use a matching distance table
    from reloc.graphs import bfs_distances, DistTable
    dtr = DistTable(tuple(tuple(bfs_distances(3, adj, s)) for s in range(3)))
    assert constrained_shortest_path(adj, dtr, 1, 2, NONE, NONE, 10) is None
    assert constrained_shortest_path(adj, dtr, 1, 0, NONE, NONE, 10) == [1, 0]


def test_cost_monotone_in_constraints():
    import random
    rng = random.Random(5)
    for _ in range(30):
        cons = []
        base = len(sp(0, 8)) - 1
        prev = base
        for _ in range(6):
            t = rng.randint(1, 8)
            v = rng.randrange(9)
            cons.append((v, t))
            p = sp(0, 8, cons)
            if p is None:
                break
            cur = len(p) - 1
            assert cur >= prev or cur >= base
            prev = max(prev, cur)


def reference_shortest_path(adj, dist, start, goal, states, moves, horizon):
    """The low level as first written: (vertex, time) states, ban lookups
    per successor."""
    import heapq

    h0 = dist(start, goal)
    if h0 >= INF:
        return None
    barrier = 0
    for v, t in states:
        if v == goal:
            barrier = max(barrier, t + 1)
    for u, v, t in moves:
        if u == v == goal:
            barrier = max(barrier, t + 1)
    if (start, 0) in states:
        return None

    open_heap = [(h0, 0, start)]
    parent = {}
    closed = set()
    while open_heap:
        f, t, v = heapq.heappop(open_heap)
        if (v, t) in closed:
            continue
        closed.add((v, t))
        if v == goal and t >= barrier and t <= horizon:
            path = [v]
            node = (v, t)
            while node in parent:
                node = parent[node]
                path.append(node[0])
            path.reverse()
            return path
        if t + 1 > horizon:
            continue
        for w in (v,) + tuple(adj[v]):
            hw = dist(w, goal)
            if hw >= INF or t + 1 + hw > horizon:
                continue
            if (w, t + 1) in closed:
                continue
            if (w, t + 1) in states:
                continue
            if (v, w, t) in moves:
                continue
            if (w, t + 1) not in parent:
                parent[(w, t + 1)] = (v, t)
                heapq.heappush(open_heap, (t + 1 + hw, t + 1, w))
    return None


def _random_bans(rng, g, goal, count):
    out = []
    for _ in range(count):
        t = rng.randint(0, 8)
        kind = rng.randrange(4)
        if kind == 0:  # a vertex at a time
            out.append((rng.randrange(g.n), t))
        elif kind == 1:  # a move along an edge
            u = rng.randrange(g.n)
            if g.adj[u]:
                out.append((u, rng.choice(g.adj[u]), t))
        elif kind == 2:  # a wait
            u = rng.randrange(g.n)
            out.append((u, u, t))
        else:  # being at, or waiting at, the goal
            if rng.random() < 0.5:
                out.append((goal, t))
            else:
                out.append((goal, goal, t))
    return out


def test_matches_the_reference_on_random_constraint_sets():
    import random

    from reloc.graphs import make_clique, make_star

    rng = random.Random(23)
    graphs = [make_grid(3, 3), make_grid(4, 4), make_star(6), make_clique(5),
              build_graph(5, [(0, 1), (1, 2), (3, 4)])]
    found = missing = 0
    for trial in range(1500):
        g = graphs[trial % len(graphs)]
        dt = all_pairs_distances(g)
        start, goal = rng.randrange(g.n), rng.randrange(g.n)
        states, moves = split(_random_bans(rng, g, goal, rng.randint(0, 12)))
        horizon = rng.choice([rng.randint(0, 6), 9 + g.n])
        want = reference_shortest_path(g.adj, dt, start, goal, states, moves, horizon)
        got = constrained_shortest_path(g.adj, dt, start, goal, states, moves, horizon)
        assert got == want, (g, start, goal, sorted(states), sorted(moves), horizon)
        if want is None:
            missing += 1
        else:
            found += 1
    assert found > 100 and missing > 100
