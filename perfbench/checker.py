"""Independent answer checks: the movement rules, the cost, a BFS lower bound.

Nothing here calls reloc's own validator or cost function. An instance is
read only through its plain fields (vertex count, edge set, variant name,
start and goal tuples), so the rules below restate the README's model:

  mapf   an agent moves only into a vertex that was empty before the step
  tswap  tokens move only by swapping across an edge
  trot   tokens rotate along vertex-disjoint cycles of length >= 3
  tperm  tokens rotate along vertex-disjoint cycles of length >= 2

and in every variant paths follow edges, no two items share a vertex, and a
token never moves into a vertex that was unoccupied before the step.
"""

from __future__ import annotations

INF = float("inf")
TOKEN_VARIANTS = ("tswap", "trot", "tperm")
MIN_CYCLE = {"tswap": 2, "trot": 3, "tperm": 2}


def _plain(inst):
    """(n, edges, variant, starts, goals) of a reloc Instance."""
    edges = {(min(u, v), max(u, v)) for u, v in inst.graph.edges}
    return inst.graph.n, edges, str(inst.variant.value), tuple(inst.starts), tuple(inst.goals)


def settle_cost(paths, goals) -> int:
    """Sum over items of the first time after which the item stays at its goal."""
    total = 0
    for path, goal in zip(paths, goals):
        t = len(path)
        while t > 0 and path[t - 1] == goal:
            t -= 1
        total += t
    return total


def bfs_lower_bound(inst) -> float:
    """Sum of start-goal hop distances; for token variants, inside the support."""
    n, edges, variant, starts, goals = _plain(inst)
    allowed = set(starts) if variant in TOKEN_VARIANTS else set(range(n))
    adj = {v: [] for v in allowed}
    for u, v in edges:
        if u in allowed and v in allowed:
            adj[u].append(v)
            adj[v].append(u)
    total = 0
    for s, g in zip(starts, goals):
        if g not in allowed:
            return INF
        dist = {s: 0}
        frontier = [s]
        while frontier and g not in dist:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if g not in dist:
            return INF
        total += dist[g]
    return total


def _step_problems(variant, edges, cur, nxt, t) -> list[str]:
    out = []
    for i, (u, v) in enumerate(zip(cur, nxt)):
        if u != v and (min(u, v), max(u, v)) not in edges:
            out.append(f"t={t}: item {i} jumps {u}->{v} without an edge")
    if len(set(nxt)) != len(nxt):
        out.append(f"t={t + 1}: two items share a vertex")
    occupied = set(cur)
    movers = {u: v for u, v in zip(cur, nxt) if u != v}
    if variant == "mapf":
        for u, v in movers.items():
            if v in occupied:
                out.append(f"t={t}: agent moves {u}->{v} into an occupied vertex")
        return out
    for u, v in movers.items():
        if v not in occupied:
            out.append(f"t={t}: token moves {u}->{v} into an unoccupied vertex")
    if out:
        return out
    # every target is a vertex some mover leaves, so the movers permute their
    # own vertices; the cycle lengths decide the variant
    seen = set()
    for start in sorted(movers):
        if start in seen:
            continue
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            length += 1
            v = movers[v]
        if variant == "tswap" and length != 2:
            out.append(f"t={t}: cycle of length {length} through {start} is not a swap")
        elif length < MIN_CYCLE[variant]:
            out.append(f"t={t}: cycle of length {length} through {start} is too short for {variant}")
    return out


def plan_problems(inst, paths, xi) -> list[str]:
    """Everything wrong with a plan claimed to cost xi; empty when it is valid."""
    n, edges, variant, starts, goals = _plain(inst)
    k = len(starts)
    paths = [tuple(p) for p in paths]
    if len(paths) != k:
        return [f"plan has {len(paths)} paths for {k} items"]
    horizon = len(paths[0])
    if horizon < 1 or any(len(p) != horizon for p in paths):
        return ["paths do not share one positive length"]
    out = []
    for i, p in enumerate(paths):
        if p[0] != starts[i] or p[-1] != goals[i]:
            out.append(f"item {i} runs {p[0]}..{p[-1]}, wants {starts[i]}..{goals[i]}")
        if any(not 0 <= v < n for v in p):
            out.append(f"item {i} leaves the vertex range")
    if out:
        return out
    if len(set(starts)) != k:
        out.append("t=0: two items share a vertex")
    for t in range(horizon - 1):
        cur = tuple(p[t] for p in paths)
        nxt = tuple(p[t + 1] for p in paths)
        out.extend(_step_problems(variant, edges, cur, nxt, t))
    cost = settle_cost(paths, goals)
    if cost != xi:
        out.append(f"plan costs {cost}, solver claims {xi}")
    return out
