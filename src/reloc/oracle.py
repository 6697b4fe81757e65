"""Exhaustive optimal solver over the joint configuration space.

Ground truth for desk-scale instances: Dijkstra over joint states where a
state is (positions, settled-mask). A settled item has committed to resting
at its goal forever; each step charges one unit per unsettled item, so the
accumulated cost of reaching the goal configuration equals the sum-of-costs
of the reconstructed plan (settling an item at time T makes its individual
cost exactly T, which matches the trailing-waits-are-free rule even when an
item waits at its goal and leaves again later).

Successor configurations are exactly the steps accepted by step_legal for
the variant; settled items act as stationary occupants.
"""

from __future__ import annotations

import heapq
import time

from .relocation import Instance, Variant, make_plan
from .result import (
    STATUS_LIMIT,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    STATUS_UNSOLVABLE,
    SolveResult,
    SolveStats,
    finish,
)

DEFAULT_VERTEX_CAP = 10
DEFAULT_ITEM_CAP = 5
STATE_CAP = 2_000_000  # configurations held before a search gives up


def _mapf_steps(inst: Instance, pos, movable):
    """All legal MAPF successor position tuples (movers enter empty vertices)."""
    occupied = set(pos)
    adj = inst.graph.adj
    out = []
    nxt = list(pos)

    def rec(idx, used):
        if idx == len(movable):
            out.append(tuple(nxt))
            return
        i = movable[idx]
        rec(idx + 1, used)  # wait
        for v in adj[pos[i]]:
            if v in occupied or v in used:
                continue
            nxt[i] = v
            used.add(v)
            rec(idx + 1, used)
            used.remove(v)
            nxt[i] = pos[i]

    rec(0, set())
    return out


def _swap_steps(inst: Instance, pos, movable):
    """Successors by swapping along vertex-disjoint edges between movable items."""
    at = {pos[i]: i for i in movable}
    cand = sorted(
        (u, v) for (u, v) in inst.graph.edges if u in at and v in at
    )
    out = []

    def rec(idx, used, swaps):
        if idx == len(cand):
            if swaps:
                nxt = list(pos)
                for u, v in swaps:
                    nxt[at[u]], nxt[at[v]] = v, u
                out.append(tuple(nxt))
            return
        rec(idx + 1, used, swaps)
        u, v = cand[idx]
        if u not in used and v not in used:
            used |= {u, v}
            swaps.append((u, v))
            rec(idx + 1, used, swaps)
            swaps.pop()
            used -= {u, v}

    rec(0, set(), [])
    return out


def _cycles_from(adjset, verts, start, min_len):
    """Simple cycles through start using only vertices >= start (canonical)."""
    cycles = []
    path = [start]
    on_path = {start}

    def rec(v):
        for w in sorted(adjset[v]):
            if w == start and len(path) >= min_len:
                cycles.append(tuple(path))
            elif w > start and w not in on_path and w in verts:
                path.append(w)
                on_path.add(w)
                rec(w)
                on_path.remove(w)
                path.pop()

    rec(start)
    # each undirected cycle is found twice (both orientations); for length 2
    # both orientations coincide and the cycle is found once
    dedup = set()
    uniq = []
    for cyc in cycles:
        key = frozenset(cyc) if len(cyc) == 2 else cyc
        if len(cyc) == 2 and key in dedup:
            continue
        dedup.add(key)
        uniq.append(cyc)
    return uniq


def _rotation_steps(inst: Instance, pos, movable, min_len):
    """Successors by rotating vertex-disjoint cycles of occupied vertices."""
    verts = {pos[i] for i in movable}
    at = {pos[i]: i for i in movable}
    adjset = {v: [w for w in inst.graph.adj[v] if w in verts] for v in verts}
    all_cycles = []
    for s in sorted(verts):
        all_cycles.extend(_cycles_from(adjset, verts, s, min_len))
    out = []

    def apply(packing):
        nxt = list(pos)
        for cyc in packing:
            for a in range(len(cyc)):
                # item at cyc[a] moves to the next vertex in the cycle
                nxt[at[cyc[a]]] = cyc[(a + 1) % len(cyc)]
        out.append(tuple(nxt))

    def rec(idx, used, packing):
        if idx == len(all_cycles):
            if packing:
                apply(packing)
            return
        rec(idx + 1, used, packing)
        cyc = all_cycles[idx]
        if not used.intersection(cyc):
            packing.append(cyc)
            rec(idx + 1, used | set(cyc), packing)
            packing.pop()
        if len(cyc) > 2:
            rev = (cyc[0],) + tuple(reversed(cyc[1:]))
            if not used.intersection(rev):
                packing.append(rev)
                rec(idx + 1, used | set(rev), packing)
                packing.pop()

    rec(0, frozenset(), [])
    return out


def successor_positions(inst: Instance, pos, movable):
    """Legal next position tuples when only `movable` items may move."""
    if inst.variant == Variant.MAPF:
        steps = _mapf_steps(inst, pos, movable)
    elif inst.variant == Variant.TSWAP:
        steps = _swap_steps(inst, pos, movable)
    elif inst.variant == Variant.TROT:
        steps = _rotation_steps(inst, pos, movable, 3)
    else:
        steps = _rotation_steps(inst, pos, movable, 2)
    return [s for s in steps if s != pos] + ([pos] if movable else [])


def _check_caps(inst: Instance, vertex_cap, item_cap):
    if inst.graph.n > vertex_cap or inst.k > item_cap:
        raise ValueError(
            f"instance too large for exhaustive search "
            f"(n={inst.graph.n}>{vertex_cap} or k={inst.k}>{item_cap})"
        )


def is_solvable(inst: Instance, vertex_cap=DEFAULT_VERTEX_CAP,
                item_cap=DEFAULT_ITEM_CAP) -> bool:
    """Reachability of the goal configuration, ignoring costs."""
    _check_caps(inst, vertex_cap, item_cap)
    goal = inst.goals
    start = inst.starts
    if start == goal:
        return True
    seen = {start}
    frontier = [start]
    movable = list(range(inst.k))
    while frontier:
        if len(seen) > STATE_CAP:
            raise MemoryError("state cap exceeded in reachability check")
        nxt_frontier = []
        for pos in frontier:
            for nxt in successor_positions(inst, pos, movable):
                if nxt not in seen:
                    if nxt == goal:
                        return True
                    seen.add(nxt)
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return False


def oracle_solve(inst: Instance, timeout: float | None = None,
                 vertex_cap=DEFAULT_VERTEX_CAP,
                 item_cap=DEFAULT_ITEM_CAP) -> SolveResult:
    """Minimum sum-of-costs by Dijkstra over (positions, settled-mask)."""
    t0 = time.monotonic()
    stats = SolveStats(algorithm="oracle")
    _check_caps(inst, vertex_cap, item_cap)
    k = inst.k
    goals = inst.goals
    start_state = (inst.starts, 0)
    dist = {start_state: 0}
    parent: dict = {start_state: None}
    heap = [(0, 0, start_state)]
    seq = 0
    best_goal = None

    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist.get(state, -1):
            continue
        pos, mask = state
        if pos == goals:
            best_goal = state
            break
        if len(dist) > STATE_CAP:
            return finish(stats, t0, STATUS_LIMIT)
        if timeout is not None and time.monotonic() - t0 > timeout:
            return finish(stats, t0, STATUS_TIMEOUT)
        succs = []
        # settle any one unsettled item already at its goal (free)
        for i in range(k):
            if not mask >> i & 1 and pos[i] == goals[i]:
                succs.append(((pos, mask | (1 << i)), 0))
        movable = [i for i in range(k) if not mask >> i & 1]
        step_cost = len(movable)
        if movable:
            for nxt in successor_positions(inst, pos, movable):
                if nxt != pos:
                    succs.append(((nxt, mask), step_cost))
        for nstate, w in succs:
            nd = d + w
            if nd < dist.get(nstate, nd + 1):
                dist[nstate] = nd
                parent[nstate] = state
                seq += 1
                heapq.heappush(heap, (nd, seq, nstate))

    if best_goal is None:
        return finish(stats, t0, STATUS_UNSOLVABLE)
    # reconstruct configuration sequence, collapsing settle transitions
    configs = []
    state = best_goal
    while state is not None:
        pos = state[0]
        if not configs or configs[-1] != pos:
            configs.append(pos)
        state = parent[state]
    configs.reverse()
    paths = tuple(tuple(cfg[i] for cfg in configs) for i in range(k))
    plan = make_plan(paths)
    if plan.cost != dist[best_goal]:
        raise RuntimeError("reconstructed plan does not cost the optimum found")
    return finish(stats, t0, STATUS_SOLVED, plan)
