"""Conflict-based search for optimal sum-of-costs relocation.

Two-level search: the low level plans each item independently under its
bans, a set of banned states (v, t) and a set of banned moves (u, v, t); the
high level best-first searches over the items' bans, splitting on the first
collision of the joint plan. Each child bans one more state or move of one
item. The branching rule is chosen by the collision's kind alone, and keeps
optimality because every solution breaks at least one child's ban:

  vertex    (shared vertex)       -> ban the vertex at that time for
                                     either item
  occupancy (MAPF occupied target) -> ban the mover's arrival or the
                                     occupant's stay
  rot       (TROT head-on swap)   -> ban either traversal of the edge
  swap      (TSWAP unreciprocated -> ban the traversal, or ban the
            traversal)               would-be partner's actual action at that
                                     time (any solution containing the
                                     traversal swaps the partner back, which
                                     differs from the partner's current action)

Degenerate collisions (i == j: a token move into an unoccupied vertex,
kind empty, or swap under TSWAP) never need a branch: items of a token
variant are confined to the support, and if some support vertex is empty at
time t then two items share another vertex at t, so a shared-vertex
collision at the same time always exists and is split instead.

Each CT node does only the work the split uses. Conflict detection
(`joint_collisions`) walks the joint plan step by step through
`relocation.step_collisions` and stops at the first step after which no
collision can sort before the best one found; the low level
(`pathfinder.constrained_shortest_path`) reads the item's ban sets as the
CT node keeps them, a pair of frozensets per item.

A solve generates each tuple of bans once: a child whose bans equal those
of any node generated before it (the root, or a child pushed, infeasible or
over the cap) is dropped before it is planned, and each (item, states,
moves) is planned once. A node's paths are a function of its bans, so a
duplicate's subtree repeats that of its first copy, which has the same cost
and a smaller counter. The first copies therefore pop in the same
(cost, counter) order as without the rule, and the plan, ξ and status are
the same; only the CT node count falls.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import pairwise

from .encoder import lower_bound
from .graphs import INF
from .pathfinder import constrained_shortest_path
from .reachability import decide
from .relocation import (
    Collision,
    Instance,
    KIND_OCCUPANCY,
    KIND_ROT,
    KIND_VERTEX,
    effective_adjacency,
    effective_distances,
    make_plan,
    step_collisions,
)
from .result import (
    STATUS_LIMIT,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    STATUS_UNSOLVABLE,
    SolveResult,
    SolveStats,
    finish,
)


def cost_cutoff(inst: Instance) -> int:
    """Cost bound past which the search gives up on proving solvability."""
    return lower_bound(inst) + 4 * inst.graph.n * inst.graph.n


def solvability_precheck(inst: Instance, deadline: float | None = None) -> bool | None:
    """True/False when solvability is decidable cheaply, else None.

    The rules of `reachability.decide`, in order:

    1. An item cut off from its goal: False.
    2. TSWAP and TPERM: True, since swaps along the edges of a connected,
       fully occupied support realize every permutation of its items.
    3. MAPF on a 2-connected graph that is not a cycle, with at least two
       empty vertices: True (Kornhauser, Miller & Spirakis, FOCS 1984).
    4. MAPF on a cycle: True exactly when the goal keeps the start's cyclic
       order of items.
    5. TROT: membership of the start->goal permutation in the group
       generated by rotations of the support's cycles, by Schreier-Sims
       (Sims 1970); None when the cycle enumeration passes its limits.
    6. Other MAPF with n <= 10 and k <= 5: a search over single-item moves,
       exact because every legal parallel step splits into single moves
       into vertices that were empty before the step.
    7. Anything else: None.

    Raises TimeoutError when rule 5 or 6 passes `deadline`.
    """
    return decide(inst, deadline)[1]


def search_cap(inst: Instance, deadline: float | None = None) -> int | None:
    """Cost cap of an optimal search, or None when the precheck proves the
    instance unsolvable. A certified-solvable instance is searched without a
    cap. Raises TimeoutError when the precheck passes `deadline`."""
    solvable = solvability_precheck(inst, deadline)
    if solvable is False:
        return None
    return INF if solvable else cost_cutoff(inst)


def padded_configs(paths):
    """Common-horizon view of per-item paths, extended by goal waits."""
    length = max(len(p) for p in paths)
    return [tuple(p) + (p[-1],) * (length - len(p)) for p in paths]


def joint_collisions(inst: Instance, padded) -> list[Collision]:
    """The head of `plan_collisions(inst, padded)` that the search uses.

    Returns the sorted collisions up to and including the first
    non-degenerate one, or all of them when there is none. Steps are scanned
    in time order; step t only yields collisions stamped t (rule violations)
    or t + 1 (shared vertices), so once the best non-degenerate collision so
    far is stamped at most t, no later step can sort before it.
    """
    found: list[Collision] = []
    best = None
    for t, (cur, nxt) in enumerate(pairwise(zip(*padded))):
        step = step_collisions(inst, cur, nxt, t)
        if not step:
            continue
        found.extend(step)
        first = next((c for c in step if not c.degenerate), None)
        if first is not None and (best is None or first.sort_key() < best.sort_key()):
            best = first
        if best is not None and best.t <= t:
            break
    found.sort(key=Collision.sort_key)
    if best is None:
        return found
    return found[:found.index(best) + 1]


def _branch_bans(col: Collision, padded):
    """The (item, ban) of each child for one non-degenerate collision; a ban
    is a state (v, t) or a move (u, v, t)."""
    t, i, v, j, u = col.t, col.i, col.v, col.j, col.u
    if col.kind == KIND_VERTEX:
        return [(i, (v, t)), (j, (v, t))]
    if col.kind == KIND_OCCUPANCY:
        return [(i, (v, t + 1)), (j, (v, t))]
    if col.kind == KIND_ROT:
        return [(i, (u, v, t)), (j, (v, u, t))]
    # swap: partner j sits at v and currently does w = padded[j][t+1]; any
    # solution keeping i's traversal needs j to do v->u instead.
    return [(i, (u, v, t)), (j, (v, padded[j][t + 1], t))]


@dataclass
class CTNode:
    bans: tuple  # per item: (banned states, banned moves), two frozensets
    paths: tuple[tuple[int, ...], ...]
    cost: int


def _replan(inst, adj, dist, item, states, moves):
    maxt = max([t for _, t in states] + [t for _, _, t in moves], default=-1)
    horizon = max(maxt + 1 + inst.graph.n, dist(inst.starts[item], inst.goals[item]))
    return constrained_shortest_path(
        adj, dist, inst.starts[item], inst.goals[item], states, moves, horizon
    )


def cbs_solve(inst: Instance, timeout: float | None = None) -> SolveResult:
    t0 = time.monotonic()
    deadline = None if timeout is None else t0 + timeout
    stats = SolveStats(algorithm="cbs")
    try:
        cap = search_cap(inst, deadline)
    except TimeoutError:
        return finish(stats, t0, STATUS_TIMEOUT)
    if cap is None:
        return finish(stats, t0, STATUS_UNSOLVABLE)

    adj = effective_adjacency(inst)
    dist = effective_distances(inst)
    empty = frozenset()
    root_paths = []
    for i in range(inst.k):
        p = _replan(inst, adj, dist, i, empty, empty)
        assert p is not None  # lower_bound is finite
        root_paths.append(tuple(p))
    root = CTNode(((empty, empty),) * inst.k, tuple(root_paths),
                  sum(len(p) - 1 for p in root_paths))

    seen = {root.bans}  # every ban tuple generated, pushed or not
    planned = {}  # (item, states, moves) -> _replan's path or None
    counter = 0
    capped = False
    open_heap = [(root.cost, 0, root)]
    while open_heap:
        if deadline is not None and time.monotonic() > deadline:
            return finish(stats, t0, STATUS_TIMEOUT)
        cost, _, node = heapq.heappop(open_heap)
        if cost > cap:
            capped = True
            break
        stats.ct_nodes += 1
        padded = padded_configs(node.paths)
        collisions = joint_collisions(inst, padded)
        pick = next((c for c in collisions if not c.degenerate), None)
        if pick is None:
            if collisions:
                # unreachable by the pigeonhole argument above
                raise RuntimeError("only degenerate collisions in joint plan")
            return finish(stats, t0, STATUS_SOLVED, make_plan(padded))
        for item, ban in _branch_bans(pick, padded):
            states, moves = node.bans[item]
            if len(ban) == 2:
                states = states | {ban}
            else:
                moves = moves | {ban}
            child_bans = node.bans[:item] + ((states, moves),) + node.bans[item + 1:]
            if child_bans in seen:
                continue
            seen.add(child_bans)
            key = (item, states, moves)
            if key not in planned:
                planned[key] = _replan(inst, adj, dist, item, states, moves)
            p = planned[key]
            if p is None:
                continue
            child_paths = node.paths[:item] + (tuple(p),) + node.paths[item + 1:]
            child_cost = node.cost - (len(node.paths[item]) - 1) + (len(p) - 1)
            if child_cost > cap:
                capped = True
                continue
            counter += 1
            heapq.heappush(
                open_heap,
                (child_cost, counter, CTNode(child_bans, child_paths, child_cost)),
            )
    # an empty open list certifies unsolvability; hitting the cap does not
    return finish(stats, t0, STATUS_LIMIT if capped else STATUS_UNSOLVABLE)
