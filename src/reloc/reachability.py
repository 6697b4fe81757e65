"""Exact solvability checks that avoid the oracle's exhaustive step search.

`decide(inst, deadline)` answers whether the goal configuration is reachable
at all, ignoring cost, and names the rule that answered. The rules, tried in
order:

  cut-off        an item cannot reach its goal over the effective adjacency:
                 False.
  swaps          TSWAP, TPERM: the support stays fully occupied, and swaps
                 along the edges of a connected occupied subgraph realize
                 every permutation of its items: True.
  two-connected  MAPF on a 2-connected graph that is not a cycle, with at
                 least two empty vertices: True. Every arrangement is then
                 reachable (Kornhauser, Miller & Spirakis, FOCS 1984).
  cycle          MAPF on a cycle: items cannot pass each other, and with one
                 empty vertex they can slide to any placement, so the goal is
                 reachable exactly when it keeps the start's cyclic order.
  rotations      TROT: the support stays fully occupied, so a step is a
                 permutation of the support, and the steps are products of
                 disjoint rotations, which commute. The goal is reachable
                 exactly when the start->goal permutation lies in the group
                 generated by the rotations of the support's simple cycles
                 of length >= 3. Cycles lie within biconnected blocks; each
                 block's group is built by Schreier-Sims (Sims 1970) from
                 its cycles until it is the whole symmetric group of the
                 block or the cycles run out. None when the enumeration
                 passes its limits.
  single-moves   other MAPF with n <= 10 and k <= 5: search over single-item
                 moves. That is exact, because a legal parallel step splits
                 into single moves, each into a vertex that was empty before
                 the step and that no other move of the step targets.
  none           anything else: None, undecided.

Nothing here is cached: every call pays for its own check.
"""

from __future__ import annotations

import time
from math import factorial

from .encoder import lower_bound
from .graphs import INF
from .relocation import Instance, Variant, effective_adjacency

RULE_CUT_OFF = "cut-off"
RULE_SWAPS = "swaps"
RULE_TWO_CONNECTED = "two-connected"
RULE_CYCLE = "cycle"
RULE_ROTATIONS = "rotations"
RULE_SINGLE_MOVES = "single-moves"
RULE_NONE = "none"
RULES = (RULE_CUT_OFF, RULE_SWAPS, RULE_TWO_CONNECTED, RULE_CYCLE,
         RULE_ROTATIONS, RULE_SINGLE_MOVES, RULE_NONE)

SINGLE_MOVES_VERTEX_CAP = 10
SINGLE_MOVES_ITEM_CAP = 5
CYCLE_CAP = 2_000  # cycles enumerated per instance before giving up
PATH_STEP_CAP = 200_000  # path extensions of the cycle enumeration
DEADLINE_EVERY = 1024  # configurations expanded between clock checks


def decide(inst: Instance, deadline: float | None = None) -> tuple[str, bool | None]:
    """(rule, answer): answer is True/False when the rule decides
    reachability, None when no rule applies. Raises TimeoutError when the
    single-move search or the group construction passes `deadline`."""
    if lower_bound(inst) >= INF:
        return RULE_CUT_OFF, False
    if inst.variant in (Variant.TSWAP, Variant.TPERM):
        return RULE_SWAPS, True
    adj = effective_adjacency(inst)
    if inst.variant == Variant.TROT:
        return RULE_ROTATIONS, _rotations_reach(adj, inst.starts, inst.goals, deadline)
    g = inst.graph
    blocks = biconnected_blocks(adj, range(g.n))
    if g.n >= 3 and len(blocks) == 1 and len(blocks[0]) == g.n:
        if len(g.edges) > g.n:
            if g.n - inst.k >= 2:
                return RULE_TWO_CONNECTED, True
        else:
            return RULE_CYCLE, _keeps_cyclic_order(adj, inst.starts, inst.goals)
    if g.n <= SINGLE_MOVES_VERTEX_CAP and inst.k <= SINGLE_MOVES_ITEM_CAP:
        return RULE_SINGLE_MOVES, _single_moves_reach(adj, inst.starts, inst.goals,
                                                      deadline)
    return RULE_NONE, None


def biconnected_blocks(adj, vertices) -> list[list[int]]:
    """Vertex lists of the biconnected blocks of the graph `adj` restricted
    to the components of `vertices`; a bridge is a block of two vertices,
    an isolated vertex is in none. One iterative lowpoint DFS (Hopcroft &
    Tarjan 1973)."""
    index = [0] * len(adj)  # DFS number from 1; 0 while unvisited
    low = [0] * len(adj)
    count = 0
    blocks = []
    for root in vertices:
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack = [root]  # vertices whose block is not yet closed
        walk = [(root, iter(adj[root]))]
        while walk:
            v, nbrs = walk[-1]
            for w in nbrs:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    walk.append((w, iter(adj[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                walk.pop()
                if not walk:
                    continue
                u = walk[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= index[u]:  # u separates v's subtree: close a block
                    block = [u]
                    while block[-1] != v:
                        block.append(stack.pop())
                    blocks.append(block)
    return blocks


def _keeps_cyclic_order(adj, starts, goals) -> bool:
    """Whether goals lists the items in the cyclic order of starts around
    the cycle `adj`, in the same direction."""
    walk = [0, adj[0][0]]
    while len(walk) < len(adj):
        a, b = adj[walk[-1]]
        walk.append(b if a == walk[-2] else a)
    order = []
    for cfg in (starts, goals):
        at = {v: i for i, v in enumerate(cfg)}
        order.append([at[v] for v in walk if v in at])
    start, goal = order
    if not start:
        return True
    shift = goal.index(start[0])
    return goal[shift:] + goal[:shift] == start


def _single_moves_reach(adj, starts, goals, deadline) -> bool:
    """Search over configurations, one item moving into an empty neighbour
    per step."""
    if starts == goals:
        return True
    seen = {starts}
    todo = [starts]
    expanded = 0
    while todo:
        pos = todo.pop()
        expanded += 1
        if (deadline is not None and expanded % DEADLINE_EVERY == 0
                and time.monotonic() > deadline):
            raise TimeoutError("reachability search ran past its deadline")
        occupied = set(pos)
        for i, u in enumerate(pos):
            for v in adj[u]:
                if v in occupied:
                    continue
                nxt = pos[:i] + (v,) + pos[i + 1:]
                if nxt in seen:
                    continue
                if nxt == goals:
                    return True
                seen.add(nxt)
                todo.append(nxt)
    return False


class _CycleLimit(Exception):
    """The cycle enumeration passed CYCLE_CAP or PATH_STEP_CAP."""


def _rotations_reach(adj, starts, goals, deadline) -> bool | None:
    """Whether the start->goal permutation of the support lies in the group
    generated by rotations of the support's cycles of length >= 3; None when
    the cycle enumeration passes its limits."""
    point = {v: p for p, v in enumerate(starts)}  # support vertex -> point
    target = [0] * len(starts)
    for s, g in zip(starts, goals):
        target[point[s]] = point[g]
    target = tuple(target)
    identity = tuple(range(len(starts)))
    if target == identity:
        return True
    budget = [CYCLE_CAP, PATH_STEP_CAP]
    groups = []
    try:
        for block in biconnected_blocks(adj, starts):
            if len(block) < 3:
                continue
            group = _Chain()
            full = factorial(len(block))
            for cycle in _block_cycles(adj, block, budget):
                group.extend(_rotation(identity, [point[v] for v in cycle]), deadline)
                if group.order() == full:
                    break
            if group.base is not None:
                groups.append(group)
    except _CycleLimit:
        return None
    if len(groups) == 1:
        return groups[0].contains(target)
    whole = _Chain()
    for group in groups:
        for gen in group.strong_generators():
            whole.extend(gen, deadline)
    return whole.contains(target)


def _block_cycles(adj, block, budget):
    """Each simple cycle of length >= 3 of one biconnected block once,
    shortest first, as a vertex list that starts at its smallest vertex and
    whose second vertex is smaller than its last. `budget` holds the cycles
    and path steps left."""
    inside = set(block)
    badj = {v: [w for w in adj[v] if w in inside] for v in block}
    order = sorted(block)
    for length in range(3, len(block) + 1):
        for s in order:
            path = [s]
            on_path = {s}
            walk = [iter(badj[s])]
            while walk:
                for w in walk[-1]:
                    if w == s:
                        if len(path) == length and path[1] < path[-1]:
                            budget[0] -= 1
                            if budget[0] < 0:
                                raise _CycleLimit
                            yield path
                    elif w > s and w not in on_path and len(path) < length:
                        budget[1] -= 1
                        if budget[1] < 0:
                            raise _CycleLimit
                        path.append(w)
                        on_path.add(w)
                        walk.append(iter(badj[w]))
                        break
                else:
                    walk.pop()
                    on_path.discard(path.pop())


def _rotation(identity, cycle) -> tuple[int, ...]:
    """The permutation moving the token at cycle[a] to cycle[a + 1]."""
    perm = list(identity)
    for a, p in enumerate(cycle):
        perm[p] = cycle[a - len(cycle) + 1]
    return tuple(perm)


def _inverse(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return tuple(inv)


class _Chain:
    """A stabilizer chain of a permutation group on points 0..m-1, built by
    the incremental Schreier-Sims algorithm (Sims 1970). A permutation p
    maps point x to p[x]; the product applies the right factor first.

    Each level fixes the base points of the levels above it. `trans` maps
    every point of the orbit of `base` to a (u, u^-1) with u(base) = point,
    and `stab` is the chain of the stabilizer of `base`, generated by the
    Schreier generators u_{s(p)}^-1 s u_p (Schreier's lemma).
    """

    __slots__ = ("base", "gens", "trans", "stab")

    def __init__(self):
        self.base = None  # None while the group is trivial
        self.gens = []
        self.trans = {}
        self.stab = None

    def contains(self, perm) -> bool:
        level = self
        while level.base is not None:
            coset = level.trans.get(perm[level.base])
            if coset is None:
                return False
            inv = coset[1]
            perm = tuple([inv[y] for y in perm])
            level = level.stab
        return all(x == y for x, y in enumerate(perm))

    def order(self) -> int:
        size = 1
        level = self
        while level.base is not None:
            size *= len(level.trans)
            level = level.stab
        return size

    def strong_generators(self):
        level = self
        while level.base is not None:
            yield from level.gens
            level = level.stab

    def extend(self, perm, deadline=None) -> None:
        """Make the group the one generated by itself and perm."""
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("group construction ran past its deadline")
        if self.contains(perm):
            return
        if self.base is None:
            self.base = next(x for x, y in enumerate(perm) if x != y)
            identity = tuple(range(len(perm)))
            self.trans = {self.base: (identity, identity)}
            self.stab = _Chain()
        self.gens.append(perm)
        # old orbit points meet only the new generator; new points meet all
        new = []
        for p in list(self.trans):
            self._schreier(p, perm, new, deadline)
        while new:
            p = new.pop()
            for s in self.gens:
                self._schreier(p, s, new, deadline)

    def _schreier(self, p, s, new, deadline) -> None:
        q = s[p]
        t = tuple([s[x] for x in self.trans[p][0]])  # maps base to q
        coset = self.trans.get(q)
        if coset is None:
            self.trans[q] = (t, _inverse(t))
            new.append(q)
        else:
            inv = coset[1]
            self.stab.extend(tuple([inv[y] for y in t]), deadline)
