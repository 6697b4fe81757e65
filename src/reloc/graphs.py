"""Undirected graphs and hop-distance tables for relocation instances."""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sentinel hop distance for unreachable pairs.
INF = 1 << 30


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as (u, v) pairs with u < v; adjacency lists are sorted
    and symmetric by construction. The hash is the fields' hash, worked out once.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.n, self.edges, self.adj)))

    def __hash__(self) -> int:
        return self._hash

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges


def build_graph(n: int, edge_iter) -> Graph:
    """Normalize and validate an edge collection into a Graph."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    edges = set()
    for u, v in edge_iter:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        edges.add((min(u, v), max(u, v)))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, frozenset(edges), tuple(tuple(sorted(a)) for a in adj))


def make_grid(width: int, height: int) -> Graph:
    """4-connected grid, vertices numbered row-major."""
    if width < 1 or height < 1:
        raise ValueError(f"grid dimensions must be positive, got {width}x{height}")
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return build_graph(width * height, edges)


def make_random(n: int, extra_fraction: float, seed: int) -> Graph:
    """Connected random graph: random spanning tree plus extra random edges.

    The number of extra edges is floor(extra_fraction * n*(n-1)/2), capped at
    the number of available non-tree pairs. Deterministic per seed.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    if not 0.0 <= extra_fraction <= 1.0:
        raise ValueError(f"extra_fraction must be in [0,1], got {extra_fraction}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    extra = int(extra_fraction * (n * (n - 1) // 2))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    extra = min(extra, len(candidates))
    edges.update(rng.sample(candidates, extra))
    return build_graph(n, edges)


def make_star(n: int) -> Graph:
    """Star with hub 0 and leaves 1..n-1."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def make_clique(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


@dataclass(frozen=True)
class DistTable:
    """Hop distances dist[u][v] by source u, INF when unreachable. The rows
    may cover only some sources; reading another row raises KeyError."""

    dist: dict[int, tuple[int, ...]]

    def __call__(self, u: int, v: int) -> int:
        return self.dist[u][v]


def bfs_distances(n: int, adj, source: int) -> list[int]:
    dist = [INF] * n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] > du:
                    dist[v] = du
                    nxt.append(v)
        frontier = nxt
    return dist


def all_pairs_distances(g: Graph) -> DistTable:
    """BFS from every vertex; exact unit-weight hop distances."""
    return DistTable({s: tuple(bfs_distances(g.n, g.adj, s)) for s in range(g.n)})
