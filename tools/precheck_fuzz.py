"""Differential check of the solvability precheck against the oracle.

    python3 tools/precheck_fuzz.py --seed S --count N

Run from the root of a checkout. Draws N instances from
`small_graph_instances(S, N)`, the generator of the tier-1 slice in
tests/test_reachability.py, and compares every True/False answer of
`reachability.decide` with `oracle.is_solvable`. Prints each disagreement as
(variant; edges; starts -> goals), then how many instances each rule
decided, and exits 1 if there was any disagreement.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reloc.graphs import Graph, build_graph, make_clique  # noqa: E402
from reloc.oracle import is_solvable  # noqa: E402
from reloc.reachability import RULES, decide  # noqa: E402
from reloc.relocation import Instance, Variant  # noqa: E402

FAMILIES = ("tree", "cycle", "chorded", "blocks", "k4", "k23", "theta0")


def _cycle_edges(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def small_graph(family: str, rng: random.Random) -> Graph:
    """One graph of a small family, drawn from rng."""
    if family == "tree":
        n = rng.randint(3, 7)
        return build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
    if family == "cycle":
        n = rng.randint(3, 7)
        return build_graph(n, _cycle_edges(list(range(n))))
    if family == "chorded":
        n = rng.randint(4, 7)
        chords = [(u, v) for u in range(n) for v in range(u + 2, n)
                  if (u, v) != (0, n - 1)]
        edges = _cycle_edges(list(range(n))) + rng.sample(chords, rng.randint(1, 2))
        return build_graph(n, edges)
    if family == "blocks":  # two cycles sharing vertex 0
        a, b = rng.randint(3, 4), rng.randint(3, 4)
        first = list(range(a))
        second = [0] + list(range(a, a + b - 1))
        return build_graph(a + b - 1, _cycle_edges(first) + _cycle_edges(second))
    if family == "k4":
        return make_clique(4)
    if family == "k23":
        return build_graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    if family == "theta0":  # Wilson's exception: a hexagon and a vertex
        return build_graph(7, _cycle_edges(list(range(6))) + [(0, 6), (3, 6)])
    raise ValueError(f"unknown small graph family {family!r}")


def small_graph_instances(seed: int, count: int) -> list[Instance]:
    """Seeded small instances whose solvability turns on cycle and block
    structure: trees, cycles, chorded cycles, two blocks joined at a vertex,
    K4, K2,3 and Wilson's theta0, all four variants by turns. MAPF leaves 1
    or 2 vertices empty in most draws; token goals are a permutation of the
    starts in most draws."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        variant = list(Variant)[n % 4]
        g = small_graph(FAMILIES[n // 4 % len(FAMILIES)], rng)
        if variant == Variant.MAPF:
            k = g.n - rng.choice((1, 2, 2, rng.randint(1, g.n - 1)))
        else:
            k = rng.randint(max(1, g.n - 2), g.n)
        k = max(1, min(k, 6))
        starts = tuple(rng.sample(range(g.n), k))
        if variant != Variant.MAPF and rng.random() < 0.8:
            goals = tuple(rng.sample(starts, k))
        else:
            goals = tuple(rng.sample(range(g.n), k))
        out.append(Instance(g, variant, starts, goals))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args(argv)
    decided = Counter()
    wrong = 0
    for inst in small_graph_instances(args.seed, args.count):
        rule, answer = decide(inst)
        decided[rule] += 1
        if answer is None:
            continue
        want = is_solvable(inst, vertex_cap=inst.graph.n, item_cap=inst.k)
        if answer != want:
            wrong += 1
            edges = " ".join(f"({u},{v})" for u, v in sorted(inst.graph.edges))
            print(f"DISAGREE {rule} says {answer}, oracle {want}: "
                  f"({inst.variant.value}; {edges}; {inst.starts} -> {inst.goals})")
    print(", ".join(f"{rule} {decided[rule]}" for rule in RULES)
          + f"; {wrong} disagreements")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
