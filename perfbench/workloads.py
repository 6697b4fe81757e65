"""The benchmark's workloads: fixed base instances, items renumbered by seed.

Each workload is a list of base instances made by reloc's own generators
(`bench.suite_instance`) from fixed generation seeds. A round of a run hands
the solvers a copy of every base instance whose items are renumbered by a
permutation drawn from (workload, --seed, round). Renumbering keeps every
answer (solvability and the optimum xi) but changes the solvers' tie-breaks:
the collision CBS splits on, the order of its constraint tree, and the
variable numbering of the SAT encodings. Different seeds therefore give
different inputs and different searches over the same problems.

Fresh random instances per seed were not used: CBS run times on them are so
heavy-tailed that a round total moves by more than any usable bound from one
seed to the next, and a seed can draw an instance that CBS cannot finish
within the budget. Renumbering the vertices as well was tried and dropped:
it trebled the seed-to-seed spread of the CT nodes per round on grid8-mapf
(coefficient of variation 0.22 against 0.07 for items only).
"""

from __future__ import annotations

import random

from reloc.bench import suite_instance
from reloc.relocation import Instance, Variant


def _cells(family, variants, ks, gen_seeds):
    """Instance cells; k cycles through ks over the generation seeds."""
    return [
        (family, variant, ks[s % len(ks)], s)
        for variant in variants
        for s in gen_seeds
    ]


# (family, variant, k, generation seed) of every base instance
WORKLOADS = {
    # permutation instances; TROT is left out on 8x8 because its unsolvable
    # instances run to the budget instead of ending as unsolvable
    "grid8-tokens": _cells("grid8", (Variant.TSWAP, Variant.TPERM), (6,), range(10)),
    # k=5: from k=6 on, CBS needs seconds on some instances under some
    # numberings, and the round totals stop repeating from seed to seed
    "grid8-mapf": _cells("grid8", (Variant.MAPF,), (5,), range(48)),
    # every variant on every small graph; MAPF keeps k=3 because the hub of
    # star8 and the 3x3 grid congest with more agents
    "desk": [
        cell
        for family in ("grid3", "star8", "clique5", "rand8")
        for cell in _cells(family, (Variant.TSWAP, Variant.TROT, Variant.TPERM),
                           (3, 4, 5), range(12))
        + _cells(family, (Variant.MAPF,), (3,), range(12))
    ],
}


def base_instances(workload: str) -> list[Instance]:
    return [suite_instance(*cell) for cell in WORKLOADS[workload]]


def renumber(inst: Instance, rng: random.Random) -> Instance:
    """Copy of inst with its items listed in a random order."""
    order = list(range(inst.k))
    rng.shuffle(order)
    return Instance(
        inst.graph,
        inst.variant,
        tuple(inst.starts[i] for i in order),
        tuple(inst.goals[i] for i in order),
    )


def round_instances(workload: str, base: list[Instance], seed: int, rnd: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    return [renumber(inst, rng) for inst in base]
