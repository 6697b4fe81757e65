"""Fast checks of the benchmark's own parts: the checker and the tracer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checker  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from reloc import Instance, Variant, build_graph, cbs_solve, make_grid  # noqa: E402
from reloc import mdd_sat_solve, random_instance, smt_cbs_solve  # noqa: E402

PATH3 = build_graph(3, [(0, 1), (1, 2)])
SQUARE = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def inst(graph, variant, starts, goals):
    return Instance(graph, Variant(variant), tuple(starts), tuple(goals))


SOLVED = [
    random_instance(make_grid(2, 3), Variant.MAPF, 3, 1),
    inst(PATH3, "tswap", (0, 1, 2), (2, 1, 0)),
    inst(SQUARE, "trot", (0, 1, 2, 3), (1, 2, 3, 0)),
    inst(SQUARE, "tperm", (0, 1, 2, 3), (1, 0, 3, 2)),
]


@pytest.mark.parametrize("instance", SOLVED, ids=lambda i: i.variant.value)
def test_checker_accepts_solver_plans(instance):
    xis = set()
    for solve in (cbs_solve, mdd_sat_solve, smt_cbs_solve):
        res = solve(instance, timeout=10)
        assert res.status == "solved"
        assert checker.plan_problems(instance, res.plan.paths, res.xi) == []
        assert res.xi >= checker.bfs_lower_bound(instance)
        xis.add(res.xi)
    assert len(xis) == 1


# (instance, paths, claimed xi, a phrase the complaint must contain)
ILLEGAL = {
    "endpoint": (inst(PATH3, "mapf", (0,), (2,)), [(0, 1)], 1, "wants"),
    "edge": (inst(PATH3, "mapf", (0,), (2,)), [(0, 2)], 1, "without an edge"),
    "shared vertex": (
        inst(PATH3, "mapf", (0, 2), (2, 0)), [(0, 1, 2), (2, 1, 0)], 4, "share a vertex"),
    "mapf into occupied": (
        inst(PATH3, "mapf", (0, 1), (1, 2)), [(0, 1), (1, 2)], 2, "occupied vertex"),
    "tswap rotation": (
        inst(build_graph(3, [(0, 1), (1, 2), (0, 2)]), "tswap", (0, 1, 2), (1, 2, 0)),
        [(0, 1), (1, 2), (2, 0)], 3, "is not a swap"),
    "trot swap": (
        inst(PATH3, "trot", (0, 1), (1, 0)), [(0, 1), (1, 0)], 2, "too short for trot"),
    "tperm into empty": (
        inst(PATH3, "tperm", (0, 1), (1, 2)), [(0, 1), (1, 2)], 2, "unoccupied vertex"),
    "tswap into empty": (
        inst(PATH3, "tswap", (0,), (1,)), [(0, 1)], 1, "unoccupied vertex"),
    "cost": (inst(PATH3, "tswap", (0, 1), (1, 0)), [(0, 1), (1, 0)], 3, "plan costs 2"),
}


@pytest.mark.parametrize("case", ILLEGAL, ids=str)
def test_checker_rejects_illegal_step(case):
    instance, paths, xi, phrase = ILLEGAL[case]
    problems = checker.plan_problems(instance, paths, xi)
    assert any(phrase in p for p in problems), problems


def test_checker_accepts_legal_hand_made_steps():
    # a TPERM swap next to a stayer, and a MAPF move into a vacated-before vertex
    tperm = inst(PATH3, "tperm", (0, 1, 2), (1, 0, 2))
    assert checker.plan_problems(tperm, [(0, 1), (1, 0), (2, 2)], 2) == []
    mapf = inst(PATH3, "mapf", (0, 2), (1, 2))
    assert checker.plan_problems(mapf, [(0, 1), (2, 2)], 1) == []


def test_bfs_lower_bound_stays_in_the_token_support():
    # the token can reach its goal only through an unoccupied vertex
    token = inst(PATH3, "tswap", (0, 2), (2, 0))
    assert checker.bfs_lower_bound(token) == checker.INF
    agents = inst(PATH3, "mapf", (0, 2), (2, 0))
    assert checker.bfs_lower_bound(agents) == 4


def test_missing_hook_is_reported_and_the_run_goes_on(monkeypatch):
    layers = tuple(
        (span, module, "gone_" + attr) if span == "encoder.encode" else (span, module, attr)
        for span, module, attr in tracing.LAYERS
    )
    monkeypatch.setattr(tracing, "LAYERS", layers)
    instances = SOLVED[1:2]
    refs = [run.Reference(i, None) for i in instances]
    tally = run.Tally()
    metrics = run.per_layer(instances, refs, 0, tally)
    assert tally.failed == 0
    assert metrics["encoder.encode_s"]["value"] is None
    assert metrics["encoder.bounds"]["value"] is None
    assert metrics["satcore.search_calls"]["value"] > 0


def test_deterministic_counters_repeat_across_hash_seeds():
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1]]; import run; "
        "print(json.dumps(run.traced_counters('grid8-tokens', 1, 2)))"
    )
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(HERE)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outs[0] == outs[1]
    assert outs[0]["failed"] == 0
    assert all(outs[0][name] > 0 for name in run.DETERMINISTIC)
