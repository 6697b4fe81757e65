"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s or look at captured output).
The 8x8-grid comparison tests honour RELOC_ACCEPT_TIMEOUT (seconds per run,
default 5) so the whole file stays within its time budget on slow machines.
"""

import itertools
import os
import statistics

import pytest

from reloc.bench import CSV_HEADER, RUNTIME_COLUMNS, rows_to_csv, run_suite
from reloc.cbs import cbs_solve
from reloc.encoder import encode_full, lower_bound
from reloc.graphs import INF, build_graph, make_clique, make_grid, make_random, make_star
from reloc.oracle import oracle_solve
from reloc.relocation import (
    TOKEN_VARIANTS,
    Instance,
    Variant,
    plan_cost,
    random_instance,
    random_permutation_instance,
    validate,
)
from reloc.satcore import solve as sat_solve
from reloc.solvers import mdd_sat_solve, smt_cbs_solve

PER_RUN_TIMEOUT = float(os.environ.get("RELOC_ACCEPT_TIMEOUT", "5"))

SMALL_GRAPHS = [
    ("grid3", make_grid(3, 3)),
    ("star8", make_star(8)),
    ("clique5", make_clique(5)),
    ("rand8", make_random(8, 0.2, 1000)),
]

SOLVERS = [("cbs", cbs_solve), ("mddsat", mdd_sat_solve), ("smtcbs", smt_cbs_solve)]


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def small_instances(variant, count):
    """`count` seeded instances per variant spread over the small graphs."""
    out = []
    seed = 0
    per_graph = -(-count // len(SMALL_GRAPHS))
    for _, g in SMALL_GRAPHS:
        for _ in range(per_graph):
            if len(out) == count:
                return out
            k = 2 + seed % 3
            out.append(random_instance(g, variant, k, seed))
            seed += 1
    return out


def test_criterion_1_oracle_equivalence():
    checked = mismatches = 0
    for variant in Variant:
        for inst in small_instances(variant, 100):
            want = oracle_solve(inst)
            for name, solver in SOLVERS:
                got = solver(inst, timeout=60)
                checked += 1
                if got.status != want.status or (
                    want.status == "solved" and got.xi != want.xi
                ):
                    mismatches += 1
    report(
        "criterion 1: solver optima match the brute-force oracle",
        mismatches == 0,
        f"{checked} solver runs on 400 instances, {mismatches} mismatches",
    )


def test_criterion_2_plan_validity():
    bad = total = 0
    solver_cycle = itertools.cycle(SOLVERS)
    seed = 0
    while total < 1000:
        for variant in Variant:
            if total == 1000:
                break
            _, g = SMALL_GRAPHS[seed % len(SMALL_GRAPHS)]
            inst = random_instance(g, variant, 2 + seed % 3, 10_000 + seed)
            name, solver = next(solver_cycle)
            res = solver(inst, timeout=60)
            total += 1
            if res.status == "solved":
                if validate(inst, res.plan) or plan_cost(res.plan.paths) != res.xi:
                    bad += 1
            seed += 1
    report(
        "criterion 2: every returned plan validates and costs its reported xi",
        bad == 0,
        f"{total} runs, {bad} invalid",
    )


def grid8_suite():
    """Shared suite for criteria 3 and 4: 8x8 grid, MAPF and TSWAP,
    k in {8, 12, 16}, 10 seeds each."""
    g = make_grid(8, 8)
    out = []
    for variant in (Variant.MAPF, Variant.TSWAP):
        for k in (8, 12, 16):
            for seed in range(10):
                if variant is Variant.MAPF:
                    inst = random_instance(g, variant, k, seed)
                else:
                    inst = random_permutation_instance(g, variant, k, seed)
                out.append((variant, k, seed, inst))
    return out


@pytest.fixture(scope="module")
def grid8_results():
    results = {}
    for variant, k, seed, inst in grid8_suite():
        lazy = smt_cbs_solve(inst, timeout=PER_RUN_TIMEOUT)
        eager = mdd_sat_solve(inst, timeout=PER_RUN_TIMEOUT)
        entry = {"smtcbs": lazy, "mddsat": eager}
        if k == 16:
            entry["cbs"] = cbs_solve(inst, timeout=PER_RUN_TIMEOUT)
        results[variant, k, seed] = (inst, entry)
    return results


def test_criterion_3_lazy_clause_counts(grid8_results):
    ratios = []
    violations = solved_pairs = 0
    for (variant, k, seed), (inst, entry) in grid8_results.items():
        lazy, eager = entry["smtcbs"], entry["mddsat"]
        if lazy.status != "solved":
            continue
        # clause comparison is at the same final xi
        f, _ = encode_full(inst, lazy.xi)
        full_clauses = len(f.clauses)
        solved_pairs += 1
        ratios.append(lazy.stats.clauses / full_clauses)
        if not lazy.stats.clauses < full_clauses:
            violations += 1
    ok = solved_pairs > 0 and violations == 0
    mean_ratio = statistics.fmean(ratios) if ratios else float("nan")
    report(
        "criterion 3: lazy encoding always ends with fewer clauses than eager",
        ok,
        f"{solved_pairs} solved 8x8 runs, {violations} violations, "
        f"mean lazy/eager clause ratio {mean_ratio:.3f}",
    )


def test_criterion_4_runtime_ordering(grid8_results):
    lazy_sat, eager_sat = [], []
    rates = {"cbs": [0, 0], "mddsat": [0, 0], "smtcbs": [0, 0]}
    for (variant, k, seed), (inst, entry) in grid8_results.items():
        if entry["smtcbs"].status == "solved" and entry["mddsat"].status == "solved":
            lazy_sat.append(entry["smtcbs"].stats.sat_time)
            eager_sat.append(entry["mddsat"].stats.sat_time)
        if k == 16:
            for name in ("cbs", "mddsat", "smtcbs"):
                rates[name][1] += 1
                if entry[name].status == "solved":
                    rates[name][0] += 1
    mean_lazy = statistics.fmean(lazy_sat) if lazy_sat else 0.0
    mean_eager = statistics.fmean(eager_sat) if eager_sat else 0.0
    cbs_rate = rates["cbs"][0] / rates["cbs"][1]
    sat_rates = [rates[n][0] / rates[n][1] for n in ("mddsat", "smtcbs")]
    ok = mean_lazy <= mean_eager and all(cbs_rate <= r for r in sat_rates)
    report(
        "criterion 4: lazy SAT time <= eager SAT time; search-only solve "
        "rate <= SAT solve rates at k=16",
        ok,
        f"mean SAT time lazy {mean_lazy:.3f}s vs eager {mean_eager:.3f}s "
        f"over {len(lazy_sat)} co-solved runs; k=16 solve rates "
        f"cbs {cbs_rate:.2f}, mddsat {sat_rates[0]:.2f}, smtcbs {sat_rates[1]:.2f}",
    )


def tiny_instances():
    graphs = [
        build_graph(2, [(0, 1)]),
        build_graph(3, [(0, 1), (1, 2)]),
        make_clique(3),
        build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        make_clique(4),
        build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # 4-cycle
        make_star(4),
    ]
    for g in graphs:
        for variant in Variant:
            max_k = min(3, g.n - 1 if variant == Variant.MAPF else g.n)
            for k in range(1, max_k + 1):
                for starts in itertools.permutations(range(g.n), k):
                    for goals in itertools.permutations(range(g.n), k):
                        yield Instance(g, variant, starts, goals)


def test_criterion_5_encoding_equals_reachability():
    checked = mismatches = 0
    for inst in tiny_instances():
        want = oracle_solve(inst)
        lb = lower_bound(inst)
        if lb >= INF:
            if want.status != "unsolvable":
                mismatches += 1
            continue
        for xi in range(lb, lb + 3):
            f, _ = encode_full(inst, xi)
            res = sat_solve(f)
            reachable = want.status == "solved" and want.xi <= xi
            checked += 1
            if (res != "UNSAT") != reachable:
                mismatches += 1
    report(
        "criterion 5: full-encoding satisfiability equals plan existence "
        "within the cost bound",
        mismatches == 0,
        f"{checked} (instance, bound) pairs on <=4-vertex graphs, "
        f"{mismatches} mismatches",
    )


def test_criterion_6_refinement_invariants():
    # a stalled inner loop raises, and the bound loop posts each record once per
    # bound, which adds no clause twice (the premise is checked by
    # test_encoder.py::test_distinct_records_ground_to_distinct_clauses)
    runs = with_refinement = 0
    for seed in range(500):
        _, g = SMALL_GRAPHS[seed % len(SMALL_GRAPHS)]
        variant = list(Variant)[seed % 4]
        inst = random_instance(g, variant, 2 + seed % 3, 20_000 + seed)
        res = smt_cbs_solve(inst, timeout=60)
        runs += 1
        if res.stats.refinements > 0:
            with_refinement += 1
    report(
        "criterion 6: 500 refinement runs, duplicate-free within each bound, "
        "all inner loops terminated",
        runs == 500 and with_refinement > 0,
        f"{runs} runs, {with_refinement} exercised at least one refinement",
    )


def test_criterion_7_deterministic_metrics():
    def strip_runtime(text):
        drop = [CSV_HEADER.index(c) for c in RUNTIME_COLUMNS]
        lines = []
        for line in text.splitlines():
            cols = line.split(",")
            lines.append(",".join(c for i, c in enumerate(cols) if i not in drop))
        return "\n".join(lines)

    a = rows_to_csv(run_suite("desk", seeds=2, timeout=30))
    b = rows_to_csv(run_suite("desk", seeds=2, timeout=30))
    ok = strip_runtime(a) == strip_runtime(b)
    report(
        "criterion 7: metrics CSV byte-identical across same-seed runs "
        "(runtime columns excluded)",
        ok,
        f"{len(a.splitlines()) - 1} rows compared",
    )


def test_criterion_8_single_swap_sanity():
    g = build_graph(2, [(0, 1)])
    failures = []
    for name, solver in SOLVERS:
        for variant, want_status, want_xi in [
            (Variant.TSWAP, "solved", 2),
            (Variant.TROT, "unsolvable", None),
            (Variant.TPERM, "solved", 2),
        ]:
            res = solver(Instance(g, variant, (0, 1), (1, 0)), timeout=30)
            if res.status != want_status or res.xi != want_xi:
                failures.append((name, variant.value, res.status, res.xi))
    report(
        "criterion 8: two tokens on one edge -- swap costs 2, rotation "
        "impossible, permutation costs 2",
        not failures,
        f"failures: {failures}" if failures else "9 solver/variant checks",
    )
