import argparse
import dataclasses

import pytest

from reloc.bench import (
    CSV_HEADER,
    MetricsRow,
    RUNTIME_COLUMNS,
    SOLVERS,
    make_family,
    read_csv,
    rows_to_csv,
    run_one,
    run_suite,
    suite_instance,
    summarize,
    summary_table,
    summary_to_csv,
)
from reloc.cli import build_parser
from reloc.relocation import TOKEN_VARIANTS, Variant


def row(**over):
    base = dict(
        instance_id="grid3-mapf-k2-s0", family="grid3", variant="mapf",
        algorithm="mddsat", n=9, k=2, seed=0, solved=True, status="solved",
        xi=4, mu=3, runtime_ms=1.5, sat_time_ms=0.5, sat_calls=2,
        clauses=100, variables=40, refinements=0, ct_nodes=0,
    )
    base.update(over)
    return MetricsRow(**base)


# --- CSV schema ----------------------------------------------------------------

def test_csv_round_trip():
    rows = [row(), row(seed=1, solved=False, status="timeout", xi=None, mu=None)]
    text = rows_to_csv(rows)
    back = read_csv(text)
    assert back == rows


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        read_csv("a,b,c\n1,2,3\n")


def test_csv_empty_is_header_only():
    text = rows_to_csv([])
    assert text.strip() == ",".join(CSV_HEADER)
    assert read_csv(text) == []


def test_runtime_columns_exist_in_header():
    assert set(RUNTIME_COLUMNS) <= set(CSV_HEADER)


# --- summaries ------------------------------------------------------------------

def test_summarize_means_over_identical_rows():
    cells = summarize([row(seed=s) for s in range(10)])
    assert len(cells) == 1
    c = cells[0]
    assert c.runs == 10 and c.solve_rate == 1.0
    assert c.mean_xi == 4.0 and c.mean_clauses == 100.0


def test_summarize_solve_rate_and_unsolved_exclusion():
    rows = [row(seed=s) for s in range(5)] + [
        row(seed=5 + s, solved=False, status="timeout", xi=None,
            runtime_ms=9999.0) for s in range(5)
    ]
    (c,) = summarize(rows)
    assert c.solve_rate == 0.5
    assert c.mean_runtime_ms == 1.5  # unsolved rows never pollute means


def test_summarize_clause_ratio_pairs_lazy_with_eager():
    rows = [row(algorithm="mddsat", clauses=200), row(algorithm="smtcbs", clauses=100)]
    cells = {c.algorithm: c for c in summarize(rows)}
    assert cells["mddsat"].clause_ratio is None
    assert cells["smtcbs"].clause_ratio == 0.5


def test_summarize_clause_ratio_is_over_co_solved_runs():
    # each driver solves one run the other does not; only s0 is paired
    rows = [
        row(algorithm="mddsat", instance_id="s0", clauses=200),
        row(algorithm="mddsat", instance_id="s1", clauses=1000),
        row(algorithm="mddsat", instance_id="s2", solved=False, status="timeout", xi=None),
        row(algorithm="smtcbs", instance_id="s0", clauses=100),
        row(algorithm="smtcbs", instance_id="s1", solved=False, status="timeout", xi=None),
        row(algorithm="smtcbs", instance_id="s2", clauses=10),
    ]
    cells = {c.algorithm: c for c in summarize(rows)}
    assert cells["smtcbs"].clause_ratio == 0.5
    assert cells["smtcbs"].mean_clauses == 55.0  # own means stay per driver
    none_shared = [r for r in rows if r.instance_id != "s0"]
    assert {c.algorithm: c for c in summarize(none_shared)}["smtcbs"].clause_ratio is None


def test_summarize_order_is_input_permutation_invariant():
    rows = [row(algorithm=a, k=k, seed=s)
            for a in ("cbs", "mddsat", "smtcbs") for k in (2, 3) for s in range(3)]
    fwd = summarize(rows)
    rev = summarize(list(reversed(rows)))
    assert fwd == rev


def test_summary_csv_and_table_render():
    cells = summarize([row()])
    csv_text = summary_to_csv(cells)
    assert csv_text.splitlines()[0].startswith("family,variant,k")
    table = summary_table(cells)
    assert "grid3" in table and "mddsat" in table


# --- instance generation and runs ------------------------------------------------

def test_make_family_shapes():
    assert make_family("grid8").n == 64
    assert make_family("star8").n == 8
    assert make_family("clique5").n == 5
    assert make_family("rand8").n == 8
    with pytest.raises(ValueError):
        make_family("torus")


def test_suite_instance_token_variants_are_permutations():
    for variant in TOKEN_VARIANTS:
        i = suite_instance("grid3", variant, 3, 0)
        assert set(i.starts) == set(i.goals)
    m = suite_instance("grid3", Variant.MAPF, 3, 0)
    assert m.variant == Variant.MAPF


def test_run_one_produces_consistent_row():
    inst = suite_instance("grid3", Variant.MAPF, 2, 0)
    for algorithm in ("cbs", "mddsat", "smtcbs", "oracle"):
        r = run_one(inst, "grid3", 0, algorithm, timeout=30)
        assert r.algorithm == algorithm and r.n == 9 and r.k == 2
        assert r.solved and r.status == "solved"
    xis = {run_one(inst, "grid3", 0, a, 30).xi
           for a in ("cbs", "mddsat", "smtcbs", "oracle")}
    assert len(xis) == 1


def test_registry_drives_the_cli_and_the_csv():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    algo = next(a for a in sub.choices["solve"]._actions if a.dest == "algo")
    assert list(algo.choices) == sorted(SOLVERS)
    inst = suite_instance("star8", Variant.TPERM, 3, 1)
    for algorithm in SOLVERS:
        r = run_one(inst, "star8", 1, algorithm, timeout=30)
        assert r.algorithm == algorithm and r.solved
        text = rows_to_csv([r])
        (back,) = read_csv(text)
        # runtimes are written to the microsecond; everything else exactly
        assert back == dataclasses.replace(
            r, runtime_ms=float(f"{r.runtime_ms:.3f}"),
            sat_time_ms=float(f"{r.sat_time_ms:.3f}"))
        assert rows_to_csv([back]) == text


def test_run_suite_deterministic_modulo_runtime():
    def strip(text):
        idx = [CSV_HEADER.index(c) for c in RUNTIME_COLUMNS]
        out = []
        for line in text.splitlines():
            cols = line.split(",")
            out.append(",".join(c for i, c in enumerate(cols) if i not in idx))
        return "\n".join(out)

    a = rows_to_csv(run_suite("desk", seeds=1, timeout=20, algorithms=("smtcbs",)))
    b = rows_to_csv(run_suite("desk", seeds=1, timeout=20, algorithms=("smtcbs",)))
    assert strip(a) == strip(b)


def test_unknown_suite_and_algorithm():
    with pytest.raises(ValueError):
        run_suite("nope", seeds=1)
    inst = suite_instance("grid3", Variant.MAPF, 2, 0)
    with pytest.raises(KeyError):
        run_one(inst, "grid3", 0, "magic", timeout=5)
