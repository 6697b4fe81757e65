"""Benchmark suites, per-run metrics rows, and aggregation.

One MetricsRow per (instance, algorithm) run. The CSV schema is fixed
(version 1) so rows from different algorithms and sessions are directly
comparable; `runtime_ms` and `sat_time_ms` are the only non-deterministic
columns. summarize() aggregates per (family, variant, k, algorithm) cell,
computing means over solved runs only.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass, fields

from .cbs import cbs_solve
from .graphs import Graph, make_clique, make_grid, make_random, make_star
from .oracle import oracle_solve
from .relocation import (
    Instance,
    TOKEN_VARIANTS,
    Variant,
    random_instance,
    random_permutation_instance,
    validate,
)
from .result import STATUS_SOLVED, SolveResult
from .solvers import mdd_sat_solve, smt_cbs_solve

SCHEMA_VERSION = 1

RUNTIME_COLUMNS = ("runtime_ms", "sat_time_ms")


@dataclass
class MetricsRow:
    """One CSV row; the columns are the fields in order, after the schema
    version, so changing a field changes the schema."""

    instance_id: str
    family: str
    variant: str
    algorithm: str
    n: int
    k: int
    seed: int
    solved: bool
    status: str
    xi: int | None
    mu: int | None
    runtime_ms: float
    sat_time_ms: float
    sat_calls: int
    clauses: int
    variables: int
    refinements: int
    ct_nodes: int

    @classmethod
    def from_result(cls, res: SolveResult, inst: Instance, instance_id: str,
                    family: str, seed: int) -> MetricsRow:
        s = res.stats
        return cls(
            instance_id, family, inst.variant.value, s.algorithm,
            inst.graph.n, inst.k, seed, res.status == STATUS_SOLVED, res.status,
            res.xi, s.mu, s.runtime * 1000.0, s.sat_time * 1000.0,
            s.sat_calls, s.clauses, s.variables, s.refinements, s.ct_nodes,
        )

    def to_csv_fields(self) -> list[str]:
        vals = [SCHEMA_VERSION] + [getattr(self, f.name) for f in fields(self)]
        out = []
        for v in vals:
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append("1" if v else "0")
            elif isinstance(v, float):
                out.append(f"{v:.3f}")
            else:
                out.append(str(v))
        return out


CSV_HEADER = ["schema"] + [f.name for f in fields(MetricsRow)]

# name -> solver(inst, timeout=...) -> SolveResult with stats.algorithm == name
SOLVERS = {
    "cbs": cbs_solve,
    "mddsat": mdd_sat_solve,
    "oracle": oracle_solve,
    "smtcbs": smt_cbs_solve,
}


def run_one(inst: Instance, family: str, seed: int, algorithm: str,
            timeout: float, instance_id: str | None = None) -> MetricsRow:
    """Run one algorithm on one instance; invalid plans raise."""
    if instance_id is None:
        instance_id = f"{family}-{inst.variant.value}-k{inst.k}-s{seed}"
    res = SOLVERS[algorithm](inst, timeout=timeout)
    if res.plan is not None and validate(inst, res.plan):
        raise RuntimeError(f"{algorithm} produced an invalid plan on {instance_id}")
    return MetricsRow.from_result(res, inst, instance_id, family, seed)


def make_family(family: str, seed: int = 0) -> Graph:
    if family == "grid8":
        return make_grid(8, 8)
    if family == "grid3":
        return make_grid(3, 3)
    if family == "star8":
        return make_star(8)
    if family == "clique5":
        return make_clique(5)
    if family == "rand8":
        return make_random(8, 0.2, 1000 + seed)
    raise ValueError(f"unknown graph family {family!r}")


def suite_instance(family: str, variant: Variant, k: int, seed: int) -> Instance:
    """Benchmark instance: token variants get permutation instances (start
    and goal occupy the same vertices), which are the solvable regime there."""
    g = make_family(family, seed)
    if variant in TOKEN_VARIANTS:
        return random_permutation_instance(g, variant, k, seed)
    return random_instance(g, variant, k, seed)


# (family, variant, k) cells per suite; paper-small mirrors the 8x8-grid
# experiment layout, desk is a fast grid for CI-style runs
SUITES = {
    "paper-small": [
        (family, variant, k)
        for family in ("grid8",)
        for variant in Variant
        for k in (4, 8, 12, 16)
    ],
    "desk": [
        (family, variant, k)
        for family in ("grid3", "star8", "clique5")
        for variant in Variant
        for k in (2, 3)
    ],
}


def run_suite(suite: str, seeds: int = 10, timeout: float = 60.0,
              algorithms=("cbs", "mddsat", "smtcbs"),
              progress=None) -> list[MetricsRow]:
    """All (cell, seed, algorithm) runs of a suite, in deterministic order.

    Failures of one run (other than invalid plans, which raise) land in the
    CSV as unsolved rows and the sweep continues.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    rows = []
    for family, variant, k in SUITES[suite]:
        for seed in range(seeds):
            inst = suite_instance(family, variant, k, seed)
            for algorithm in algorithms:
                row = run_one(inst, family, seed, algorithm, timeout)
                rows.append(row)
                if progress is not None:
                    progress(row)
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for row in rows:
        w.writerow(row.to_csv_fields())
    return buf.getvalue()


# CSV text -> field value, by the annotation of the MetricsRow field
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": lambda text: text == "1",
    "int | None": lambda text: int(text) if text else None,
}


def read_csv(text: str) -> list[MetricsRow]:
    rdr = csv.reader(io.StringIO(text))
    header = next(rdr)
    if header != CSV_HEADER:
        raise ValueError("metrics CSV header does not match schema version "
                         f"{SCHEMA_VERSION}")
    return [
        MetricsRow(*(_PARSERS[f.type](v) for f, v in zip(fields(MetricsRow), rec[1:])))
        for rec in rdr
    ]


@dataclass
class SummaryCell:
    family: str
    variant: str
    k: int
    algorithm: str
    runs: int
    solve_rate: float
    mean_runtime_ms: float | None  # over solved runs only
    median_runtime_ms: float | None
    mean_xi: float | None
    mean_clauses: float | None
    mean_variables: float | None
    # mean smtcbs clauses / mean mddsat clauses, over the runs both solved
    clause_ratio: float | None


def summarize(rows: list[MetricsRow]) -> list[SummaryCell]:
    """Per-cell aggregation; means over solved runs, order deterministic."""
    cells: dict[tuple, list[MetricsRow]] = {}
    for row in rows:
        cells.setdefault((row.family, row.variant, row.k, row.algorithm), []).append(row)

    def mean_clauses(group, ids):
        picked = [r.clauses for r in group if r.instance_id in ids]
        return statistics.fmean(picked) if picked else None

    out = []
    for key in sorted(cells):
        family, variant, k, algorithm = key
        group = cells[key]
        solved = [r for r in group if r.solved]
        ratio = None
        if algorithm == "smtcbs":
            eager = [r for r in cells.get((family, variant, k, "mddsat"), ()) if r.solved]
            both = {r.instance_id for r in solved} & {r.instance_id for r in eager}
            lazy_mean, eager_mean = mean_clauses(solved, both), mean_clauses(eager, both)
            if lazy_mean and eager_mean:
                ratio = lazy_mean / eager_mean
        out.append(SummaryCell(
            family, variant, k, algorithm, len(group),
            len(solved) / len(group),
            statistics.fmean(r.runtime_ms for r in solved) if solved else None,
            statistics.median(r.runtime_ms for r in solved) if solved else None,
            statistics.fmean(r.xi for r in solved) if solved else None,
            statistics.fmean(r.clauses for r in solved) if solved else None,
            statistics.fmean(r.variables for r in solved) if solved else None,
            ratio,
        ))
    return out


SUMMARY_HEADER = [f.name for f in fields(SummaryCell)]


def _summary_fields(c: SummaryCell, empty: str) -> list[str]:
    def fmt(value, spec):
        return empty if value is None else format(value, spec)

    return [
        c.family, c.variant, str(c.k), c.algorithm, str(c.runs),
        f"{c.solve_rate:.2f}",
        fmt(c.mean_runtime_ms, ".1f"), fmt(c.median_runtime_ms, ".1f"),
        fmt(c.mean_xi, ".2f"), fmt(c.mean_clauses, ".1f"),
        fmt(c.mean_variables, ".1f"), fmt(c.clause_ratio, ".3f"),
    ]


def summary_to_csv(cells: list[SummaryCell]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SUMMARY_HEADER)
    for c in cells:
        w.writerow(_summary_fields(c, ""))
    return buf.getvalue()


def summary_table(cells: list[SummaryCell]) -> str:
    """Aligned plain-text view of a summary; empty cells print as a dash."""
    rows = [SUMMARY_HEADER] + [_summary_fields(c, "-") for c in cells]
    widths = [max(len(r[i]) for r in rows) for i in range(len(SUMMARY_HEADER))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in rows
    )
