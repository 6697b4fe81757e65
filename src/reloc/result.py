"""The result every solver returns, and its statuses."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .relocation import Plan

STATUS_SOLVED = "solved"
STATUS_UNSOLVABLE = "unsolvable"
STATUS_TIMEOUT = "timeout"
STATUS_LIMIT = "limit"


@dataclass
class SolveStats:
    """Run metrics shared by all solvers; SAT fields stay zero for CBS and
    the oracle, and ct_nodes stays zero for everything but CBS."""

    algorithm: str = ""
    xi: int | None = None
    mu: int | None = None
    runtime: float = 0.0
    sat_time: float = 0.0
    sat_calls: int = 0
    clauses: int = 0
    variables: int = 0
    refinements: int = 0
    ct_nodes: int = 0


@dataclass
class SolveResult:
    status: str
    xi: int | None = None
    plan: Plan | None = None
    stats: SolveStats = field(default_factory=SolveStats)


def finish(stats: SolveStats, t0: float, status: str,
           plan: Plan | None = None) -> SolveResult:
    """The result of a run that started at monotonic time t0."""
    stats.runtime = time.monotonic() - t0
    if plan is not None:
        stats.xi = plan.cost
        stats.mu = plan.makespan
    return SolveResult(status, stats.xi, plan, stats)
