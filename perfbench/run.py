"""Time to a certified optimum for CBS, MDD-SAT and SMT-CBS.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; reloc is imported from its `src/`. A run
repeats rounds until S seconds have passed. A round solves every instance of
the workload (renumbered for that round, see workloads.py) with each of the
three solvers, one after the other on this one thread, and checks every
answer with checker.py. Each solve starts from cold per-instance caches, as
a separate `reloc solve` would.

--trace 0 prints the end-to-end metrics: per solver the median over rounds
of the round's total solve time, the set-up time (median of several fresh
processes that import reloc and generate the instances) and the peak memory
of this process. --trace 1 solves round 0 alternately without and with the
hooks of tracer.py and prints the per-layer metrics: the median of the times
over the traced passes, the counts of one pass (they repeat exactly), and
the hooks' overhead against the untraced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("grid8-tokens", "grid8-mapf", "desk")
ORACLE_WORKLOADS = ("desk",)  # small enough for oracle_solve on every instance
SOLVERS = (
    ("cbs", "reloc.cbs", "cbs_solve"),
    ("mddsat", "reloc.solvers", "mdd_sat_solve"),
    ("smtcbs", "reloc.solvers", "smt_cbs_solve"),
)
SOLVE_TIMEOUT = 60.0  # every base instance is solved in well under 2 s
SETUP_SAMPLES = 7
CHILD_TIMEOUT = 120.0


def _cold_caches():
    """Drop reloc's per-instance caches so every solve pays its own set-up."""
    relocation = sys.modules["reloc.relocation"]
    for name in ("effective_adjacency", "effective_distances"):
        clear = getattr(getattr(relocation, name, None), "cache_clear", None)
        if clear is not None:
            clear()


def _child(*args) -> str:
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


class Reference:
    """What every answer on one instance must satisfy, known before solving."""

    def __init__(self, inst, oracle):
        self.lower_bound = checker.bfs_lower_bound(inst)
        # oracle: (status, xi) from oracle_solve, or None where it cannot run;
        # there the instance is solvable exactly when the BFS bound is finite
        # (every 8x8 instance: connected token supports, MAPF with 59 blanks)
        if oracle is None:
            solvable = self.lower_bound != checker.INF
            oracle = ("solved" if solvable else "unsolvable", None)
        self.status, self.xi = oracle


class Tally:
    """Attempted and failed solves; `wrong` marks an answer that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.slowest = {}  # solver -> seconds of its slowest solve

    def fail(self, what, wrong):
        self.failed += 1
        self.wrong = self.wrong or wrong
        print(f"FAILED {what}", file=sys.stderr)


def _problems(inst, ref, res) -> list[str]:
    if res.status != ref.status:
        return [f"status {res.status}, expected {ref.status}"]
    if res.status != "solved":
        return []
    out = []
    if res.plan is None:
        return ["solved without a plan"]
    if ref.xi is not None and res.xi != ref.xi:
        out.append(f"xi {res.xi}, oracle {ref.xi}")
    if res.xi is None or res.xi < ref.lower_bound:
        out.append(f"xi {res.xi} below the BFS lower bound {ref.lower_bound}")
    return out + checker.plan_problems(inst, res.plan.paths, res.xi)


def solve_all(instances, refs, tally, stats=None):
    """One pass: every instance with every solver. Returns seconds per solver."""
    totals = {name: 0.0 for name, _, _ in SOLVERS}
    for n, (inst, ref) in enumerate(zip(instances, refs)):
        xis = {}
        for name, module, attr in SOLVERS:
            solve = getattr(sys.modules[module], attr)  # looked up now: hooks apply
            what = f"{name} on instance {n}"
            tally.attempted += 1
            _cold_caches()
            t0 = time.perf_counter()
            try:
                res = solve(inst, timeout=SOLVE_TIMEOUT)
            except Exception:  # a crash fails this solve, not the run
                res = None
                traceback.print_exc()
            dt = time.perf_counter() - t0
            totals[name] += dt
            tally.slowest[name] = max(tally.slowest.get(name, 0.0), dt)
            if res is None:
                tally.fail(f"{what}: raised", wrong=False)
                continue
            if res.status in ("timeout", "limit"):
                tally.fail(f"{what}: {res.status}", wrong=False)
                continue
            problems = _problems(inst, ref, res)
            if problems:
                tally.fail(f"{what}: {'; '.join(problems[:3])}", wrong=True)
                continue
            if res.status == "solved":
                xis[name] = res.xi
            if stats is not None:
                _add_stats(stats, name, res.stats)
        if len(set(xis.values())) > 1:
            for name in xis:
                tally.fail(f"{name} on instance {n}: solvers disagree {xis}", wrong=True)
    return totals


# SolveStats field -> per-layer metric, for the solvers that fill it
STAT_FIELDS = (
    ("cbs", "ct_nodes", "cbs.ct_nodes"),
    ("mddsat", "clauses", "solvers.mddsat_clauses"),
    ("smtcbs", "clauses", "solvers.smtcbs_clauses"),
    ("smtcbs", "refinements", "solvers.refinements"),
    ("mddsat", "sat_calls", "solvers.sat_calls"),
    ("smtcbs", "sat_calls", "solvers.sat_calls"),
)


def _add_stats(stats, solver, solve_stats):
    for name, field, metric in STAT_FIELDS:
        if name != solver:
            continue
        value = getattr(solve_stats, field, None)
        total = stats.get(metric, 0)
        stats[metric] = None if value is None or total is None else total + value


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(round_of, refs, seconds, tally):
    """Rounds until `seconds` have passed; median round total per solver."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(solve_all(round_of(len(rounds)), refs, tally))
    slowest = ", ".join(f"{k} {v:.3f} s" for k, v in tally.slowest.items())
    print(f"{len(rounds)} rounds; slowest solve: {slowest}", file=sys.stderr)
    return {
        f"{name}_s": _metric(statistics.median(r[name] for r in rounds), "s")
        for name, _, _ in SOLVERS
    }


# per-layer metric, unit, kind, spans it needs, count name; a "self" metric
# sums the self time of its spans, a "calls" metric counts their calls
LAYER_METRICS = (
    ("satcore.load_s", "s", "self", ("satcore.load",), None),
    ("satcore.load_calls", "count", "calls", ("satcore.load",), None),
    ("satcore.search_s", "s", "self", ("satcore.search",), None),
    ("satcore.search_calls", "count", "calls", ("satcore.search",), None),
    ("satcore.conflicts", "count", "count", ("satcore.search",), "satcore.conflicts"),
    ("satcore.conflicts_per_s", "1/s", "rate", ("satcore.search",), "satcore.conflicts"),
    ("satcore.oneshot_s", "s", "self", ("satcore.oneshot",), None),
    ("encoder.encode_s", "s", "self", ("encoder.encode",), None),
    ("encoder.mdd_s", "s", "self", ("encoder.mdd",), None),
    ("encoder.clauses_built", "count", "count", ("encoder.encode",), "encoder.clauses_built"),
    ("encoder.extract_s", "s", "self", ("encoder.extract",), None),
    ("encoder.bounds", "count", "calls", ("encoder.encode",), None),
    ("solvers.mddsat_clauses", "count", "stat", (), None),
    ("solvers.smtcbs_clauses", "count", "stat", (), None),
    ("solvers.refinements", "count", "stat", (), None),
    ("solvers.sat_calls", "count", "stat", (), None),
    ("solvers.self_s", "s", "self", ("solvers.mddsat", "solvers.smtcbs"), None),
    ("relocation.validate_s", "s", "self", ("relocation.validate",), None),
    ("relocation.validate_calls", "count", "calls", ("relocation.validate",), None),
    ("cbs.ct_nodes", "count", "stat", (), None),
    ("cbs.detect_s", "s", "self", ("cbs.detect",), None),
    ("cbs.self_s", "s", "self", ("cbs.solve",), None),
    ("cbs.ct_nodes_per_s", "1/s", "ct_rate", ("cbs.solve",), None),
    ("pathfinder.astar_s", "s", "self", ("pathfinder.astar",), None),
    ("pathfinder.astar_calls", "count", "calls", ("pathfinder.astar",), None),
    ("oracle.precheck_s", "s", "self", ("oracle.precheck",), None),
    ("oracle.precheck_calls", "count", "calls", ("oracle.precheck",), None),
)
DETERMINISTIC = (
    "cbs.ct_nodes", "encoder.bounds", "encoder.clauses_built",
    "solvers.mddsat_clauses", "solvers.smtcbs_clauses",
    "solvers.refinements", "satcore.conflicts",
)


def layer_values(tracer, stats) -> dict:
    """Per-layer values of one traced pass; None where a hook is missing."""
    out = {}
    for metric, _, kind, spans, count in LAYER_METRICS:
        if not all(tracer.has(span) for span in spans):
            value = None
        elif kind == "stat":
            value = stats.get(metric)
        elif kind == "self":
            value = sum(tracer.self_time(span) for span in spans)
        elif kind == "calls":
            value = sum(tracer.calls(span) for span in spans)
        elif kind == "count":
            value = tracer.counts[count]
        elif kind == "rate":
            busy = tracer.self_time(spans[0])
            value = tracer.counts[count] / busy if busy else 0.0
        else:  # ct_rate: CT nodes per second of CBS, children included
            busy = tracer.total_time(spans[0])
            ct = stats.get("cbs.ct_nodes")
            value = None if ct is None else (ct / busy if busy else 0.0)
        out[metric] = value
    return out


def layer_shares(tracer) -> list[str]:
    """Self time of each span as a share of its solver's traced time."""
    return [
        f"{root} {tracer.total_time(root):.3f} s: "
        + ", ".join(f"{span} {100 * share:.1f}%" for span, share in tracer.shares(root))
        for root, _, _ in tracing.ROOTS
        if tracer.shares(root)
    ]


def per_layer(instances, refs, seconds, tally):
    """Untraced and traced passes over the same instances until `seconds`."""
    tracer = tracing.Tracer()
    passes = []  # (untraced s, traced s, layer values)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = sum(solve_all(instances, refs, tally).values())
        tracer.reset()
        stats = {}
        tracer.install()
        try:
            traced = sum(solve_all(instances, refs, tally, stats).values())
        finally:
            tracer.uninstall()
        passes.append((plain, traced, layer_values(tracer, stats)))
    for name in tracer.missing:
        print(f"missing hook: {name}", file=sys.stderr)
    for line in layer_shares(tracer):
        print(line)
    metrics = {}
    for metric, unit, *_ in LAYER_METRICS:
        values = [p[2][metric] for p in passes]
        if any(v is None for v in values):
            metrics[metric] = {"value": None, "unit": unit, "missing": True}
        elif unit == "count":
            metrics[metric] = _metric(values[0], unit)
        else:
            metrics[metric] = _metric(statistics.median(values), unit)
    overhead = statistics.median(100.0 * (t / p - 1.0) for p, t, _ in passes)
    print(f"trace overhead {overhead:.1f}% over {len(passes)} pass pairs, "
          f"untraced {statistics.median(p for p, _, _ in passes):.3f} s")
    metrics["trace.overhead_pct"] = _metric(overhead, "%")
    return metrics


def traced_counters(workload, seed, limit) -> dict:
    """The deterministic per-layer counters of the first `limit` instances."""
    sys.path.insert(0, str(SRC))
    import workloads

    base = workloads.base_instances(workload)[:limit]
    tally = Tally()
    metrics = per_layer(workloads.round_instances(workload, base, seed, 0),
                        references(workload, base), 0, tally)
    return {
        "failed": tally.failed,
        **{name: metrics[name]["value"] for name in DETERMINISTIC},
    }


def references(workload, base):
    """Answers known before solving: the oracle's on small workloads."""
    oracle = [None] * len(base)
    if workload in ORACLE_WORKLOADS:
        oracle = json.loads(_child("oracle", workload))[:len(base)]
    return [Reference(inst, ans) for inst, ans in zip(base, oracle)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "reloc" / "__init__.py").is_file():
        print(f"error: no reloc sources at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    base = workloads.base_instances(args.workload)
    refs = references(args.workload, base)

    def round_of(rnd):
        return workloads.round_instances(args.workload, base, args.seed, rnd)

    tally = Tally()
    if args.trace:
        metrics = per_layer(round_of(0), refs, args.seconds, tally)
    else:
        metrics = end_to_end(round_of, refs, args.seconds, tally)
        setup = [float(_child("setup", args.workload, str(args.seed)))
                 for _ in range(SETUP_SAMPLES)]
        metrics["setup_s"] = _metric(statistics.median(setup), "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(peak_kib / 1024.0, "MB")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
