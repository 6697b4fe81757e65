"""Per-layer spans taken from outside the program.

Each hook replaces one public name of a reloc module with a wrapper that
times the call, so no file of the program changes. A name is wrapped where
it is looked up: `validate` is wrapped in `reloc.solvers`, the module whose
SAT drivers call it, and `solvability_precheck` in both `reloc.cbs` and
`reloc.solvers`. A span's self time is its duration minus the time of the
spans it encloses; every span is charged to the solver entry point that is
running, so the shares of CBS and of the SAT drivers can be told apart.

A hook whose target no longer exists is recorded in `missing` and skipped;
the metrics that depend on it then read as missing instead of failing the
run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# solver entry points: the spans at the root of every solve
ROOTS = (
    ("cbs.solve", "reloc.cbs", "cbs_solve"),
    ("solvers.mddsat", "reloc.solvers", "mdd_sat_solve"),
    ("solvers.smtcbs", "reloc.solvers", "smt_cbs_solve"),
)

# (span, module, attribute) for every layer boundary inside a solve
LAYERS = (
    ("satcore.load", "reloc.satcore", "SatSolver.add_clause"),
    ("satcore.search", "reloc.satcore", "SatSolver.solve"),
    # one-shot solving of the eager driver: building the solver, feeding it
    # the clauses and replaying the model, around its load and search spans
    ("satcore.oneshot", "reloc.satcore", "solve"),
    ("encoder.encode", "reloc.solvers", "encode_full"),
    ("encoder.encode", "reloc.solvers", "encode_basic"),
    ("encoder.mdd", "reloc.encoder", "build_mdd"),
    ("encoder.extract", "reloc.solvers", "extract_plan"),
    ("relocation.validate", "reloc.solvers", "validate"),
    ("cbs.detect", "reloc.cbs", "joint_collisions"),
    ("pathfinder.astar", "reloc.cbs", "constrained_shortest_path"),
    ("oracle.precheck", "reloc.cbs", "solvability_precheck"),
    ("oracle.precheck", "reloc.solvers", "solvability_precheck"),
)


def _conflicts(args, result, before):
    """CDCL conflicts of one SatSolver.solve call."""
    return getattr(args[0], "conflicts_total", 0) - before


def _conflicts_before(args):
    return getattr(args[0], "conflicts_total", 0)


def _clauses(args, result, before):
    """Clauses in the formula an encoder call returned."""
    return len(result[0].clauses)


# extra counts taken at a span: span -> (count name, read before, count after)
COUNTS = {
    "satcore.search": ("satcore.conflicts", _conflicts_before, _conflicts),
    "encoder.encode": ("encoder.clauses_built", None, _clauses),
}


class Tracer:
    """Installs the hooks, accumulates span times and counts, restores."""

    def __init__(self):
        # root -> span -> [self seconds, total seconds, calls]
        self.tables: dict[str, dict[str, list]] = {}
        self.counts = defaultdict(int)  # count name -> value
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time of each open span
        self._cur = self._table("")  # the table of the running solver
        self._saved: list[tuple[object, str, object]] = []

    def _table(self, root):
        table = self.tables.get(root)
        if table is None:
            table = self.tables[root] = defaultdict(lambda: [0.0, 0.0, 0])
        return table

    def reset(self):
        for table in self.tables.values():
            table.clear()
        self.counts.clear()

    def _resolve(self, module_name, attr):
        """(owner, name, current value) for a dotted attribute, or None."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        fn = getattr(owner, name, None)
        if not callable(fn):
            return None
        return owner, name, fn

    def _wrap(self, span, fn, root):
        # kept lean: add_clause alone is called ~10^5 times per round
        tracer = self
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = tracer._cur[span]
                rec[0] += dt - child
                rec[1] += dt
                rec[2] += 1

        wrapper = timed
        if span in COUNTS:
            name, read_before, count_after = COUNTS[span]

            def wrapper(*args, **kwargs):
                before = read_before(args) if read_before else None
                result = timed(*args, **kwargs)
                tracer.counts[name] += count_after(args, result, before)
                return result

        if root:
            table = self._table(span)

            def wrapper(*args, **kwargs):
                outer, tracer._cur = tracer._cur, table
                try:
                    return timed(*args, **kwargs)
                finally:
                    tracer._cur = outer

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self.missing = []
        for hooks, root in ((ROOTS, True), (LAYERS, False)):
            for span, module_name, attr in hooks:
                found = self._resolve(module_name, attr)
                if found is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                owner, name, fn = found
                self._saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(span, fn, root))

    def uninstall(self):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def has(self, span) -> bool:
        """True when at least one hook of the span is installed."""
        return any(
            f"{m}.{a}" not in self.missing
            for s, m, a in ROOTS + LAYERS
            if s == span
        )

    def _sum(self, span, field):
        return sum(t[span][field] for t in self.tables.values() if span in t)

    def self_time(self, span) -> float:
        return self._sum(span, 0)

    def total_time(self, span) -> float:
        return self._sum(span, 1)

    def calls(self, span) -> int:
        return self._sum(span, 2)

    def shares(self, root) -> list[tuple[str, float]]:
        """(span, self time / root total) under one root, largest first."""
        table = self.tables.get(root, {})
        total = table[root][1] if root in table else 0.0
        if not total:
            return []
        return sorted(((s, rec[0] / total) for s, rec in table.items()),
                      key=lambda p: -p[1])
