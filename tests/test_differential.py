"""Differential check: the three solvers against the oracle on small graphs.

A fixed slice of tools/precheck_fuzz.small_graph_instances (trees, cycles,
chorded cycles, two blocks, K4, K2,3 and theta0, all four variants) is
solved by CBS, eager MDD-SAT and lazy SMT-CBS at a short budget. A solver
may time out, and the PASS line says how often; otherwise its status must
be the oracle's, a solved xi must equal the oracle's, and its plan must
validate and cost xi.
"""

import sys
import time
from collections import Counter
from pathlib import Path

from reloc.cbs import cbs_solve
from reloc.oracle import oracle_solve
from reloc.relocation import plan_cost, validate
from reloc.result import STATUS_SOLVED, STATUS_TIMEOUT
from reloc.solvers import mdd_sat_solve, smt_cbs_solve
from test_acceptance import report

TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

from precheck_fuzz import small_graph_instances  # noqa: E402

SLICE_SEED, SLICE_COUNT, BUDGET = 7, 200, 0.3
SOLVERS = (("cbs", cbs_solve), ("mddsat", mdd_sat_solve), ("smtcbs", smt_cbs_solve))


def test_solvers_agree_with_the_oracle_on_small_graphs():
    t0 = time.monotonic()
    timeouts = Counter()
    wrong = []
    for inst in small_graph_instances(SLICE_SEED, SLICE_COUNT):
        want = oracle_solve(inst, vertex_cap=inst.graph.n, item_cap=inst.k)
        for name, solver in SOLVERS:
            got = solver(inst, timeout=BUDGET)
            if got.status == STATUS_TIMEOUT:
                timeouts[name] += 1
                continue
            ok = got.status == want.status and got.xi == want.xi
            if ok and got.status == STATUS_SOLVED:
                ok = not validate(inst, got.plan) and plan_cost(got.plan.paths) == got.xi
            if not ok:
                wrong.append((name, inst.variant.value, sorted(inst.graph.edges),
                              inst.starts, inst.goals, got.status, got.xi, want.xi))
    report(
        "three solvers agree with the oracle on small graphs",
        not wrong,
        f"{SLICE_COUNT} instances (seed {SLICE_SEED}) at {BUDGET} s in "
        f"{time.monotonic() - t0:.1f} s; timeouts "
        + ", ".join(f"{name} {timeouts[name]}" for name, _ in SOLVERS)
        + f"; {len(wrong)} wrong, first {wrong[:2]}",
    )
