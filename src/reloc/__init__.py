"""Optimal item relocation on undirected graphs.

Four movement rules over one shared model -- classical multi-agent path
finding plus three token variants (swapping, rotation, permutation) -- with
three optimal sum-of-costs solvers (conflict-based search, eager SAT over
time-expanded decision diagrams, lazy SAT with conflict refinement) and a
brute-force oracle for verification.
"""

from .graphs import (
    Graph,
    DistTable,
    all_pairs_distances,
    build_graph,
    make_clique,
    make_grid,
    make_random,
    make_star,
)
from .relocation import (
    Collision,
    Instance,
    Plan,
    Variant,
    make_plan,
    plan_cost,
    random_instance,
    random_permutation_instance,
    step_legal,
    validate,
)
from .pathfinder import constrained_shortest_path
from .satcore import CnfFormula, SatSolver, from_dimacs, solve, to_dimacs
from .encoder import (
    Mdd,
    VarMap,
    build_mdd,
    encode_basic,
    encode_full,
    extract_plan,
    lower_bound,
    makespan_bound,
)
from .result import SolveResult, SolveStats
from .oracle import is_solvable, oracle_solve
from .cbs import cbs_solve
from .solvers import mdd_sat_solve, smt_cbs_solve

__all__ = [
    "Graph", "DistTable", "all_pairs_distances", "build_graph",
    "make_clique", "make_grid", "make_random", "make_star",
    "Collision", "Instance", "Plan", "Variant", "make_plan", "plan_cost",
    "random_instance", "random_permutation_instance", "step_legal", "validate",
    "constrained_shortest_path",
    "CnfFormula", "SatSolver", "from_dimacs", "solve", "to_dimacs",
    "Mdd", "VarMap", "build_mdd", "encode_basic",
    "encode_full", "extract_plan", "lower_bound", "makespan_bound",
    "SolveResult", "SolveStats", "is_solvable", "oracle_solve", "cbs_solve",
    "mdd_sat_solve", "smt_cbs_solve",
]
