"""Command-line front end: instance files, solving, benchmarks.

Instance file grammar (LF line endings, ASCII decimal ids, '#' comments):

    variant <mapf|tswap|trot|tperm>
    vertices <n>
    e <u> <v>          # one per edge
    a <id> <start> <goal>   # one per item, ids 0..k-1

Exit codes: 0 solved / usage ok, 2 usage or input error, 3 timeout or
resource limit, 4 unsolvable.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import shlex
import subprocess
import sys
import tempfile

from . import bench
from .graphs import build_graph, make_clique, make_grid, make_random, make_star
from .relocation import (Instance, Variant, random_instance,
                         random_permutation_instance, validate)
from .result import STATUS_LIMIT, STATUS_SOLVED, STATUS_TIMEOUT
from .satcore import SatError, to_dimacs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_UNSOLVABLE = 4


class InstanceFormatError(ValueError):
    pass


def _decimal(parts) -> bool:
    """True iff every part is an ASCII decimal number (str.isdigit alone
    also accepts superscripts and other scripts' digits)."""
    return all(p.isascii() and p.isdigit() for p in parts)


def parse_instance(text: str) -> Instance:
    """Parse the instance grammar; errors carry 1-based line numbers."""
    variant = None
    n = None
    edges = []
    items = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        def bad(msg):
            raise InstanceFormatError(f"line {lineno}: {msg}")
        if parts[0] == "variant":
            if variant is not None:
                bad("duplicate variant line")
            if len(parts) != 2:
                bad("expected 'variant <name>'")
            try:
                variant = Variant(parts[1])
            except ValueError:
                bad(f"unknown variant {parts[1]!r}")
        elif parts[0] == "vertices":
            if n is not None:
                bad("duplicate vertices line")
            if len(parts) != 2 or not _decimal(parts[1:]):
                bad("expected 'vertices <n>'")
            n = int(parts[1])
        elif parts[0] == "e":
            if len(parts) != 3 or not _decimal(parts[1:]):
                bad("expected 'e <u> <v>'")
            edges.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "a":
            if len(parts) != 4 or not _decimal(parts[1:]):
                bad("expected 'a <id> <start> <goal>'")
            item = int(parts[1])
            if item in items:
                bad(f"duplicate item id {item}")
            items[item] = (int(parts[2]), int(parts[3]))
        else:
            bad(f"unknown directive {parts[0]!r}")
    if variant is None:
        raise InstanceFormatError("missing 'variant' line")
    if n is None:
        raise InstanceFormatError("missing 'vertices' line")
    if not items:
        raise InstanceFormatError("no 'a' item lines")
    if sorted(items) != list(range(len(items))):
        raise InstanceFormatError("item ids must be exactly 0..k-1")
    try:
        graph = build_graph(n, edges)
        starts = tuple(items[i][0] for i in range(len(items)))
        goals = tuple(items[i][1] for i in range(len(items)))
        return Instance(graph, variant, starts, goals)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def serialize_instance(inst: Instance) -> str:
    lines = [f"variant {inst.variant.value}", f"vertices {inst.graph.n}"]
    for u, v in sorted(inst.graph.edges):
        lines.append(f"e {u} {v}")
    for i, (s, g) in enumerate(zip(inst.starts, inst.goals)):
        lines.append(f"a {i} {s} {g}")
    return "\n".join(lines) + "\n"


def make_dimacs_backend(command: str):
    """SAT backend running an external DIMACS solver.

    The command receives the CNF file path as its last argument and must
    print SATISFIABLE/UNSATISFIABLE (with or without the 's ' prefix) and,
    when satisfiable, the model as 'v' lines or bare literal lines. A solver
    that cannot be launched or prints no status raises SatError.
    """
    argv = shlex.split(command)
    if not argv:
        raise ValueError("empty external solver command")

    def backend(formula, timeout):
        fd, path = tempfile.mkstemp(suffix=".cnf", text=True)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(to_dimacs(formula))
            try:
                proc = subprocess.run(
                    argv + [path], capture_output=True, text=True,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return "TIMEOUT"
            except OSError as exc:
                raise SatError(
                    f"failed to launch external solver {argv[0]!r}: {exc}"
                ) from exc
            return _parse_solver_output(proc.stdout, formula.num_vars)
        finally:
            os.unlink(path)

    return backend


def _parse_solver_output(text: str, num_vars: int):
    status = None
    lits = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("s "):
            line = line[2:].strip()
        if line in ("SATISFIABLE", "SAT"):
            status = "SAT"
            continue
        if line in ("UNSATISFIABLE", "UNSAT"):
            return "UNSAT"
        if line.startswith("v "):
            line = line[2:]
        try:
            lits.extend(int(tok) for tok in line.split())
        except ValueError:
            continue  # banner or timing line
    if status != "SAT":
        raise SatError("external solver printed no recognizable status")
    model = {v: False for v in range(1, num_vars + 1)}
    for lit in lits:
        if lit == 0:
            continue
        if abs(lit) <= num_vars:
            model[abs(lit)] = lit > 0
    return model


def _missing_dir(option: str, path: str) -> bool:
    """Report, before any work is done, an output path whose directory is
    missing; True when it was reported."""
    if os.path.isdir(os.path.dirname(os.path.abspath(path))):
        return False
    print(f"error: {option} {path}: no such directory", file=sys.stderr)
    return True


def _size(text: str, grid: bool) -> list[int]:
    """The --size value: [N], or for grids also [W, H]."""
    parts = text.split("x") if grid else [text]
    if len(parts) > 2 or not _decimal(parts):
        raise ValueError(f"--size {text!r}: expected {'N or WxH' if grid else 'N'}")
    return [int(p) for p in parts]


def _cmd_generate(args) -> int:
    if args.out != "-" and _missing_dir("--out", args.out):
        return EXIT_USAGE
    try:
        size = _size(args.size, args.family == "grid")
        if args.family == "grid":
            g = make_grid(size[0], size[-1])  # N is NxN
        elif args.family == "random":
            g = make_random(size[0], args.extra, args.seed)
        elif args.family == "star":
            g = make_star(size[0])
        else:
            g = make_clique(size[0])
        variant = Variant(args.variant)
        generate = (random_permutation_instance if args.permutation
                    else random_instance)
        inst = generate(g, variant, args.items, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = serialize_instance(inst)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _print_plan(plan) -> None:
    for t in range(plan.makespan + 1):
        cfg = " ".join(str(p[t]) for p in plan.paths)
        print(f"{t}: {cfg}")
    print(f"xi = {plan.cost}")


def _cmd_solve(args) -> int:
    solve = bench.SOLVERS[args.algo]
    if args.stats and _missing_dir("--stats", args.stats):
        return EXIT_USAGE
    try:
        with open(args.infile, encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InstanceFormatError, UnicodeDecodeError) as exc:
        print(f"error: {args.infile}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    options = {}
    if args.sat != "internal":
        if "sat" not in inspect.signature(solve).parameters:
            print(f"error: --sat does not apply to {args.algo}", file=sys.stderr)
            return EXIT_USAGE
        if not args.sat.startswith("dimacs:"):
            print("error: --sat must be 'internal' or 'dimacs:CMD'", file=sys.stderr)
            return EXIT_USAGE
        try:
            options["sat"] = make_dimacs_backend(args.sat[len("dimacs:"):])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        res = solve(inst, timeout=args.timeout, **options)
    except (ValueError, SatError) as exc:  # the oracle's size caps, a failed backend
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    row = bench.MetricsRow.from_result(
        res, inst, os.path.basename(args.infile), "file", 0)
    if args.stats:
        new = not os.path.exists(args.stats) or os.path.getsize(args.stats) == 0
        text = bench.rows_to_csv([row])
        try:
            with open(args.stats, "a") as fh:
                fh.write(text if new else text.split("\n", 1)[1])
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if res.status == STATUS_SOLVED:
        if validate(inst, res.plan):
            raise RuntimeError("solver returned an invalid plan")
        _print_plan(res.plan)
        return EXIT_OK
    if res.status in (STATUS_TIMEOUT, STATUS_LIMIT):
        print(f"{res.status}: no answer within the configured budget", file=sys.stderr)
        return EXIT_TIMEOUT
    print("unsolvable", file=sys.stderr)
    return EXIT_UNSOLVABLE


def _cmd_bench(args) -> int:
    algos = tuple(args.algos.split(","))
    for a in algos:
        if a not in bench.SOLVERS:
            print(f"error: unknown algorithm {a!r}", file=sys.stderr)
            return EXIT_USAGE
    if _missing_dir("--out", args.out):
        return EXIT_USAGE

    def progress(row):
        if args.verbose:
            print(f"  {row.instance_id} {row.algorithm}: {row.status}"
                  f" xi={row.xi} {row.runtime_ms:.0f}ms", file=sys.stderr)
    try:
        rows = bench.run_suite(args.suite, seeds=args.seeds,
                               timeout=args.timeout, algorithms=algos,
                               progress=progress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cells = bench.summarize(rows)
    root, ext = os.path.splitext(args.out)
    summary_path = f"{root}.summary{ext or '.csv'}"
    try:
        with open(args.out, "w") as fh:
            fh.write(bench.rows_to_csv(rows))
        with open(summary_path, "w") as fh:
            fh.write(bench.summary_to_csv(cells))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(bench.summary_table(cells))
    return EXIT_OK


def _budget(text: str) -> float:
    """A --timeout value: finite seconds, not negative."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"not a budget in seconds: {text!r}")
    return value


def _count(text: str) -> int:
    """A --seeds value: a positive integer."""
    if not (_decimal([text]) and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"not a positive count: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reloc",
        description="Optimal item relocation on graphs (MAPF/TSWAP/TROT/TPERM).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance file")
    g.add_argument("--family", required=True,
                   choices=("grid", "random", "star", "clique"))
    g.add_argument("--size", required=True,
                   help="vertex count, or WxH for grids (e.g. 8x8)")
    g.add_argument("--variant", required=True,
                   choices=[v.value for v in Variant])
    g.add_argument("--items", type=int, required=True, metavar="K")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--extra", type=float, default=0.2,
                   help="extra edge fraction for --family random")
    g.add_argument("--permutation", action="store_true",
                   help="goals permute the start vertices (solvable token instances)")
    g.add_argument("--out", default="-", help="output path, '-' for stdout")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("--algo", required=True, choices=sorted(bench.SOLVERS))
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--timeout", type=_budget, default=60.0)
    s.add_argument("--stats", help="append a metrics CSV row to this file")
    s.add_argument("--sat", default="internal",
                   help="'internal' or 'dimacs:CMD' for an external solver "
                        "(mddsat and smtcbs only)")
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", default="paper-small",
                   choices=sorted(bench.SUITES))
    b.add_argument("--seeds", type=_count, default=10)
    b.add_argument("--timeout", type=_budget, default=60.0)
    b.add_argument("--algos", default="cbs,mddsat,smtcbs")
    b.add_argument("--out", required=True, help="per-run CSV path")
    b.add_argument("--verbose", action="store_true")
    b.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
