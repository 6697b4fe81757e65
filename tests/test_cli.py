import os
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reloc import bench
from reloc.cli import (
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_UNSOLVABLE,
    EXIT_USAGE,
    InstanceFormatError,
    _parse_solver_output,
    main,
    make_dimacs_backend,
    parse_instance,
    serialize_instance,
)
from reloc.relocation import Instance, Variant, make_plan, validate
from reloc.satcore import CnfFormula, SatError

SWAP_TEXT = textwrap.dedent("""\
    # two tokens on one edge
    variant tswap
    vertices 2
    e 0 1
    a 0 0 1
    a 1 1 0
""")


# --- instance grammar -----------------------------------------------------------

def test_parse_instance_basic():
    inst = parse_instance(SWAP_TEXT)
    assert inst.variant == Variant.TSWAP
    assert inst.graph.n == 2 and inst.starts == (0, 1) and inst.goals == (1, 0)


def test_parse_serialize_round_trip():
    inst = parse_instance(SWAP_TEXT)
    again = parse_instance(serialize_instance(inst))
    assert again.variant == inst.variant
    assert again.graph.edges == inst.graph.edges
    assert (again.starts, again.goals) == (inst.starts, inst.goals)


@pytest.mark.parametrize("text,fragment", [
    ("vertices 2\ne 0 1\na 0 0 1\n", "missing 'variant'"),
    ("variant mapf\ne 0 1\na 0 0 1\n", "missing 'vertices'"),
    ("variant mapf\nvertices 2\ne 0 1\n", "no 'a' item"),
    ("variant warp\nvertices 2\n", "line 1"),
    ("variant mapf\nvariant mapf\nvertices 2\na 0 0 1\n", "line 2: duplicate"),
    ("variant mapf\nvertices 3\ne 0 five\na 0 0 1\n", "line 3"),
    ("variant mapf\nvertices 3\ne 0 1\na 1 0 1\n", "ids must be exactly"),
    ("variant mapf\nvertices 3\ne 0 1\na 0 0 1\na 0 1 0\n", "line 5: duplicate"),
    ("variant mapf\nvertices 2\ne 0 5\na 0 0 1\n", "out of range"),
    # ids are ASCII decimal: no superscripts, no other scripts' digits
    ("variant mapf\nvertices \u00b2\n", "line 2"),
    ("variant mapf\nvertices 2\ne 0 1\na 0 0 \u00b9\n", "line 4"),
    ("variant mapf\nvertices 2\ne 0 \u0661\na 0 0 1\n", "line 3"),
])
def test_parse_errors_are_located(text, fragment):
    with pytest.raises(InstanceFormatError, match=fragment):
        parse_instance(text)


def test_comments_and_blank_lines_ignored():
    inst = parse_instance("variant mapf # inline\n\nvertices 2\ne 0 1\na 0 0 1\n")
    assert inst.k == 1


# --- command line ---------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_generate_writes_parseable_instance(tmp_path, capsys):
    out = str(tmp_path / "i.txt")
    assert main(["generate", "--family", "grid", "--size", "8x8",
                 "--variant", "mapf", "--items", "16", "--seed", "3",
                 "--out", out]) == EXIT_OK
    inst = parse_instance(open(out).read())
    assert inst.graph.n == 64 and inst.k == 16
    text = open(out).read()
    assert sum(1 for l in text.splitlines() if l.startswith("e ")) == 112
    assert sum(1 for l in text.splitlines() if l.startswith("a ")) == 16


def test_generate_permutation_flag(capsys):
    assert main(["generate", "--family", "clique", "--size", "5",
                 "--variant", "tperm", "--items", "5", "--permutation"]) == EXIT_OK
    inst = parse_instance(capsys.readouterr().out)
    assert set(inst.starts) == set(inst.goals)


def test_generate_rejects_bad_k(capsys):
    # classical agents need an empty vertex: k == n is a usage error
    assert main(["generate", "--family", "clique", "--size", "4",
                 "--variant", "mapf", "--items", "4"]) == EXIT_USAGE


def test_solve_prints_replayable_plan(tmp_path, capsys):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    assert main(["solve", "--algo", "smtcbs", "--in", path]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "xi = 2"
    configs = [tuple(int(x) for x in line.split(":")[1].split())
               for line in out[:-1]]
    paths = [tuple(cfg[i] for cfg in configs) for i in range(2)]
    inst = parse_instance(SWAP_TEXT)
    assert validate(inst, make_plan(paths)) == []


def test_solve_exit_codes(tmp_path, capsys):
    unsolv = write(tmp_path, "u.txt", SWAP_TEXT.replace("tswap", "trot"))
    assert main(["solve", "--algo", "cbs", "--in", unsolv]) == EXIT_UNSOLVABLE
    missing = str(tmp_path / "nope.txt")
    assert main(["solve", "--algo", "cbs", "--in", missing]) == EXIT_USAGE
    bad = write(tmp_path, "b.txt", "variant warp\n")
    assert main(["solve", "--algo", "cbs", "--in", bad]) == EXIT_USAGE


def test_python_m_reloc_runs_the_command_line(tmp_path):
    # a plain checkout has no `reloc` console script; `python -m reloc` stands in
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    inst = write(tmp_path, "swap.txt", SWAP_TEXT)
    out = subprocess.run([sys.executable, "-m", "reloc", "solve", "--algo", "cbs", "--in", inst],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.splitlines()[-1] == "xi = 2"
    usage = subprocess.run([sys.executable, "-m", "reloc"], env=env,
                           capture_output=True, text=True, timeout=60)
    assert usage.returncode == EXIT_USAGE and "usage: reloc" in usage.stderr


def test_solve_timeout_exit_code(tmp_path, capsys):
    out = str(tmp_path / "big.txt")
    main(["generate", "--family", "grid", "--size", "8x8", "--variant", "tswap",
          "--items", "16", "--permutation", "--seed", "0", "--out", out])
    assert main(["solve", "--algo", "mddsat", "--in", out,
                 "--timeout", "0.05"]) == EXIT_TIMEOUT


def test_oracle_solve_times_out_with_exit_code_3(tmp_path, capsys):
    out = str(tmp_path / "mapf5.txt")
    main(["generate", "--family", "grid", "--size", "3", "--variant", "mapf",
          "--items", "5", "--seed", "1", "--out", out])
    assert main(["solve", "--algo", "oracle", "--in", out,
                 "--timeout", "0.05"]) == EXIT_TIMEOUT
    assert capsys.readouterr().err.startswith("timeout:")


def test_solve_appends_stats_rows(tmp_path, capsys):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    stats = str(tmp_path / "stats.csv")
    for _ in range(2):
        assert main(["solve", "--algo", "cbs", "--in", path,
                     "--stats", stats]) == EXIT_OK
    lines = open(stats).read().splitlines()
    assert len(lines) == 3 and lines[0].startswith("schema,")


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    out = str(tmp_path / "runs.csv")
    assert main(["bench", "--suite", "desk", "--seeds", "1",
                 "--timeout", "20", "--algos", "smtcbs", "--out", out]) == EXIT_OK
    assert os.path.exists(out)
    assert os.path.exists(str(tmp_path / "runs.summary.csv"))
    assert "smtcbs" in capsys.readouterr().out


def test_bench_rejects_unknown_algo(tmp_path, capsys):
    assert main(["bench", "--algos", "magic",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE


# --- external solver adapter -----------------------------------------------------

def test_parse_solver_output_conventions():
    m = _parse_solver_output("c banner\ns SATISFIABLE\nv 1 -2 0\n", 3)
    assert m == {1: True, 2: False, 3: False}  # unmentioned vars default off
    m = _parse_solver_output("SAT\n1 -2 3 0\n", 3)
    assert m == {1: True, 2: False, 3: True}
    assert _parse_solver_output("s UNSATISFIABLE\n", 2) == "UNSAT"
    with pytest.raises(SatError):
        _parse_solver_output("c nothing useful\n", 2)


def make_stub_solver(tmp_path, body):
    script = tmp_path / "stub.py"
    script.write_text("#!" + sys.executable + "\n" + textwrap.dedent(body))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_dimacs_backend_round_trip(tmp_path):
    # a real (tiny) solver: brute force over the dimacs file
    solver = make_stub_solver(tmp_path, """
        import itertools, sys
        clauses, nv = [], 0
        for line in open(sys.argv[1]).read().splitlines():
            if line.startswith(('c', 'p')):
                if line.startswith('p'):
                    nv = int(line.split()[2])
                continue
            clauses.append([int(t) for t in line.split() if t != '0'])
        for bits in itertools.product([False, True], repeat=nv):
            model = {v: bits[v - 1] for v in range(1, nv + 1)}
            if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
                print('s SATISFIABLE')
                print('v ' + ' '.join(str(v if model[v] else -v)
                                      for v in range(1, nv + 1)) + ' 0')
                sys.exit(10)
        print('s UNSATISFIABLE')
        sys.exit(20)
    """)
    backend = make_dimacs_backend(f"{sys.executable} {solver}")
    f = CnfFormula()
    a, b = f.new_var(), f.new_var()
    f.add_clause([a, b])
    f.add_clause([-a])
    model = backend(f, 30)
    assert model == {a: False, b: True}
    f.add_clause([-b])
    assert backend(f, 30) == "UNSAT"


def test_solve_with_external_backend(tmp_path, capsys):
    solver = make_stub_solver(tmp_path, """
        import itertools, sys
        clauses, nv = [], 0
        for line in open(sys.argv[1]).read().splitlines():
            if line.startswith(('c', 'p')):
                if line.startswith('p'):
                    nv = int(line.split()[2])
                continue
            clauses.append([int(t) for t in line.split() if t != '0'])
        for bits in itertools.product([False, True], repeat=min(nv, 22)):
            model = {v: (bits[v - 1] if v <= len(bits) else False)
                     for v in range(1, nv + 1)}
            if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
                print('SATISFIABLE')
                print(' '.join(str(v if model[v] else -v)
                               for v in range(1, nv + 1)))
                sys.exit(10)
        print('UNSATISFIABLE')
        sys.exit(20)
    """)
    path = tmp_path / "i.txt"
    path.write_text(SWAP_TEXT)
    for algo in ("mddsat", "smtcbs"):
        code = main(["solve", "--algo", algo, "--in", str(path),
                     "--sat", f"dimacs:{sys.executable} {solver}"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("xi = 2")


@pytest.mark.parametrize("algo", ["mddsat", "smtcbs"])
def test_failed_external_solver_exits_with_a_message(tmp_path, capsys, algo):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    mute = make_stub_solver(tmp_path, "print('c no status here')\n")
    for command, fragment in ((tmp_path / "no" / "solver", "failed to launch"),
                              (f"{sys.executable} {mute}", "no recognizable status")):
        assert main(["solve", "--algo", algo, "--in", path,
                     "--sat", f"dimacs:{command}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.splitlines()) == 1


def test_bad_sat_argument(tmp_path, capsys):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    assert main(["solve", "--algo", "smtcbs", "--in", path,
                 "--sat", "minisat"]) == EXIT_USAGE


# --- bad input exits with a message, not a traceback ---------------------------

def test_solve_rejects_input_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "i.txt"
    path.write_bytes(SWAP_TEXT.encode() + b"# \xff\xfe\n")
    assert main(["solve", "--algo", "cbs", "--in", str(path)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_non_ascii_digits(tmp_path, capsys):
    path = write(tmp_path, "i.txt", SWAP_TEXT.replace("vertices 2", "vertices \u00b2"))
    assert main(["solve", "--algo", "cbs", "--in", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err


def test_solve_checks_the_stats_directory_before_solving(tmp_path, capsys):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    stats = str(tmp_path / "missing" / "stats.csv")
    assert main(["solve", "--algo", "cbs", "--in", path,
                 "--stats", stats]) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == "" and "no such directory" in out.err


def test_generate_checks_the_out_directory(tmp_path, capsys):
    out = str(tmp_path / "nodir" / "x.txt")
    assert main(["generate", "--family", "grid", "--size", "3",
                 "--variant", "mapf", "--items", "2", "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no such directory" in err


@pytest.mark.parametrize("family,size,want", [
    ("grid", "3x", "N or WxH"), ("grid", "3x3x3", "N or WxH"), ("star", "3x", "N"),
])
def test_generate_names_a_bad_size(capsys, family, size, want):
    assert main(["generate", "--family", family, "--size", size,
                 "--variant", "mapf", "--items", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: --size {size!r}: expected {want}\n"


def test_bench_checks_the_out_directory_before_running(tmp_path, capsys,
                                                       monkeypatch):
    runs = []
    monkeypatch.setattr(bench, "run_suite", lambda *a, **kw: runs.append(a))
    out = str(tmp_path / "nodir" / "runs.csv")
    assert main(["bench", "--suite", "desk", "--seeds", "1",
                 "--algos", "cbs", "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert runs == []
    assert err.startswith("error:") and "no such directory" in err


@pytest.mark.parametrize("timeout", ["nan", "-1", "inf", "soon"])
def test_solve_rejects_a_timeout_that_is_not_a_budget(tmp_path, capsys, timeout):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    assert main(["solve", "--algo", "cbs", "--in", path,
                 "--timeout", timeout]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--timeout" in err and "_budget" not in err


@pytest.mark.parametrize("algo", ["cbs", "oracle"])
def test_sat_backend_is_refused_by_solvers_without_sat(tmp_path, capsys, algo):
    path = write(tmp_path, "i.txt", SWAP_TEXT)
    assert main(["solve", "--algo", algo, "--in", path,
                 "--sat", "dimacs:minisat"]) == EXIT_USAGE
    assert "does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-2", "two"])
def test_bench_rejects_seeds_that_are_not_a_positive_count(tmp_path, capsys,
                                                           monkeypatch, seeds):
    runs = []
    monkeypatch.setattr(bench, "run_suite", lambda *a, **kw: runs.append(a))
    out = tmp_path / "runs.csv"
    assert main(["bench", "--suite", "desk", "--seeds", seeds,
                 "--algos", "cbs", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"reloc bench: error: argument --seeds: not a positive count: {seeds!r}"]
    assert runs == [] and not out.exists()
