"""Fresh-process helper of run.py.

    python3 perfbench/probe.py setup WORKLOAD SEED
        prints the seconds this process took to import reloc and generate
        the workload's graphs and instances
    python3 perfbench/probe.py oracle WORKLOAD
        prints [status, xi] of oracle_solve for every base instance, as JSON

The oracle runs here, not in the measured process, so that its search
states do not count in that process's peak memory.
"""

import sys
import time

t0 = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import reloc  # noqa: F401  (timed: the package import itself)
    import workloads

    mode, workload = sys.argv[1], sys.argv[2]
    base = workloads.base_instances(workload)
    if mode == "setup":
        workloads.round_instances(workload, base, int(sys.argv[3]), 0)
        print(repr(time.perf_counter() - t0))
    elif mode == "oracle":
        import json

        from reloc.oracle import oracle_solve

        answers = [oracle_solve(inst) for inst in base]
        print(json.dumps([[a.status, a.xi] for a in answers]))
    else:
        sys.exit(f"unknown mode {mode!r}")
