"""Where a benchmark workload's memory goes, request by request.

A development script, not a test (pytest does not collect it):

    python3 tests/memprobe.py --workload train
    python3 tests/memprobe.py --workload all --seed 2026

It prepares a perfbench workload's inputs in a child process, as
``perfbench/run.py`` does, then runs the workload's set-up and one round
of its requests twice in this process, and prints one row for set-up and
for each request:

- ``rss_mb``: the process's RSS high-water mark (``ru_maxrss``) after it,
  from a first pass without tracemalloc, so it is the figure perfbench
  reports as ``peak_rss_mb`` once the last request has run;
- ``traced_peak_mb``: the tracemalloc peak above the traced memory at its
  start, from a second pass under tracemalloc. numpy reports its array
  buffers to tracemalloc, so this is the request's own transient peak.

It imports ``perfbench/run.py`` and ``perfbench/workloads.py`` and changes
nothing under ``perfbench/``. Each workload of ``--workload all`` runs in
its own process, since the RSS high-water mark is per process.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("train", "generate", "score")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steps(workload) -> list[tuple[str, object]]:
    """Set-up, then each request of the workload's first round."""
    return [("setup", workload.setup)] + [
        (request.key if request.key == request.kind else f"{request.kind} {request.key}",
         request.call)
        for request in workload.round(0)
    ]


def probe(name: str, seed: int) -> None:
    sys.path.insert(0, str(PERFBENCH))
    import run  # perfbench/run.py

    workloads = run.import_package()
    run.pin_blas_threads(1)
    with tempfile.TemporaryDirectory(prefix="memprobe-") as work:
        cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", name,
               "--seed", str(seed), "--prepare", work]
        subprocess.run(cmd, check=True, timeout=600)
        workload = workloads.WORKLOADS[name](Path(work))
        rss = {}
        for label, call in steps(workload):
            call()
            rss[label] = rss_mb()
        traced = {}
        tracemalloc.start()
        for label, call in steps(workload):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            traced[label] = (tracemalloc.get_traced_memory()[1] - start) / 2**20
        tracemalloc.stop()
    print(f"workload {name}, seed {seed}")
    print(f"{'step':<24}{'rss_mb':>10}{'traced_peak_mb':>16}")
    for label in rss:
        print(f"{label:<24}{rss[label]:>10.1f}{traced[label]:>16.1f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=2025, help="perfbench's workload seed")
    args = p.parse_args(argv)
    if args.workload != "all":
        probe(args.workload, args.seed)
        return 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        subprocess.run(cmd, check=True, timeout=1800)
    return 0


if __name__ == "__main__":
    sys.exit(main())
