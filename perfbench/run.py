"""Benchmark of the unitsel pipeline: train, generate and score workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload train|generate|score|all \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` and driven in this process with
``threads=1``. Models and libraries a workload consumes are prepared by a
child process (untimed); then set-up runs ``SETUP_REPEATS`` times (the
median is reported), one round runs as warm-up, and rounds of the
workload's request mix run until ``--seconds`` have passed. With
``--trace 1`` the run instead measures per-layer numbers: rounds without
tracing for half of ``--seconds``, then a traced set-up and a fixed number
of traced rounds, then a thread sweep.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
SPAN_ROOT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
# Traced rounds per workload: a fixed number, so that the per-layer counts
# repeat exactly for a given seed.
TRACE_ROUNDS = {"train": 2, "generate": 5, "score": 4}
SWEEP_REPEATS = {"embed": 3, "similarities": 21}
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile

# Metric, unit and the request kind it is derived from, per workload.
RATES = {
    "build_lib": ("build_lib_units_per_s", "units/s"),
    "train_ae": ("ae_train_units_per_s", "units/s"),
    "train_dssm": ("dssm_train_pairs_per_s", "pairs/s"),
    "train_lm": ("lm_train_tokens_per_s", "tokens/s"),
    "nextunit": ("nextunit_probes_per_s", "probes/s"),
    "rank50": ("rank50_probes_per_s", "probes/s"),
    "reconstruct": ("reconstruct_units_per_s", "units/s"),
}
LATENCIES = {
    "generate": (("generate_ms_p50", 50), ("generate_ms_p90", 90)),
    "generate_notes": (("generate_notes_ms_p50", 50),),
}
REPORTED = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "failed/attempted"),
    ("round_s", "s"),
    ("build_lib_units_per_s", "units/s"),
    ("ae_train_units_per_s", "units/s"),
    ("dssm_train_pairs_per_s", "pairs/s"),
    ("lm_train_tokens_per_s", "tokens/s"),
    ("generate_ms_p50", "ms"),
    ("generate_ms_p90", "ms"),
    ("generate_notes_ms_p50", "ms"),
    ("nextunit_probes_per_s", "probes/s"),
    ("rank50_probes_per_s", "probes/s"),
    ("reconstruct_units_per_s", "units/s"),
)
END_TO_END = ("setup_s", "peak_rss_mb", "round_s")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "generate", "score", "all"))
    p.add_argument(
        "--seed", type=int, default=2025,
        help="workload seed; at 2025 the first 12 toygen pieces are tests/data/fixture.cor",
    )
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Make ``unitsel`` (from src/) and the workloads importable."""
    if not (ROOT / "src" / "unitsel").is_dir() or not (ROOT / "tests" / "toygen.py").is_file():
        raise SystemExit(f"perfbench: no unitsel sources under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


# ---------------------------------------------------------------- environment


def _openblas_calls():
    """(get_config, get_num_threads, set_num_threads) of numpy's OpenBLAS."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    calls = tuple(
                        getattr(lib, f"{prefix}_{name}{suffix}")
                        for name in ("get_config", "get_num_threads", "set_num_threads")
                    )
                except AttributeError:
                    continue
                calls[0].restype = ctypes.c_char_p
                calls[1].restype = ctypes.c_int
                calls[2].argtypes = [ctypes.c_int]
                return calls
    return None


def pin_blas_threads(count: int) -> None:
    """Run BLAS on ``count`` threads. On a small shared machine two BLAS
    threads made request times swing far more than one thread did."""
    calls = _openblas_calls()
    if calls is not None:
        calls[2](count)


def _openblas():
    """(config string, thread count) of the OpenBLAS that numpy loaded."""
    calls = _openblas_calls()
    if calls is None:
        return "unknown", -1
    return calls[0]().decode(), calls[1]()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment(args) -> dict:
    import numpy

    blas_config, blas_threads = _openblas()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unitsel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- measuring


class Outcomes:
    """Attempted/failed counts and the output digest of each request key."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}

    def run(self, workload, request) -> tuple[str, int, float, float] | None:
        """Run one request; check and hash its output outside the timed part.

        Returns (kind, work items, seconds, seconds scaled to the kind's
        nominal work items), or None when the request raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = request.call()
        except Exception:  # a failed request is counted, the run goes on
            self.failed += 1
            print(f"FAILED {request.key}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        items = workload.items(request.kind, out)
        problems = workload.check(request.kind, out)
        digest = workload.digest(request.kind, out)
        expected = self.reference.setdefault(request.key, digest)
        if expected != digest:
            problems.append("output differs from the warm-up output for the same input")
        if problems:
            self.failed += 1
            print(f"FAILED {request.key}: " + "; ".join(problems), file=sys.stderr)
        nominal = workload.nominal.get(request.kind)
        scaled = elapsed if nominal is None else elapsed * nominal / items
        return request.kind, items, elapsed, scaled


def run_rounds(workload, outcomes: Outcomes, seconds: float) -> list[tuple]:
    """Closed loop, one client: whole rounds until ``seconds`` have passed."""
    samples = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        for request in workload.round(index):
            samples.append(outcomes.run(workload, request))
        index += 1
    return [s for s in samples if s is not None]


def round_time(workload, samples) -> float:
    """Time of one round of the request mix, each request kind at its median
    (scaled) time over the run. Per-kind medians over many requests are
    steadier than the median of few round totals."""
    per_kind: dict[str, list[float]] = {}
    for kind, _, _, scaled in samples:
        per_kind.setdefault(kind, []).append(scaled)
    mix = [r.kind for r in workload.round(0)]
    return sum(statistics.median(per_kind[kind]) for kind in mix)


def timed_setup(workload, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def request_metrics(samples) -> dict[str, tuple[float | None, str]]:
    """The per-operation metrics named after the pipeline commands."""
    by_kind: dict[str, list] = {}
    for kind, items, elapsed, _ in samples:
        by_kind.setdefault(kind, [items, []])[1].append(elapsed)
    out: dict[str, tuple[float | None, str]] = {}
    for base, (name, unit) in RATES.items():
        kinds = [k for k in by_kind if k.split(":")[0] == base]
        if kinds:  # one rate over all variants, e.g. the four ranking regimes
            items = sum(by_kind[k][0] for k in kinds)
            seconds = sum(statistics.median(by_kind[k][1]) for k in kinds)
            out[name] = (items / seconds, unit)
    for kind, names in LATENCIES.items():
        if kind not in by_kind:
            continue
        values = [1000.0 * t for t in by_kind[kind][1]]
        for name, q in names:
            enough = q == 50 or len(values) >= P90_MIN_SAMPLES
            out[name] = (percentile(values, q) if enough else None, "ms")
            out[name + ".samples"] = (len(values), "count")
    return out


def thread_sweep(workload) -> dict[str, tuple[float, str]]:
    """embed_library and library_similarities at threads=1 and threads=nproc."""
    from unitsel import autoencoder

    model, lib = workload.sweep_inputs()
    elib = autoencoder.embed_library(model, lib, threads=1)
    query = elib.embeddings[0]
    nproc = len(os.sched_getaffinity(0))
    print(f"thread sweep over {len(lib)} library units at threads=1 and threads={nproc}")
    out = {}
    for threads, label in ((1, "threads_1"), (nproc, "threads_nproc")):
        for name, call, reps in (
            ("embed_library", lambda: autoencoder.embed_library(model, lib, threads), SWEEP_REPEATS["embed"]),
            (
                "library_similarities",
                lambda: autoencoder.library_similarities(query, elib, threads),
                SWEEP_REPEATS["similarities"],
            ),
        ):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out[f"sweep.{name}.{label}_s"] = (statistics.median(times), "s")
    return out


def prepare(args, work: Path) -> None:
    """Build the workload's inputs in a child process, so that neither its
    time nor its memory lands in the measured process."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--prepare", str(work)]
    done = subprocess.run(cmd, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: preparation failed with exit code {done.returncode}")


def measure(workloads, args, work: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload](work)
    outcomes = Outcomes()
    setup_s = timed_setup(workload, SETUP_REPEATS)
    for request in workload.round(0):  # warm-up; its digests make the fingerprint
        outcomes.run(workload, request)
    fingerprint = hashlib.sha256(json.dumps(sorted(outcomes.reference.items())).encode())
    result = {"env": environment(args), "outcomes": outcomes,
              "fingerprint": fingerprint.hexdigest()}
    if args.trace == 0:
        samples = run_rounds(workload, outcomes, args.seconds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "round_s": (round_time(workload, samples), "s"),
            "requests": (len(samples), "count"),
        }
        metrics.update(request_metrics(samples))
        result["metrics"] = metrics
        return result

    from spans import Tracer, layer_metrics

    untraced = round_time(workload, run_rounds(workload, outcomes, args.seconds / 2.0))
    tracer = Tracer()
    samples = []
    with tracer.installed():
        tracer.request = "setup"
        workload.setup()
        for index in range(TRACE_ROUNDS[args.workload]):
            for request in workload.round(index):
                tracer.request = f"round-{index}/{request.key}"
                samples.append(outcomes.run(workload, request))
    traced = round_time(workload, [s for s in samples if s is not None])
    SPAN_ROOT.mkdir(exist_ok=True)
    tracer.write(SPAN_ROOT / f"spans-{args.workload}-s{args.seed}.jsonl")
    metrics = layer_metrics(tracer)
    table = tracer.aggregate()
    missing = [n for n in workload.expected_spans if table.get(n, {}).get("calls", 0) == 0]
    metrics["lm.first_note_oov_share"] = (workload.first_note_oov_share(), "ratio")
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "ratio")
    metrics.update(thread_sweep(workload))
    result.update(metrics=metrics, table=table, missing=missing,
                  untraced_round_s=untraced, traced_round_s=traced)
    return result


# ---------------------------------------------------------------- reporting


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def report(args, result) -> int:
    env, outcomes, metrics = result["env"], result["outcomes"], result["metrics"]
    fingerprint = result["fingerprint"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fingerprint {fingerprint} (sha256 over the warm-up round's output digests)")
    missing = result.get("missing", [])
    if args.trace == 0:
        values = {name: value for name, (value, _) in metrics.items()}
        values["error_rate"] = outcomes.failed / max(outcomes.attempted, 1)
        print(f"{'metric':<26}{'value':>14}  unit")
        for name, unit in REPORTED:
            print(f"{name:<26}{_fmt(values.get(name)):>14}  {unit}")
        print(f"{'attempted':<26}{outcomes.attempted:>14}  requests")
        print(f"{'failed':<26}{outcomes.failed:>14}  requests")
        if "generate_ms_p90.samples" in values:
            print(f"generate requests timed: {_fmt(values['generate_ms_p90.samples'])} "
                  f"(p90 is reported from {P90_MIN_SAMPLES})")
        record = {"env": env, "fingerprint": fingerprint,
                  "attempted": outcomes.attempted, "failed": outcomes.failed,
                  "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
        print("record " + json.dumps(record, sort_keys=True))
        payload = {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in END_TO_END}
    else:
        print(f"{'span':<52}{'calls':>9}{'total_s':>12}{'self_s':>12}")
        for name, row in sorted(result["table"].items()):
            print(f"{name:<52}{int(row['calls']):>9}{row['total_s']:>12.4f}{row['self_s']:>12.4f}")
        print(f"{'per-layer metric':<52}{'value':>14}  unit")
        for name, (value, unit) in metrics.items():
            print(f"{name:<52}{_fmt(value):>14}  {unit}")
        print(f"tracing overhead: round {result['untraced_round_s']:.4f} s untraced, "
              f"{result['traced_round_s']:.4f} s traced "
              f"({100.0 * metrics['trace.overhead_share'][0]:+.1f}%)")
        for name in missing:
            print(f"expected span {name} recorded zero calls", file=sys.stderr)
        payload = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    correct = outcomes.failed == 0 and outcomes.attempted > 0 and not missing
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": payload}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run the three workloads one after another, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in ("train", "generate", "score"):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        for line in lines:
            if line.startswith("record "):
                records[name] = json.loads(line[len("record "):])
    if records:
        print(f"\n{'metric':<26}" + "".join(f"{w:>14}" for w in records) + "  unit")
        for metric, unit in REPORTED:
            cells = []
            for rec in records.values():
                if metric == "error_rate":
                    cells.append(_fmt(rec["failed"] / max(rec["attempted"], 1)))
                else:
                    cells.append(_fmt(rec["metrics"].get(metric, {}).get("value")))
            print(f"{metric:<26}" + "".join(f"{c:>14}" for c in cells) + f"  {unit}")
        for name, rec in records.items():
            print(f"fingerprint {name} {rec['fingerprint']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.prepare:
            raise SystemExit("perfbench: --prepare needs a single workload")
        return run_all(args)
    workloads = import_package()
    pin_blas_threads(1)
    if args.prepare:
        workloads.WORKLOADS[args.workload].prepare(Path(args.prepare), args.seed)
        return 0
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        prepare(args, work)
        result = measure(workloads, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, result)


if __name__ == "__main__":
    sys.exit(main())
