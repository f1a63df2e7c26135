"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload inference --seed 1 --seconds 15 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file). The package is imported from ``src/`` of the same checkout.

One process runs one workload. It imports the package, builds the inputs
from ``--seed``, makes one untimed warm-up pass and computes the expected
answers untimed. It then repeats the workload's fixed job list until
``--seconds`` have passed, always finishing the pass it is in (a job list
longer than ``--seconds`` runs once). Every answer is checked outside the
timed region. ``wall_s`` is the mean pass.

Between the timed passes, spread over the run, set-up is timed seven
times in fresh interpreters: import the package, build the inputs and
make the warm-up pass. ``setup_s`` is the median of the seven.

Both are scaled to the speed of a quiet host by a probe kernel timed
during the run (see ``probe``); the record keeps the raw times.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics. With ``--trace 1`` half the time is measured untraced and half
with the tracer installed, and the last line holds the per-layer metrics;
``trace.overhead_s`` is ``wall_s`` measured traced minus ``wall_s``
measured untraced. The line before it is the full record: environment, pass times,
per-call latency (median and tail), failures, the workload's answers, and
both metric sets when traced.

``--workload all`` runs the four workloads one after another, each in a
fresh process, echoes their output, and ends with one line holding every
metric of every workload, named ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Pin every thread pool before numpy is imported: each workload is a
# single-threaded process, so its timing does not depend on core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("census", "inference", "reduced_states", "esq")

# The probe: a fixed CPU kernel of about 3 ms, timed between the ops of a
# run and around every cold set-up. Other tenants of a shared host slow a
# process in short bursts whose share of the time drifts over tens of
# seconds; an op of 0.2 s always overlaps some of them, so its time follows
# that share, and so does the probe's mean time. End-to-end times are
# scaled by PROBE_REF_S / (the probe's mean time) to the speed of a quiet
# host, where the probe takes PROBE_REF_S.
PROBE_REF_S = 2.75e-3
PROBE_EVERY_S = 0.05  # op time between two probes in a run
PROBE_AROUND = 16  # probes before and after each cold set-up
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((16, 16))


def probe() -> float:
    """Seconds taken by the probe kernel: a Python loop and small LAPACK calls."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    for _ in range(30):
        np.linalg.eigh(_PROBE_MATRIX @ _PROBE_MATRIX.T)
        np.linalg.svd(_PROBE_MATRIX)
    return time.perf_counter() - t0


@dataclass
class Measurement:
    pass_seconds: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)  # the last pass's answers

    def host_factor(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.probes_s)

    def wall_s(self) -> float:
        """The mean pass, scaled to the speed of a quiet host."""
        return statistics.fmean(self.pass_seconds) * self.host_factor()


def measure(workload, seconds: float, tracer=None, between=None, rounds: int = 0) -> Measurement:
    """Repeat the job list until ``seconds`` have passed; at least once.

    ``between`` is called ``rounds`` times between passes, spread evenly
    over the span, and its time is not counted in it.
    """
    m = Measurement()
    start = time.perf_counter()
    paused = 0.0
    done = 0
    since_probe = PROBE_EVERY_S
    while True:
        busy = 0.0
        m.results = []
        for op in workload.ops:
            error = None
            result = None
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                m.failures.append(f"{op.name}: {error}")
            m.latencies_ms.append(1e3 * elapsed)
            m.results.append(result)
            busy += elapsed
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                m.probes_s.append(probe())
                since_probe = 0.0
        m.pass_seconds.append(busy)
        spent = time.perf_counter() - start - paused
        while done < rounds and (spent >= seconds or done < rounds * spent / seconds):
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
            done += 1
        if spent >= seconds:
            return m


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies, and the
    maximum (p100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "p100"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if that is the BLAS."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# Run by ``cold_setup`` in a fresh interpreter: import, build, warm up.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
t1 = time.perf_counter()
workload = workloads.WORKLOADS[{name!r}]({seed!r}, {workdir!r})
t2 = time.perf_counter()
first_calls = []
for op in workload.ops:
    start = time.perf_counter()
    op.call()
    first_calls.append(time.perf_counter() - start)
print(json.dumps({{"import_s": t1 - t0, "build_s": t2 - t1, "first_calls_s": first_calls}}))
"""


def cold_setup(args: argparse.Namespace, workdir: str) -> dict:
    """Times of a fresh interpreter's import, input build and cold op calls.

    ``host_factor`` scales them to a quiet host, from the probes run just
    before and just after the child.
    """
    code = _SETUP_CHILD.format(paths=[SRC, HERE], name=args.workload, seed=args.seed, workdir=workdir)
    probes = [probe() for _ in range(PROBE_AROUND)]
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=150
    )
    probes += [probe() for _ in range(PROBE_AROUND)]
    times = json.loads(child.stdout.splitlines()[-1])
    times["host_factor"] = PROBE_REF_S / statistics.fmean(probes)
    return times


def setup_seconds(rounds: list[dict]) -> float:
    """The median set-up over the rounds, each scaled to a quiet host."""
    return statistics.median(
        (r["import_s"] + r["build_s"] + sum(r["first_calls_s"])) * r["host_factor"] for r in rounds
    )


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run one workload; return (full record, last-line result)."""
    workdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        t0 = time.perf_counter()
        sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]
        import tracer as tracing
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for op in workload.ops:  # warm-up pass
            op.call()
        own_setup_s = time.perf_counter() - t0
        workload.reference()
        # a traced run splits its time between an untraced and a traced
        # measurement, so that the tracing overhead is their difference
        span = args.seconds / 2 if args.trace else args.seconds
        # The cold set-ups run between the timed passes, so that both
        # sample the whole run and a slow stretch of the host seldom
        # covers every sample of either.
        setups = []
        plain = measure(
            workload, span, between=lambda: setups.append(cold_setup(args, workdir)), rounds=SETUP_REPEATS
        )
        traced = None
        if args.trace:
            with tracing.Tracer() as tracer:
                traced = measure(workload, span, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tail_ms, tail_name = tail(plain.latencies_ms)
    wall_s = plain.wall_s()
    answered = all(r is not None for r in plain.results)
    summary = workload.summarize(plain.results) if answered else {}
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_seconds(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    runs = [plain] + ([traced] if traced else [])
    failures = [f for r in runs for f in r.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_rounds_s": setups,
        "own_setup_s": own_setup_s,
        "passes": len(plain.pass_seconds),
        "pass_seconds": plain.pass_seconds,
        "fastest_pass_s": min(plain.pass_seconds),
        "probes": len(plain.probes_s),
        "probe_mean_s": statistics.fmean(plain.probes_s),
        "host_factor": plain.host_factor(),
        "pass_median_s": statistics.median(plain.pass_seconds),
        # per-call latency over every call of the run
        "latency": {
            "op_p50_ms": statistics.median(plain.latencies_ms),
            "op_tail_ms": tail_ms,
            "tail_percentile": tail_name,
            "samples": len(plain.latencies_ms),
        },
        "failures": failures[:20],
        "answers": summary,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    metrics = record["end_to_end"]
    if traced is not None:
        units = dict(tracing.metric_names())
        layers = {k: {"value": v, "unit": units[k]} for k, v in tracer.metrics(len(traced.pass_seconds)).items()}
        overhead = traced.wall_s() - wall_s
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        absent = tracer.absent_metrics()
        # 0 on the workloads that never call squashed; absent, not 0, on a
        # failed esq run, since 0 would read as the best possible value
        if "esq_excess_nats" in summary or args.workload != "esq":
            excess = summary.get("esq_excess_nats", 0.0)
            layers["squashed.excess_nats"] = {"value": excess, "unit": "nats"}
        else:
            absent.append("squashed.excess_nats")
        record["traced_passes"] = len(traced.pass_seconds)
        record["per_layer"] = layers
        record["absent"] = absent
        metrics = layers
    result = {
        "correct": not failures,
        "attempted": sum(len(r.latencies_ms) for r in runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    return record, result


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one line of every metric at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        print(child.stdout, end="", flush=True)
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qbnets")):
        print(f"error: no package source at {SRC}/qbnets", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record, result = run(args)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
