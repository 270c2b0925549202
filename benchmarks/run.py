"""sgain benchmark: one closed-loop client, one job at a time.

    python3 benchmarks/run.py --workload shipped --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``shipped``, ``certify-mix``, ``sim-sweep``.
The program under test is ``src/sgain`` of the checkout holding this file;
it is imported in-process and driven through ``sgain.cli.main`` and
``sgain.truncation_convergence_probe`` only.

``--trace 0`` times the jobs untraced and prints the end-to-end metrics.
``--trace 1`` runs half the time untraced, replays the same jobs with every
layer function wrapped (tracing.py), and prints the per-layer metrics.
Every job's output is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 0
only when no check failed.  ``--short`` shrinks every job for a smoke run.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SCENARIOS = ("chain-a", "lure-platoon", "traffic", "counter-slow", "counter-gain")
# Per-family times, named after the shipped scenario of each family: the
# time a round spends on the family's jobs, averaged over the rounds (on
# shipped, the family's one job per round is that scenario).  A mean, not a
# median: one chain job in a round may stall in the program's Perron
# iteration, and a median over a few rounds flips on it.
FAMILY_METRICS = (("scenario_s.chain-a", "linear-chain"),
                  ("scenario_s.lure-platoon", "lure-banded"),
                  ("scenario_s.traffic", "traffic"))
SETUP_REPEATS = 5
SETUP_CODE = ("import sgain\n"
              f"for name in {SCENARIOS!r}:\n"
              "    sgain.make_scenario(name)\n")


@dataclass
class Record:
    round: int
    label: str
    family: str
    seconds: float       # wall time corrected to the reference speed
    wall: float          # wall time as measured
    failures: list
    decided: bool
    report_bytes: int


class Speed:
    """Samples the speed of the benchmark's core while jobs run.

    This sandbox's cores switch between a fast state and one up to 1.8x
    slower, independently and for seconds at a time.  A timer signal runs
    a fixed probe every ``PERIOD`` seconds: one exact Fraction product of a
    banded matrix held as dict rows with a vector, the kind of work the
    program's exact layers do; its time tracked job-time changes with a
    slope of 1.0-1.2, against 0.5 for a small sparse numpy probe.  A timed
    interval's corrected time is its wall time times ``NOMINAL / t_probe``,
    with ``t_probe`` the mean probe time during the interval and the
    ``MARGIN`` seconds before it: seconds at the speed at which the probe
    takes ``NOMINAL``.
    The benchmark runs pinned to one core, so the probes and the jobs share
    it.  The raw wall times are printed alongside.
    """

    PERIOD = 0.05
    MARGIN = 1.0
    NOMINAL = 0.001  # sets the unit: about the probe's time on a 2-vCPU sandbox, Python 3.11

    def __init__(self):
        self.rows = [{-1: Fraction(1, 3 + i % 7), 1: Fraction(2, 5 + i % 3)}
                     for i in range(100)]
        self.ticks: list[tuple[float, float]] = []  # (end, probe seconds)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        time.sleep(2 * self.MARGIN)  # probes to cover the first interval
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        vec = [Fraction(1, 1 + i % 4) for i in range(len(self.rows) + 1)]
        [sum(w * vec[j + off] for off, w in row.items()) for j, row in enumerate(self.rows)]
        end = time.perf_counter()
        self.ticks.append((end, end - start))

    def timed(self, fn):
        """``(result, wall seconds, corrected seconds)`` of ``fn()``."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        probes = [d for t, d in self.ticks if start - self.MARGIN <= t <= end]
        t_probe = statistics.fmean(probes) if probes else self.ticks[-1][1]
        return result, end - start, (end - start) * self.NOMINAL / t_probe


def measure_setup(work: Path, repeats: int, speed: Speed) -> tuple[float, float]:
    """Median corrected and raw time of a fresh interpreter importing sgain
    and building every shipped scenario; src goes on the path as an
    absolute path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    runs = [speed.timed(lambda: subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=work, env=env, check=True,
        capture_output=True, timeout=120)) for _ in range(repeats + 1)]
    runs = runs[1:]  # the first run may compile bytecode
    return (statistics.median(r[2] for r in runs), statistics.median(r[1] for r in runs))


def execute(sgain, workload, job, out: Path, speed: Speed, tracer=None):
    from workloads import Verdict, run_job

    def attempt():
        try:
            return run_job(sgain, job, out)
        except Exception as exc:  # a crashing job is a counted failure, not a crashed run
            return exc

    out.mkdir(parents=True)
    if tracer is not None:
        tracer.recording = True
    try:
        result, wall, seconds = speed.timed(attempt)
    finally:
        if tracer is not None:
            tracer.recording = False
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    if isinstance(result, Exception):
        verdict = Verdict([f"raised {type(result).__name__}: {result}"], False)
    else:
        try:
            verdict = workload.check(job, out, result)
        except Exception as exc:  # noqa: BLE001 - a broken output is a failure
            verdict = Verdict([f"check raised {type(exc).__name__}: {exc}"], False)
    shutil.rmtree(out)
    return seconds, wall, verdict, written


class Runner:
    def __init__(self, sgain, workload, work: Path, speed: Speed):
        self.sgain = sgain
        self.workload = workload
        self.work = work
        self.speed = speed
        self.executed: list[Record] = []
        self.rounds: list[list] = []

    def run(self, job, r: int, tracer=None) -> Record:
        seconds, wall, verdict, written = execute(
            self.sgain, self.workload, job, self.work / f"job{len(self.executed):05d}",
            self.speed, tracer)
        rec = Record(r, job.label, job.family, seconds, wall, verdict.failures,
                     verdict.decided, written)
        self.executed.append(rec)
        if rec.failures:
            print(f"FAIL {rec.label}: {'; '.join(rec.failures)}", flush=True)
        return rec

    def timed(self, seconds: float) -> list[Record]:
        """Whole rounds until the next one would end past ``seconds``."""
        records, walls = [], []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start) + statistics.fmean(walls) <= seconds:
            jobs = self.workload.round(len(self.rounds))
            self.rounds.append(jobs)
            t0 = time.perf_counter()
            records += [self.run(job, len(self.rounds) - 1) for job in jobs]
            walls.append(time.perf_counter() - t0)
        return records

    def replay(self, tracer) -> list[Record]:
        """The timed rounds again, traced; spans carry the job's position."""
        records = []
        for r, jobs in enumerate(self.rounds):
            for job in jobs:
                tracer.job = len(records)
                records.append(self.run(job, r, tracer))
        return records


def timings(records: list[Record], setup_s: float, field: str) -> dict:
    times = [getattr(r, field) for r in records]
    out = {"setup_s": (setup_s, "s"),
           "jobs_per_s": (len(times) / sum(times), "1/s"),
           "job_p50_s": (statistics.median(times), "s")}
    rounds = len({r.round for r in records})
    for metric, family in FAMILY_METRICS:
        out[metric] = (sum(getattr(r, field) for r in records if r.family == family) / rounds,
                       "s")
    return out


def end_to_end(records: list[Record], setup: tuple[float, float]) -> dict:
    for name, (value, unit) in timings(records, setup[1], "wall").items():
        print(f"info raw {name:28s} {value:.6g} {unit}")
    out = timings(records, setup[0], "seconds")
    times = [r.seconds for r in records]
    out["ok_frac"] = (sum(not r.failures for r in records) / len(records), "frac")
    out["decided_frac"] = (sum(r.decided for r in records) / len(records), "frac")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if len(times) >= 100:  # ten samples beyond the 90th percentile
        print(f"info job_p90_s {statistics.quantiles(times, n=10)[-1]:.6f} s "
              f"({len(times)} jobs)")
    return out


def per_layer(tracer, traced: list[Record], untraced: list[Record]) -> dict:
    scale = [r.seconds / r.wall if r.wall > 0 else 1.0 for r in traced]
    out, absent = tracer.metrics(scale)
    out["cli.report_bytes"] = (statistics.fmean(r.report_bytes for r in traced), "bytes/job")
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0
    out["trace.overhead_frac"] = (overhead, "frac")
    if absent:
        print(f"info absent layers (reported as 0): {', '.join(absent)}")
    missing = tracer.missing()
    if missing:
        print(f"info functions not found in the program: {', '.join(missing)}")
    table = tracer.breakdown([r.label for r in traced], [r.seconds for r in traced], scale)
    for label, (n, job_s, layers) in table.items():
        parts = "  ".join(f"{k} {v:.4f}" for k, v in layers.items())
        print(f"trace {label:28s} n={n:<4d} job {job_s:.4f} s  self: {parts}")
    return out


def context() -> dict:
    import numpy
    import scipy

    loc = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "src_loc": loc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shrink every job (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "sgain" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sgain'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgain
    import sgain.cli
    from workloads import WORKLOADS

    if Path(sgain.__file__).resolve().parent != SRC / "sgain":
        print(f"error: imported sgain from {sgain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    try:
        with Speed() as speed:
            setup = None if args.trace else measure_setup(
                work, 1 if args.short else SETUP_REPEATS, speed)
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](sgain, work, args.seed, args.short)
            runner = Runner(sgain, workload, work, speed)
            runner.run(workload.round(0)[0], -1)  # warm-up: checked, not timed
            print(f"info set-up {time.perf_counter() - t0:.2f} s", flush=True)
            if not args.trace:
                records = runner.timed(args.seconds)
                metrics = end_to_end(records, setup)
            else:
                from tracing import Tracer

                untraced = runner.timed(args.seconds / 2)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = runner.replay(tracer)
                finally:
                    tracer.uninstall()
                records = traced
                metrics = per_layer(tracer, traced, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name:28s} {value:.6g} {unit}")
    print(f"info jobs timed {len(records)}; context {json.dumps(context())}")
    failed = sum(bool(r.failures) for r in runner.executed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.executed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
