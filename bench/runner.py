"""Set-up, timed phases, child processes, and the machine-speed reference.

Every workload is a closed loop: one client, one job in flight, no
threads, at most one child process at a time.  A timed phase runs whole
blocks until ``seconds`` of wall time have passed; inputs of the next block
are generated and written between jobs, off the clock.

The speed of a shared machine drifts by a third within seconds, far more
than any bound worth having, and CPU time drifts with it (the cores are
shared, not merely time-sliced).  So between jobs, off the clock, the
benchmark times a fixed reference task that sinewall cannot change, and
reports each time scaled to the reference's nominal duration:
raw x nominal / median of the reference samples taken within
``REF_WINDOW_S`` of that job.  A change of machine speed moves both and
cancels; a change to sinewall shows in full.  Raw times are printed and
recorded beside the scaled ones.

There are two references (``reference.py``), matched to how the timed
work runs:

- ``loop``, for work in the benchmark process: a pure-Python loop of
  small-int arithmetic and Fraction sums, run in the benchmark process;
- ``process``, for work in fresh processes: a fresh interpreter that makes
  the standard-library imports the CLI makes and runs the same loop.
"""

from __future__ import annotations

import io
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from jobs import IN_PROCESS, Generator, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

SETUP_REPS = 9
JOB_TIMEOUT_S = 60
PROBE = ("import time; t = time.perf_counter(); import sinewall.cli; "
         "print(time.perf_counter() - t)")
# nominal duration (ms) and sampling interval (s of phase time) of each reference
REF_NOMINAL_MS = {"loop": 8.0, "process": 70.0}
REF_INTERVAL_S = {"loop": 0.1, "process": 0.5}
REF_WINDOW_S = 1.0
# `python -m sinewall.cli`, which then records the interpreter's own peak RSS
# (VmHWM) in the file named by its first argument.  The child's ru_maxrss
# would not do: Linux carries the parent's peak RSS into it at exec.
CLI_LAUNCH = """import runpy, sys
rss_path = sys.argv.pop(1)
try:
    runpy.run_module("sinewall.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(rss_path, "w") as out:
        out.write(kib)
"""


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


def reference_process_ms(workdir: Path) -> float:
    rc, elapsed, _ = run_child([sys.executable, str(BENCH / "reference.py")],
                               workdir / "ref.out")
    if rc != 0:
        raise SystemExit(f"error: reference interpreter exited {rc}")
    return elapsed * 1000


class Speedometer:
    """Reference samples over time, and raw times scaled to nominal speed."""

    def __init__(self, kind: str, workdir: Path):
        self.kind = kind
        self.workdir = workdir
        self.samples: list[tuple[float, float]] = []  # (midpoint, ms)

    @classmethod
    def for_workload(cls, workload: str, workdir: Path) -> Speedometer:
        return cls("loop" if workload in IN_PROCESS else "process", workdir)

    def sample(self) -> None:
        t0 = perf_counter()
        if self.kind == "loop":
            ms = reference.loop_ms()
        else:
            ms = reference_process_ms(self.workdir)
        self.samples.append(((t0 + perf_counter()) / 2, ms))

    def keep_pace(self, elapsed: float) -> None:
        """Sample until there is one sample per REF_INTERVAL_S of ``elapsed``."""
        while len(self.samples) < 1 + elapsed / REF_INTERVAL_S[self.kind]:
            self.sample()

    def local_ms(self, start: float, end: float) -> float:
        """Median reference time within REF_WINDOW_S of [start, end]."""
        near = [ms for t, ms in self.samples
                if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        if len(near) < 2:
            near = [ms for _, ms in sorted(self.samples, key=lambda s: abs(s[0] - start))[:2]]
        return statistics.median(near)

    def nominal(self, raw: float, start: float, end: float) -> float:
        return raw * REF_NOMINAL_MS[self.kind] / self.local_ms(start, end)

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)


def require_program() -> None:
    if not (SRC / "sinewall" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'sinewall'} not found; "
                         "run the benchmark from the root of a sinewall checkout")


def child_env() -> dict[str, str]:
    """Children import sinewall from this checkout, under the default digit limit,
    and cache its bytecode there as an installed package would."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], stdout_path: Path, timeout: float = JOB_TIMEOUT_S):
    """Run one child to completion; returns (exit status, seconds, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        old = signal.signal(signal.SIGALRM, _alarm)
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.signal(signal.SIGALRM, old)
        elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


@dataclass
class JobResult:
    job: Job
    rc: int
    latency: float
    stdout: bytes
    start: float = 0.0


@dataclass
class Phase:
    results: list[JobResult]
    peak_rss_mb: float
    speed: Speedometer

    @property
    def busy(self) -> float:
        return sum(r.latency for r in self.results)

    def latencies_ms(self) -> list[float]:
        return [r.latency * 1000 for r in self.results]

    def nominal_latencies(self) -> list[float]:
        """Job latencies in seconds, scaled to nominal machine speed."""
        return [self.speed.nominal(r.latency, r.start, r.start + r.latency)
                for r in self.results]

    @property
    def jobs_per_s(self) -> float:
        """Completed jobs per second of summed latency, at nominal machine speed."""
        return len(self.results) / sum(self.nominal_latencies())


def setup(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPS times: generate and write block 0, then start a fresh
    interpreter that imports sinewall.cli.  Returns the per-rep seconds, raw
    and at nominal speed, the import seconds measured inside each probe, and
    the reference, ``process`` because a set-up is mostly interpreter start."""
    speed = Speedometer("process", workdir)
    spans, imports = [], []
    for _ in range(SETUP_REPS):
        speed.sample()
        t0 = perf_counter()
        for job in Generator(workload, seed, workdir).block(0):
            job.write_inputs()
        probe_out = workdir / "probe.out"
        rc, _, _ = run_child([sys.executable, "-c", PROBE], probe_out)
        spans.append((t0, perf_counter()))
        if rc != 0:
            err = probe_out.with_suffix(".err").read_text()
            raise SystemExit(f"error: importing sinewall.cli failed:\n{err}")
        imports.append(float(probe_out.read_text()))
    speed.sample()
    raw = [t1 - t0 for t0, t1 in spans]
    nominal = [speed.nominal(t1 - t0, t0, t1) for t0, t1 in spans]
    return raw, nominal, imports, speed


def timed_phase(gen: Generator, run_job, seconds: float, speed: Speedometer,
                on_job=None) -> Phase:
    """Run whole blocks until ``seconds`` of wall time have passed.

    ``run_job(job)`` returns (exit status, seconds, stdout, peak RSS KiB).
    After each job ``speed`` samples its reference, keeping one sample per
    interval of summed job latency.  A hard wall-clock cap stops a phase
    mid-block if the program stalls.
    """
    results, peaks, busy = [], [], 0.0
    start = perf_counter()
    cap = 4 * seconds + 20
    speed.sample()
    b = 0
    while perf_counter() - start < seconds:
        block = gen.block(b)
        for job in block:
            job.write_inputs()
        for job in block:
            if on_job is not None:
                on_job(job.id)
            t0 = perf_counter()
            rc, latency, stdout, rss = run_job(job)
            busy += latency
            results.append(JobResult(job, rc, latency, stdout, t0))
            peaks.append(rss)
            speed.keep_pace(busy)
            if perf_counter() - start >= cap:
                break
        b += 1
    return Phase(results, max(peaks) / 1024, speed)


def inprocess_runner(main):
    """Run jobs through ``main(argv)`` in this process, capturing stdout."""

    def run_job(job: Job):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(job.argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = -1
        latency = perf_counter() - t0
        if rc == -1:
            sys.stderr.write(err.getvalue())
        if threading.active_count() > 1:
            # the reference loop shares this process and would run slower
            raise SystemExit("error: a job left threads running in the benchmark process")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return rc, latency, out.getvalue().encode(), rss

    return run_job


def cli_runner(workdir: Path):
    """Run each job as a fresh ``python -m sinewall.cli`` (through CLI_LAUNCH)."""

    def run_job(job: Job):
        stdout_path = workdir / f"job{job.id}.stdout"
        rss_path = workdir / f"job{job.id}.rss"
        rc, latency, _ = run_child([sys.executable, "-c", CLI_LAUNCH, str(rss_path), *job.argv],
                                   stdout_path)
        rss = int(rss_path.read_text()) if rss_path.exists() else 0
        return rc, latency, stdout_path.read_bytes(), rss

    return run_job


def traced_runner(workdir: Path):
    """Run each job in a fresh process through the tracer's job entry."""

    def run_job(job: Job):
        stdout_path = workdir / f"job{job.id}.stdout"
        cmd = tracer_command("job", "--job-id", str(job.id),
                             "--spans", str(workdir / f"spans{job.id}.json"), "--", *job.argv)
        rc, latency, rss = run_child(cmd, stdout_path)
        return rc, latency, stdout_path.read_bytes(), rss

    return run_job


def cli_command() -> list[str]:
    return [sys.executable, "-m", "sinewall.cli"]


def tracer_command(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), *args]


def median(values):
    return statistics.median(values) if values else 0.0
