"""sinewall benchmark: three workloads, untraced end-to-end runs and a traced per-layer run.

    python3 bench/run.py --workload transform-deep --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 3        # every workload, untraced
    python3 bench/run.py --baseline                     # ROADMAP baseline table
    python3 bench/run.py --record-digests               # rewrite digests.json

Run from the root of a checkout.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name every metric with its unit and sample count or base.  A fuller record,
with the environment, goes to .bench_work/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import runner
import tracer
from jobs import DEFAULT_SEED, IN_PROCESS, WORKLOADS, Generator, int_digit_limit
from runner import ROOT, SRC, WORK, median

KERNEL_REPS = 3
P90_MIN_JOBS = 100  # at least 10 samples beyond the 90th percentile


def environment(seed: int, trace: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "traced": bool(trace),
    }


def import_program():
    """Import sinewall.cli from this checkout into the benchmark process."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import sinewall.cli
    elapsed = perf_counter() - t0
    if Path(sinewall.cli.__file__).resolve().parent != (SRC / "sinewall").resolve():
        raise SystemExit(f"error: imported sinewall from {sinewall.cli.__file__}, not {SRC}")
    return sinewall.cli.main, elapsed


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def validate(checker, results, failures: list) -> int:
    bad = 0
    for r in results:
        reason = checker.check(r.job, r.rc, r.stdout)
        if reason is not None:
            bad += 1
            failures.append(f"job {r.job.id} ({' '.join(r.job.argv[:3])}): {reason}")
    return bad


def untraced_phase(workload, seed, seconds, workdir, main):
    workdir.mkdir(parents=True)
    gen = Generator(workload, seed, workdir)
    speed = runner.Speedometer.for_workload(workload, workdir)
    if workload in IN_PROCESS:
        return runner.timed_phase(gen, runner.inprocess_runner(main), seconds, speed)
    return runner.timed_phase(gen, runner.cli_runner(workdir), seconds, speed)


def traced_phase(workload, seed, seconds, workdir):
    """The same job stream with the tracer installed; returns (phase, span docs)."""
    workdir.mkdir(parents=True)
    speed = runner.Speedometer.for_workload(workload, workdir)
    if workload in IN_PROCESS:
        cmd = runner.tracer_command("phase", "--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--workdir", str(workdir))
        rc, _, _ = runner.run_child(cmd, workdir / "phase.out", timeout=4 * seconds + 60)
        if rc != 0:
            err = (workdir / "phase.err").read_text()
            raise SystemExit(f"error: traced phase failed:\n{err}")
        doc = json.loads((workdir / "phase.json").read_text())
        gen = Generator(workload, seed, workdir)
        by_id, b = {}, 0
        while len(by_id) < len(doc["jobs"]):
            by_id.update((job.id, job) for job in gen.block(b))
            b += 1
        results = [runner.JobResult(by_id[i], rc, latency, out.encode(), start)
                   for i, rc, latency, start, out in doc["jobs"]]
        speed.samples = [tuple(s) for s in doc["ref_samples"]]
        phase = runner.Phase(results, doc["peak_rss_mb"], speed)
        return phase, [json.loads((workdir / "spans.json").read_text())]

    gen = Generator(workload, seed, workdir)
    phase = runner.timed_phase(gen, runner.traced_runner(workdir), seconds, speed)
    docs = []
    for r in phase.results:
        path = workdir / f"spans{r.job.id}.json"
        if path.exists():
            docs.append(json.loads(path.read_text()))
    return phase, docs


def kernel_rows(workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    rows = {}
    for name in tracer.KERNELS:
        times = []
        for rep in range(KERNEL_REPS):
            out = workdir / f"kernel-{name}-{rep}.out"
            rc, _, _ = runner.run_child(runner.tracer_command("kernel", name), out)
            if rc == 0:
                times.append(float(out.read_text()))
            else:
                print(f"# kernel {name} failed: {out.with_suffix('.err').read_text()[-300:]}")
        rows[name] = (median(times), "ms", f"n={len(times)} fresh processes")
    return rows


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    runner.require_program()
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "setup").mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, workdir) -> dict:
    env = environment(seed, trace)
    raw_setup, setup_s, import_times, setup_speed = runner.setup(workload, seed,
                                                                 workdir / "setup")
    main = None
    if workload in IN_PROCESS:
        main, inproc_import = import_program()
        print(f"# in-process import of sinewall.cli: {inproc_import * 1000:.1f} ms")
    # a traced run splits its time between an untraced and a traced phase
    phase_s = seconds / 2 if trace else seconds
    plain = untraced_phase(workload, seed, phase_s, workdir / "plain", main)
    checker = checks.Checker(workload, seed)
    failures: list[str] = []
    failed = validate(checker, plain.results, failures)
    attempted = len(plain.results)
    print(f"# workload {workload}  seed {seed}  trace {trace}  closed loop, 1 client, "
          f"{'in-process' if workload in IN_PROCESS else 'fresh process per job'}; "
          f"times at nominal machine speed, reference {plain.speed.kind!r}")

    if not trace:
        lat = [x * 1000 for x in plain.nominal_latencies()]
        raw = plain.latencies_ms()
        n = len(lat)
        rows = {
            "setup_s": (median(setup_s), "s",
                        f"n={len(setup_s)} set-ups; raw {median(raw_setup):.4f} s"),
            "jobs_per_s": (plain.jobs_per_s, "1/s",
                           f"n={n} jobs; raw {n / plain.busy:.4f}"),
            "job_p50_ms": (median(lat), "ms", f"n={n} jobs; raw {median(raw):.3f} ms"),
            "peak_rss_mb": (plain.peak_rss_mb, "MB",
                            "benchmark process" if workload in IN_PROCESS else
                            f"largest of n={n} children"),
        }
        extra = {"failed_ratio": f"{failed}/{attempted}",
                 "reference_ms": f"median {plain.speed.median_ms():.4f} "
                                 f"(n={len(plain.speed.samples)}, nominal "
                                 f"{runner.REF_NOMINAL_MS[plain.speed.kind]}); set-up "
                                 f"'process' {setup_speed.median_ms():.4f} "
                                 f"(n={len(setup_speed.samples)})"}
        if n >= P90_MIN_JOBS:
            extra["job_p90_ms"] = (f"{percentile(lat, 0.9):.3f} ms (n={n}; "
                                   f"raw {percentile(raw, 0.9):.3f})")
        else:
            extra["job_p90_ms"] = f"not reported: n={n} jobs < {P90_MIN_JOBS}"
    else:
        traced, docs = traced_phase(workload, seed, phase_s, workdir / "traced")
        failed += validate(checker, traced.results, failures)
        attempted += len(traced.results)
        totals = tracer.Totals()
        for doc in docs:
            totals.add(doc)
        jt = len(traced.results)
        job_s = traced.busy
        rows = tracer.per_layer(totals, jt, job_s)
        bytes_out = sum(len(r.stdout) + (r.job.output.stat().st_size
                                         if r.job.output and r.job.output.exists() else 0)
                        for r in traced.results)
        rows.update({
            "cli.import_ms": (median(import_times) * 1000, "ms",
                              f"n={len(import_times)} fresh interpreters"),
            "cli.bytes_in": (sum(r.job.bytes_in() for r in traced.results) / jt, "B/job", ""),
            "cli.bytes_out": (bytes_out / jt, "B/job", ""),
            "cli.exit_1": (sum(r.rc == 1 for r in traced.results) / jt, "count/job", ""),
            "cli.exit_2": (sum(r.rc == 2 for r in traced.results) / jt, "count/job", ""),
            "trace.overhead_ratio": (plain.jobs_per_s / traced.jobs_per_s - 1, "ratio",
                                     f"untraced {plain.jobs_per_s:.4f} vs traced "
                                     f"{traced.jobs_per_s:.4f} jobs/s at nominal speed"),
        })
        rows.update(kernel_rows(workdir / "kernels"))
        for name in sorted(totals.missing):
            print(f"# warning: trace target {name} not found; its metrics read 0")
        extra = {"failed_ratio": f"{failed}/{attempted}",
                 "reference_ms": f"untraced {plain.speed.median_ms():.4f}, "
                                 f"traced {traced.speed.median_ms():.4f}",
                 "traced_jobs": jt, "traced_job_s": round(job_s, 6),
                 "per_layer_basis": "raw counts and times per traced job"}

    for name, (value, unit, base) in rows.items():
        print(f"{name:40s} {value:14.6g} {unit:10s} {base}")
    for name, text in extra.items():
        print(f"{name:40s} {text}")
    for reason in failures[:20]:
        print(f"# FAILED {reason}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()},
    }
    record = dict(result, workload=workload, seconds=seconds, environment=env,
                  bases={k: b for k, (_, _, b) in rows.items()}, extra=extra,
                  failures=failures)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("# environment " + json.dumps(env))
    return result


# ---------------------------------------------------------------- maintenance modes

DIGEST_BLOCKS = {"transform-deep": 8, "verify-grid": 10, "cli-cold": 20}


def record_digests() -> int:
    """Write digests.json for the default seed from this checkout's outputs.

    Only for a deliberate change of output format: every job must pass its
    checks first.
    """
    runner.require_program()
    main, _ = import_program()
    run_job = runner.inprocess_runner(main)
    doc = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        workdir = WORK / f"digests-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gen = Generator(workload, DEFAULT_SEED, workdir)
        checker = checks.Checker(workload, DEFAULT_SEED)
        checker.digests = {}  # check content only, against the oracle
        seen, digests = {}, {}
        for b in range(DIGEST_BLOCKS[workload]):
            for job in gen.block(b):
                job.write_inputs()
                key = json.dumps(job.argv) + "".join(job.files.values())
                if key not in seen:
                    rc, _, stdout, _ = run_job(job)
                    reason = checker.check(job, rc, stdout)
                    if reason:
                        raise SystemExit(f"error: {workload} job {job.id}: {reason}")
                    seen[key] = checks.digest(checks.report_of(job, stdout))
                digests[str(job.id)] = seen[key]
        doc[workload] = digests
        shutil.rmtree(workdir)
        print(f"{workload}: {len(digests)} digests")
    checks.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def baseline() -> int:
    """Regenerate the ROADMAP baseline table: fresh-process CLI calls plus kernel rows."""
    runner.require_program()
    workdir = WORK / "baseline"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = runner.cli_command()
    rows = []

    def timed(label, argv, reps=1):
        times = []
        for rep in range(reps):
            rc, elapsed, _ = runner.run_child(cli + argv, workdir / f"out{len(rows)}-{rep}",
                                              timeout=600)
            if rc != 0:
                raise SystemExit(f"error: {label} exited {rc}")
            times.append(elapsed)
        rows.append((label, median(times) * 1000, reps))

    for g_max in (10, 20, 40, 80):
        reps = 3 if g_max <= 20 else 1
        table = {"class": {"c1_dot_beta": 3, "primitive": True}, "kind": "ugw",
                 "g_max": g_max, "values": {str(g): str(g + 1) for g in range(g_max + 1)}}
        src, out = workdir / f"ugw{g_max}.json", workdir / f"gw{g_max}.json"
        src.write_text(json.dumps(table))
        timed(f"transform ugw-to-gw g_max={g_max}",
              ["transform", "--direction", "ugw-to-gw", "--input", str(src),
               "--format", "json", "--output", str(out)], reps)
        timed(f"transform gw-to-ugw g_max={g_max}",
              ["transform", "--direction", "gw-to-ugw", "--input", str(out), "--format", "json"],
              reps)
    for order in (10, 14):
        timed(f"verify-identities --order {order}",
              ["verify-identities", "--order", str(order), "--format", "json"])
    timed("startup (mu --g-max 1)", ["mu", "--g-max", "1"], reps=5)
    kernels = kernel_rows(workdir / "kernels")
    print("| path (fresh process, startup included) | ms | runs |")
    print("|---|---|---|")
    for label, ms, reps in rows:
        print(f"| {label} | {ms:.1f} | {reps} |")
    for name, (ms, _, base) in kernels.items():
        print(f"| kernel {tracer.KERNELS[name]} | {ms:.2f} | {base} |")
    env = environment(DEFAULT_SEED, 0)
    print("# environment " + json.dumps(env))
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / "baseline.json").write_text(json.dumps(
        {"environment": env, "rows": rows,
         "kernels": {k: v[0] for k, v in kernels.items()}}, indent=2) + "\n")
    shutil.rmtree(workdir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sinewall benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(int_digit_limit())
    if args.baseline:
        return baseline()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    summary = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
