"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest bench/test_bench.py

The negative control feeds the output checks one corrupted report and one
wrong exit status and asserts that each is counted as a failure.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
from jobs import DEFAULT_SEED, Generator, int_digit_limit  # noqa: E402


def run_block(workload, seed, workdir):
    sys.set_int_max_str_digits(int_digit_limit())
    main, _ = bench.import_program()
    run_job = runner.inprocess_runner(main)
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    for job in Generator(workload, seed, workdir).block(0):
        job.write_inputs()
        rc, latency, stdout, _ = run_job(job)
        results.append(runner.JobResult(job, rc, latency, stdout))
    return results


def test_negative_control_counts_corrupt_output_and_wrong_exit(tmp_path):
    results = run_block("cli-cold", 7, tmp_path)
    checker = checks.Checker("cli-cold", 7)
    assert bench.validate(checker, results, []) == 0

    transforms = [r for r in results if r.job.argv[0] == "transform" and r.rc == 0]
    corrupt, wrong_exit = transforms[0], transforms[1]
    # a canonical, well-formed report with one value off by one
    doc = json.loads(checks.report_of(corrupt.job, corrupt.stdout))
    doc["values"]["0"] = str(Fraction(doc["values"]["0"]) + 1)
    text = (json.dumps(doc, indent=2) + "\n").encode()
    if corrupt.job.output is not None:
        corrupt.job.output.write_bytes(text)
    else:
        corrupt.stdout = text
    wrong_exit.rc = 1

    failures = []
    assert bench.validate(checker, results, failures) == 2
    assert len(failures) == 2
    assert any("exit status 1, expected 0" in f for f in failures)


def test_default_seed_reports_match_recorded_digests(tmp_path):
    for workload in ("cli-cold", "transform-deep"):
        results = run_block(workload, DEFAULT_SEED, tmp_path / workload)
        digests = checks.load_digests(workload, DEFAULT_SEED)
        assert digests, f"no recorded digests for {workload}"
        for r in results:
            got = checks.digest(checks.report_of(r.job, r.stdout))
            assert got == digests[str(r.job.id)], (workload, r.job.id)


def test_self_time_subtracts_child_spans():
    spans = [["a", -1, 0, 0.0, 10.0, None],
             ["b", 0, 0, 1.0, 4.0, None],
             ["c", 1, 0, 2.0, 3.0, None],
             ["d", 0, 0, 5.0, 6.0, None]]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_nominal_time_scales_by_reference_samples_near_the_job(tmp_path):
    speed = runner.Speedometer("loop", tmp_path)
    nominal = runner.REF_NOMINAL_MS["loop"]
    speed.samples = [(0.0, nominal), (0.5, nominal), (10.0, 2 * nominal), (10.5, 2 * nominal)]
    assert speed.nominal(1.0, 0.1, 0.2) == pytest.approx(1.0)
    assert speed.nominal(1.0, 10.1, 10.2) == pytest.approx(0.5)


def test_traced_job_entry_wraps_every_target(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        runner.tracer_command("job", "--job-id", "3", "--spans", str(spans_path), "--",
                              "expand-sine", "--g", "2", "--c", "1", "--order", "8",
                              "--format", "json"),
        env=runner.child_env(), cwd=runner.ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["exponent"] == 3
    doc = json.loads(spans_path.read_text())
    assert doc["missing"] == []
    names = [s[0] for s in doc["spans"]]
    assert names[0] == "cli.import"
    assert {"cli.main", "wallcross.sine_factor", "series.pow_int", "series.mul"} <= set(names)
    assert all(s[2] == 3 for s in doc["spans"])
