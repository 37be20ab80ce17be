"""Output checks, run after the timed phase; every failure counts in failed_ratio.

A job passes when its exit status is the one the generator set and its
report (the ``--output`` file, else stdout) is right:

- transforms: canonical json whose values equal the benchmark's own
  oracle transform of the input (forward directions), or whose oracle
  forward transform gives back the input exactly (inverse directions);
- ``check-integrality``: the expected GV table and verdict;
- ``expand-sine`` and ``mu``: the oracle's coefficients;
- ``verify-identities``: ``"passed": true`` with the expected cell counts;
- refusals (exit 2): empty stdout and no output file.

For the default seed the sha256 of every report is also compared with
``digests.json``, since CLI output must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from jobs import DEFAULT_SEED, Job, TableSpec
from oracle import SinePowers

DIGESTS = Path(__file__).with_name("digests.json")


def verify_cells(order: int) -> list[int]:
    """Cells of verify-identities: the raw-sum grid (g0 0..3) x (n 0..4) x
    (c -2..6), the eq_sum grid 7 x 19, and one genus 1..order/2 for each of
    the two expansion checks."""
    return [4 * 5 * 9, 7 * 19, order // 2, order // 2]


class CheckError(Exception):
    pass


def report_of(job: Job, stdout: bytes) -> bytes:
    if job.output is not None and job.output.exists():
        return job.output.read_bytes()
    return stdout


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(workload: str, seed: int) -> dict[str, str]:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


class Checker:
    """Checks jobs of one workload and seed; keeps its oracle's cache across jobs."""

    def __init__(self, workload: str, seed: int):
        self.oracle = SinePowers()
        self.digests = load_digests(workload, seed)

    def check(self, job: Job, rc: int, stdout: bytes) -> str | None:
        """None when the job is right, else the reason it is not."""
        if rc != job.expect_exit:
            return f"exit status {rc}, expected {job.expect_exit}"
        report = report_of(job, stdout)
        want = self.digests.get(str(job.id))
        if want is not None and digest(report) != want:
            return "report differs from the recorded default-seed digest"
        try:
            if job.check[0] == "refused":
                if stdout or (job.output is not None and job.output.exists()):
                    raise CheckError("refused job wrote output")
                return None
            if job.output is not None and stdout:
                raise CheckError("job with --output also wrote to stdout")
            text = report.decode()
            doc = json.loads(text)
            if text != json.dumps(doc, indent=2) + "\n":
                raise CheckError("report is not canonical json")
            getattr(self, "_" + job.check[0].replace("-", "_"))(doc, *job.check[1:])
        except CheckError as e:
            return str(e)
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as e:
            return f"malformed report: {type(e).__name__}: {e}"
        return None

    # ---------------------------------------------------------------- kinds

    @staticmethod
    def _values(doc, kind: str, src: TableSpec) -> dict[int, Fraction]:
        want_head = ({"c1_dot_beta": src.c, "primitive": src.primitive}, kind, src.g_max)
        if (doc["class"], doc["kind"], doc["g_max"]) != want_head:
            raise CheckError(f"table header {doc['class']} {doc['kind']} {doc['g_max']} "
                             f"!= {want_head}")
        if list(doc["values"]) != [str(g) for g in range(src.g_max + 1)]:
            raise CheckError("values are not dense in genus order")
        return {int(g): Fraction(v) for g, v in doc["values"].items()}

    def _forward(self, doc, kind: str, src: TableSpec) -> None:
        got = self._values(doc, kind, src)
        if got != self.oracle.forward(src.values, src.c, src.g_max):
            raise CheckError("forward transform differs from the oracle")

    def _inverse(self, doc, kind: str, src: TableSpec, expected) -> None:
        got = self._values(doc, kind, src)
        if self.oracle.forward(got, src.c, src.g_max) != src.dense():
            raise CheckError("inverse transform does not round-trip to its input")
        if expected is not None and got != expected:
            raise CheckError("GV table differs from the generating table")

    def _integrality(self, doc, gv: TableSpec, bad_genera: list[int]) -> None:
        got = self._values(doc["table"], "gv", gv)
        if got != gv.dense():
            raise CheckError("integrality report carries the wrong GV table")
        nonzero = [g for g, v in got.items() if v]
        want = (not bad_genera, bad_genera, max(nonzero) if nonzero else None)
        have = (doc["integral"], doc["non_integral_genera"], doc["largest_nonzero_genus"])
        if have != want or not isinstance(doc["truncation_caveat"], str):
            raise CheckError(f"integrality verdict {have} != {want}")

    def _expand_sine(self, doc, g: int, c: int, order: int) -> None:
        e = 2 * g - 2 + c
        col = self.oracle.column(e, (order + 1) // 2)
        want = {str(k): str(col[k // 2] if k % 2 == 0 else 0) for k in range(order)}
        head = (doc["g"], doc["c"], doc["exponent"], doc["order"], doc["valuation"])
        if head != (g, c, e, order, 0) or doc["coefficients"] != want:
            raise CheckError("expand-sine coefficients differ from the oracle")

    def _mu(self, doc, top: int) -> None:
        want = {}
        for g in range(1, top + 1):
            a, b = self.oracle.mu(g)
            want[str(g)] = {"z": str(a), "H": str(-a + 3 * b), "c1": str(b),
                            "scalar": "0", "mu1": str(a)}
        if doc != {"mu": want}:
            raise CheckError("mu values differ from the oracle")

    def _verify(self, doc, order: int) -> None:
        checks = doc["checks"]
        if doc["order"] != order or doc["passed"] is not True:
            raise CheckError(f"verify-identities order {doc['order']} passed={doc['passed']}")
        if [c["cells"] for c in checks] != verify_cells(order):
            raise CheckError(f"cell counts {[c['cells'] for c in checks]} "
                             f"!= {verify_cells(order)}")
        if not all(c["passed"] is True for c in checks):
            raise CheckError("a verify-identities check did not pass")
