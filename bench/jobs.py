"""Seeded job streams for the three workloads.

A workload is an endless stream of blocks with a fixed mix of job kinds.
Block ``b`` of a seed is always the same: its draws come from
``Random("seed:workload:b")``.  The mix does not depend on the seed, so a
run's cost does not hinge on how many expensive jobs a seed happens to draw.

Every job carries the exit status it must end with and a check spec that
`checks.Checker.check` evaluates after the timed phase.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from oracle import SinePowers

WORKLOADS = ("transform-deep", "verify-grid", "cli-cold")
IN_PROCESS = ("transform-deep",)
DEFAULT_SEED = 0

DIRECTIONS = ("ugw-to-gw", "gw-to-ugw", "gv-to-gw", "gw-to-gv")
SOURCE_KIND = {"ugw-to-gw": "ugw", "gw-to-ugw": "gw", "gv-to-gw": "gv", "gw-to-gv": "gw"}
TARGET_KIND = {"ugw-to-gw": "gw", "gw-to-ugw": "ugw", "gv-to-gw": "gw", "gw-to-gv": "gv"}

# transform-deep: g_max of the 16 jobs of every block, skewed low.  A job's
# cost hangs on g_max and on the parity of c (an odd power S^k takes more
# multiplies; at g_max 18 odd c costs up to 1.5x even c), barely on the
# values.  The four middle jobs share one g_max, one job per direction, and
# draw c from DEEP_MIDDLE_C, whose costs agree within 10%, so the median
# latency of any whole number of blocks falls on that plateau instead of in
# the cost gap between two neighbouring rungs.
# The other rungs are (g_max, parity of c), ordered by cost.
DEEP_BELOW = ((12, 1), (12, 0), (13, 1), (14, 0), (15, 1), (16, 0))
DEEP_MIDDLE = 18
DEEP_MIDDLE_C = (2, 4, 6, 8)
DEEP_ABOVE = ((20, 1), (22, 0), (24, 1), (28, 0), (33, 1), (40, 0))

# cli-cold: the 20 job shapes of every block.
COLD_MIX = (
    "t:ugw-to-gw", "t:ugw-to-gw", "t:gw-to-ugw", "t:gw-to-ugw",
    "t:gv-to-gw", "t:gv-to-gw", "t:gw-to-gv", "t:gw-to-gv-perturbed",
    "ci:gv", "ci:gv-nonintegral", "ci:gw", "ci:ugw",
    "expand-sine", "expand-sine", "mu", "mu",
    "refuse:class", "refuse:missing-genus", "refuse:over-limit", "refuse:serialise",
)

# verify-grid: the orders of the 6 jobs of every block.  Order 8 takes two
# thirds of the jobs, so the median latency is the median of an order-8 group
# as large as a run allows: the latency of one such job varies by about 15%
# from one fresh process to the next, with or without a change of machine
# speed.
VERIFY_ORDERS = (6, 8, 8, 8, 8, 10)


def int_digit_limit() -> int:
    """CPython's default cap on int <-> str digits, which the CLI runs under."""
    limit = getattr(sys.int_info, "default_max_str_digits", 0)
    if not limit:
        raise SystemExit("the benchmark needs Python >= 3.11 (int/str digit limit)")
    return limit


@dataclass
class Job:
    id: int
    argv: list[str]
    expect_exit: int
    check: tuple
    files: dict[str, str] = field(default_factory=dict)
    output: Path | None = None

    def write_inputs(self) -> None:
        for path, text in self.files.items():
            Path(path).write_text(text)

    def bytes_in(self) -> int:
        return sum(len(text.encode()) for text in self.files.values())


@dataclass(frozen=True)
class TableSpec:
    kind: str
    c: int
    primitive: bool
    g_max: int
    values: dict  # genus -> Fraction, or genus -> digit string for over-limit values

    def text(self) -> str:
        doc = {
            "class": {"c1_dot_beta": self.c, "primitive": self.primitive},
            "kind": self.kind,
            "g_max": self.g_max,
            "values": {str(g): str(v) for g, v in sorted(self.values.items())},
        }
        return json.dumps(doc)

    def dense(self) -> dict[int, Fraction]:
        return {g: Fraction(self.values.get(g, 0)) for g in range(self.g_max + 1)}


def _digits(rng: random.Random, lo: int, hi: int) -> str:
    n = rng.randint(lo, hi)
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    q = Fraction(int(_digits(rng, lo, hi)), int(_digits(rng, lo, hi)))
    return -q if rng.random() < 0.5 else q


def _integer(rng: random.Random, lo: int, hi: int) -> Fraction:
    q = Fraction(int(_digits(rng, lo, hi)))
    return -q if rng.random() < 0.5 else q


def _sparse(rng, g_max, draw):
    genera = [g for g in range(g_max + 1) if rng.random() < 0.3] or [rng.randint(0, g_max)]
    return {g: draw() for g in genera}


def _class(rng: random.Random, direction: str, cs=None) -> tuple[int, bool]:
    """c (from ``cs`` if given) and primitivity; gv directions stay inside the
    coverage gate."""
    if "gv" in direction:
        c = rng.choice(cs or range(0, 9))
        return c, c == 0 or rng.random() < 0.5
    return rng.choice(cs or range(-2, 9)), rng.random() < 0.5


def _parity_class(rng: random.Random, direction: str, parity: int) -> tuple[int, bool]:
    low = 0 if "gv" in direction else -2
    return _class(rng, direction, [c for c in range(low, 9) if c % 2 == parity])


def deep_shapes() -> list[tuple[str, int, int | None]]:
    """(direction, g_max, parity of c) of the 16 transform-deep jobs of a block.

    Every block and every seed has the same shapes, so a run's cost does not
    depend on the seed or on how many blocks fit in it.  The middle jobs
    have parity None and draw c from DEEP_MIDDLE_C.  The seed draws each
    job's c within its parity (c in -2..8, so tables share S^k columns only
    sometimes), the values, which genera are present, which gw-to-gv job is
    perturbed, and the job order.
    """
    rng = random.Random("transform-deep:shape")
    rungs = DEEP_BELOW + DEEP_ABOVE
    directions = rng.sample(DIRECTIONS * 3, len(rungs))
    return ([(d, g_max, parity) for d, (g_max, parity) in zip(directions, rungs)]
            + [(d, DEEP_MIDDLE, None) for d in DIRECTIONS])


class Generator:
    """Builds the blocks of one workload and seed inside ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.oracle = SinePowers()

    def block(self, b: int) -> list[Job]:
        rng = random.Random(f"{self.seed}:{self.workload}:{b}")
        build = {
            "transform-deep": self._deep_block,
            "verify-grid": self._verify_block,
            "cli-cold": self._cold_block,
        }[self.workload]
        return build(rng, b)

    # ---------------------------------------------------------- helpers

    def _path(self, job_id: int, suffix: str) -> str:
        return str(self.workdir / f"job{job_id}.{suffix}")

    def _table_job(self, job_id, command, table, expect_exit, check, to_file) -> Job:
        """A job reading ``table`` from a file; it reports to a file or to stdout."""
        inp = self._path(job_id, "in.json")
        argv = command + ["--input", inp, "--format", "json"]
        out = None
        if to_file:
            out = Path(self._path(job_id, "out.json"))
            argv += ["--output", str(out)]
        return Job(job_id, argv, expect_exit, check, {inp: table.text()}, out)

    def _transform(self, job_id, direction, table, expect_exit, check, to_file) -> Job:
        return self._table_job(job_id, ["transform", "--direction", direction], table,
                               expect_exit, check, to_file)

    def _gw_from_gv(self, gv: TableSpec) -> dict[int, Fraction]:
        return self.oracle.forward(gv.values, gv.c, gv.g_max)

    def _transform_job(self, rng, job_id, direction, g_max, c, prim, lo, hi, to_file,
                       perturb=False):
        """A transform job that must succeed (or exit 1 when ``perturb``)."""
        src = SOURCE_KIND[direction]
        if direction == "ugw-to-gw":
            table = TableSpec(src, c, prim, g_max, _sparse(rng, g_max, lambda: _rational(rng, lo, hi)))
            check = ("forward", TARGET_KIND[direction], table)
        elif direction == "gv-to-gw":
            table = TableSpec(src, c, prim, g_max, _sparse(rng, g_max, lambda: _integer(rng, lo, hi)))
            check = ("forward", TARGET_KIND[direction], table)
        elif direction == "gw-to-ugw":
            values = {g: _rational(rng, lo, hi) for g in range(g_max + 1)}
            table = TableSpec(src, c, prim, g_max, values)
            check = ("inverse", TARGET_KIND[direction], table, None)
        else:  # gw-to-gv, from an integer GV table
            gv = TableSpec("gv", c, prim, g_max,
                           {g: _integer(rng, lo, hi) for g in range(g_max + 1)})
            gw = self._gw_from_gv(gv)
            expected = gv.dense()
            if perturb:
                gw[rng.randint(0, g_max)] += Fraction(1, 7)
                expected = None
            table = TableSpec(src, c, prim, g_max, gw)
            check = ("inverse", TARGET_KIND[direction], table, expected)
        return self._transform(job_id, direction, table, 1 if perturb else 0, check, to_file)

    # ---------------------------------------------------------- workloads

    def _deep_block(self, rng: random.Random, b: int) -> list[Job]:
        shapes = deep_shapes()
        perturbed = rng.choice([i for i, shape in enumerate(shapes) if shape[0] == "gw-to-gv"])
        order = list(range(len(shapes)))
        rng.shuffle(order)
        jobs = []
        for slot, i in enumerate(order):
            direction, g_max, parity = shapes[i]
            if parity is None:
                c, prim = _class(rng, direction, DEEP_MIDDLE_C)
            else:
                c, prim = _parity_class(rng, direction, parity)
            jobs.append(self._transform_job(rng, b * len(shapes) + slot, direction, g_max,
                                            c, prim, 10, 40, to_file=True,
                                            perturb=i == perturbed))
        return jobs

    def _verify_block(self, rng: random.Random, b: int) -> list[Job]:
        orders = rng.sample(VERIFY_ORDERS, len(VERIFY_ORDERS))
        return [Job(b * len(orders) + i,
                    ["verify-identities", "--order", str(k), "--format", "json"],
                    0, ("verify", k))
                for i, k in enumerate(orders)]

    def _cold_block(self, rng: random.Random, b: int) -> list[Job]:
        shapes = list(COLD_MIX)
        rng.shuffle(shapes)
        return [self._cold_job(rng, b * len(shapes) + i, shape) for i, shape in enumerate(shapes)]

    def _cold_job(self, rng: random.Random, job_id: int, shape: str) -> Job:
        lo, hi = 50, 500
        to_file = rng.random() < 0.5
        g_max = rng.randint(0, 8)
        kind, _, what = shape.partition(":")
        if kind == "t":
            perturb = what.endswith("-perturbed")
            direction = what.removesuffix("-perturbed")
            return self._transform_job(rng, job_id, direction, g_max, *_class(rng, direction),
                                       lo, hi, to_file, perturb)
        if kind == "ci":
            return self._integrality_job(rng, job_id, what, g_max, lo, hi, to_file)
        if kind == "expand-sine":
            g, c, order = rng.randint(0, 8), rng.randint(-2, 8), rng.randint(1, 18)
            argv = ["expand-sine", "--g", str(g), "--c", str(c), "--order", str(order),
                    "--format", "json"]
            return Job(job_id, argv, 0, ("expand-sine", g, c, order))
        if kind == "mu":
            top = rng.randint(1, 8)
            return Job(job_id, ["mu", "--g-max", str(top), "--format", "json"], 0, ("mu", top))
        return self._refusal_job(rng, job_id, what, to_file)

    def _integrality_job(self, rng, job_id, what, g_max, lo, hi, to_file) -> Job:
        c, prim = _class(rng, "gv")
        ints = {g: _integer(rng, lo, hi) for g in range(g_max + 1)}
        gv = TableSpec("gv", c, prim, g_max, ints)
        if what == "gv":
            table = gv
        elif what == "gv-nonintegral":
            bad = rng.randint(0, g_max)
            ints[bad] += Fraction(1, rng.randint(2, 9))
            table = gv = TableSpec("gv", c, prim, g_max, ints)
        elif what == "gw":
            table = TableSpec("gw", c, prim, g_max, self._gw_from_gv(gv))
        else:
            table = TableSpec("ugw", c, prim, g_max, ints)
        bad_genera = [g for g, v in sorted(gv.dense().items()) if v.denominator != 1]
        return self._table_job(job_id, ["check-integrality"], table, 1 if bad_genera else 0,
                               ("integrality", gv, bad_genera), to_file)

    def _refusal_job(self, rng, job_id, what, to_file) -> Job:
        limit = int_digit_limit()
        if what == "class":
            # not covered: c < 0, not primitive
            direction = rng.choice(("gw-to-gv", "gv-to-gw"))
            c, g_max = rng.randint(-3, -1), rng.randint(0, 8)
            values = {g: _integer(rng, 50, 500) for g in range(g_max + 1)}
            table = TableSpec(SOURCE_KIND[direction], c, False, g_max, values)
        elif what == "missing-genus":
            direction = rng.choice(("gw-to-ugw", "gw-to-gv"))
            c, prim = _class(rng, direction)
            g_max = rng.randint(1, 8)
            values = {g: _rational(rng, 50, 500) for g in range(g_max + 1)}
            del values[rng.randint(0, g_max)]
            table = TableSpec("gw", c, prim, g_max, values)
        elif what == "over-limit":
            # one value with more digits than int() accepts: refused while parsing
            direction = "ugw-to-gw"
            g_max = rng.randint(0, 8)
            values = {g: str(_rational(rng, 50, 500)) for g in range(g_max + 1)}
            values[rng.randint(0, g_max)] = _digits(rng, limit + 1, limit + 1)
            table = TableSpec("ugw", rng.randint(-2, 8), rng.random() < 0.5, g_max, values)
        else:
            # refused today only when the output is serialised
            direction = "ugw-to-gw"
            table = self._serialise_overflow(rng, limit)
        return self._transform(job_id, direction, table, 2, ("refused",), to_file)

    def _serialise_overflow(self, rng, limit) -> TableSpec:
        """A ugw table whose values fit the limit but whose gw transform does not."""
        while True:
            g_max, c = rng.randint(2, 8), rng.randint(-2, 8)
            values = {0: Fraction(1, int(_digits(rng, limit - 5, limit - 5))),
                      1: Fraction(1, int(_digits(rng, 20, 40)))}
            out = self.oracle.forward(values, c, g_max)
            cap = 10**limit
            if any(abs(v.numerator) >= cap or v.denominator >= cap for v in out.values()):
                return TableSpec("ugw", c, rng.random() < 0.5, g_max, values)
