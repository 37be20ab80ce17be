"""Spans taken from outside sinewall, around calls into its public functions.

`Tracer.install` wraps the functions in TARGETS (and ``USeries.__mul__`` /
``__add__`` / ``scale`` on the class), rebinds every ``from ... import``
copy in the sinewall modules, and then fails if any unwrapped binding is
left.  Each call records a span ``[name, parent, job, start, end, attrs]``;
spans stay in memory and are written out when the process ends.  A span's
self time is its duration minus the durations of its child spans.  Work
the tracer does to compute counters runs in ``trace.bookkeeping`` child
spans, so it is not charged to the layer that made the call.

Run as a script this module is the traced child entry:

    tracer.py job --job-id N --spans PATH -- <sinewall cli arguments>
    tracer.py phase --workload W --seed S --seconds T --workdir DIR
    tracer.py kernel NAME
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("series", "partitions", "hodge", "wallcross", "gv", "cli")

# (module, attribute, span name); an attribute "Class.method" is wrapped on the class
TARGETS = (
    ("sinewall.series", "USeries.__mul__", "series.mul"),
    ("sinewall.series", "USeries.__add__", "series.add"),
    ("sinewall.series", "USeries.scale", "series.scale"),
    ("sinewall.series", "pow_int", "series.pow_int"),
    ("sinewall.series", "inv", "series.inv"),
    ("sinewall.series", "log", "series.log"),
    ("sinewall.series", "exp", "series.exp"),
    ("sinewall.series", "sinc_half", "series.sinc_half"),
    ("sinewall.partitions", "enumerate_threefold_partitions", "partitions.enumerate"),
    ("sinewall.partitions", "multinomial", "partitions.multinomial"),
    ("sinewall.partitions", "multiplicities", "partitions.multiplicities"),
    ("sinewall.hodge", "mu_g0", "hodge.mu_g0"),
    ("sinewall.hodge", "mu_g1", "hodge.mu_g1"),
    ("sinewall.hodge", "i_function_expansion", "hodge.i_function_expansion"),
    ("sinewall.hodge", "verify_mu_consistency", "hodge.verify_mu_consistency"),
    ("sinewall.hodge", "verify_i_ratio", "hodge.verify_i_ratio"),
    ("sinewall.wallcross", "sine_factor", "wallcross.sine_factor"),
    ("sinewall.wallcross", "eq_sum", "wallcross.eq_sum"),
    ("sinewall.wallcross", "correction_raw_sum", "wallcross.correction_raw_sum"),
    ("sinewall.wallcross", "VertexData.standard", "wallcross.vertex_standard"),
    ("sinewall.wallcross", "verify_raw_equals_closed", "wallcross.verify_raw_equals_closed"),
    ("sinewall.wallcross", "verify_eq_sum", "wallcross.verify_eq_sum"),
    ("sinewall.wallcross", "gw_from_ugw", "wallcross.gw_from_ugw"),
    ("sinewall.wallcross", "ugw_from_gw", "wallcross.ugw_from_gw"),
    ("sinewall.gv", "gate_check", "gv.gate_check"),
    ("sinewall.gv", "gv_from_gw", "gv.gv_from_gw"),
    ("sinewall.gv", "gw_from_gv", "gv.gw_from_gv"),
    ("sinewall.gv", "report_on_gv", "gv.report_on_gv"),
    ("sinewall.cli", "main", "cli.main"),
    ("sinewall.cli", "load_table", "cli.load_table"),
    ("sinewall.cli", "parse_table_doc", "cli.parse_table_doc"),
    ("sinewall.cli", "table_to_doc", "cli.table_to_doc"),
    ("sinewall.cli", "dumps_canonical", "cli.dumps_canonical"),
)


def _coef_bits(c) -> int:
    try:
        return c.numerator.bit_length() + c.denominator.bit_length()
    except AttributeError:
        return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1
        self.missing: list[str] = []
        self._sine_seen: set = set()   # per process
        self._mu_seen: set = set()     # per job

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self._mu_seen = set()

    def add_span(self, name: str, start: float, end: float, attrs=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.job, start, end, attrs])

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, 0.0, 0.0,
                   before(*args, **kwargs) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[4] = perf_counter()
                stack.pop()
                rec[5] = dict(rec[5] or {}, raised=type(e).__name__)
                raise
            rec[4] = perf_counter()
            stack.pop()
            if after:
                t0 = perf_counter()
                after(rec, out, *args, **kwargs)
                self.add_span("trace.bookkeeping", t0, perf_counter())
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every target, rebind all copies, and check none is left unwrapped."""
        originals = {}
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                setattr(owner, member, type(raw)(self._wrap(name, fn)))
            else:
                fn = raw
                setattr(owner, member, self._wrap(name, fn))
            originals[id(fn)] = (fn, vars(owner)[member])
        for module in _sinewall_modules():
            for key, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    setattr(module, key, originals[id(value)][1])
        left = [f"{m.__name__}.{k}" for m in _sinewall_modules()
                for k, v in vars(m).items()
                if id(v) in originals and v is originals[id(v)][0]]
        if left:
            raise RuntimeError(f"unwrapped bindings left after patching: {left}")

    # ------------------------------------------------------------ counters

    def _before_wallcross_sine_factor(self, g, c, order):
        key = (2 * g - 2 + c, order)
        repeat = key in self._sine_seen
        self._sine_seen.add(key)
        return {"repeat": repeat}

    def _before_hodge_mu_g0(self, g):
        key = ("mu_g0", g)
        repeat = key in self._mu_seen
        self._mu_seen.add(key)
        return {"repeat": repeat}

    def _before_hodge_mu_g1(self, g):
        key = ("mu_g1", g)
        repeat = key in self._mu_seen
        self._mu_seen.add(key)
        return {"repeat": repeat}

    def _before_wallcross_correction_raw_sum(self, g0, *args, **kwargs):
        return {"g0": g0}

    def _after_series_mul(self, rec, out, a, b):
        if not hasattr(b, "coeffs") or not hasattr(out, "coeffs"):
            return
        n = min(a.order + b.valuation, b.order + a.valuation) - a.valuation - b.valuation
        lb = len(b.coeffs)
        products = sum(min(lb, n - i) for i in range(min(len(a.coeffs), max(n, 0))))
        coeffs = out.coeffs
        rec[5] = {"products": products, "coefs": len(coeffs),
                  "zeros": sum(1 for c in coeffs if not c),
                  "bits": sum(_coef_bits(c) for c in coeffs)}

    def _after_partitions_enumerate(self, rec, out, *args, **kwargs):
        g0 = None
        parent = rec[1]
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == "wallcross.correction_raw_sum":
                g0 = span[5]["g0"]
                break
            parent = span[1]
        useful = [p for p in out if p.g0 == g0]
        rec[5] = {"enumerated": len(out), "useful": len(useful),
                  "bracket_terms": sum(2 ** len(p.g2) for p in useful)}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"missing": self.missing, "spans": self.spans}))


def _sinewall_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sinewall" or name.startswith("sinewall."))]


# ---------------------------------------------------------------- aggregation


def self_times(spans: list[list]) -> list[float]:
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


class Totals:
    """Counts, self times and counters summed over the spans of many files."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.attr = defaultdict(int)
        self.missing: set[str] = set()

    def add(self, doc: dict) -> None:
        self.missing.update(doc["missing"])
        spans = doc["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span[0], span[5]
            self.calls[name] += 1
            self.self_s[name] += own
            if attrs:
                for key, value in attrs.items():
                    if key == "raised":
                        self.attr[f"{name}.raised.{value}"] += 1
                    else:
                        self.attr[f"{name}.{key}"] += int(value)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def per_layer(t: Totals, jobs: int, job_s: float) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as name -> (value, unit, base); counts and times are per job."""

    def per_job(x):
        return (x / jobs, "")

    def share(num, den):
        return (num / den if den else 0.0, f"{num:.6g}/{den:.6g}")

    def s(*names):
        return sum(t.self_s[n] for n in names)

    def n(*names):
        return sum(t.calls[n] for n in names)

    a = t.attr
    rows = {
        "series.mul_calls": (per_job(n("series.mul")), "count/job"),
        "series.mul_self_s": (per_job(s("series.mul")), "s/job"),
        "series.add_self_s": (per_job(s("series.add")), "s/job"),
        "series.pow_int_calls": (per_job(n("series.pow_int")), "count/job"),
        "series.pow_int_self_s": (per_job(s("series.pow_int")), "s/job"),
        "series.inv_self_s": (per_job(s("series.inv")), "s/job"),
        "series.log_self_s": (per_job(s("series.log")), "s/job"),
        "series.exp_self_s": (per_job(s("series.exp")), "s/job"),
        "series.sinc_half_calls": (per_job(n("series.sinc_half")), "count/job"),
        "series.coef_products": (per_job(a["series.mul.products"]), "count/job"),
        "series.zero_coef_share": (share(a["series.mul.zeros"], a["series.mul.coefs"]), "ratio"),
        "series.coef_bits_mean": (share(a["series.mul.bits"], a["series.mul.coefs"]), "bits"),
        "partitions.enumerate_calls": (per_job(n("partitions.enumerate")), "count/job"),
        "partitions.enumerate_self_s": (per_job(s("partitions.enumerate")), "s/job"),
        "partitions.enumerated": (per_job(a["partitions.enumerate.enumerated"]), "count/job"),
        "partitions.useful_ratio": (share(a["partitions.enumerate.useful"],
                                          a["partitions.enumerate.enumerated"]), "ratio"),
        "hodge.mu_g0_calls": (per_job(n("hodge.mu_g0")), "count/job"),
        "hodge.mu_self_s": (per_job(s("hodge.mu_g0", "hodge.mu_g1")), "s/job"),
        "hodge.mu_repeat_share": (share(a["hodge.mu_g0.repeat"] + a["hodge.mu_g1.repeat"],
                                        n("hodge.mu_g0", "hodge.mu_g1")), "ratio"),
        "hodge.expansion_self_s": (per_job(s("hodge.i_function_expansion",
                                             "hodge.verify_mu_consistency",
                                             "hodge.verify_i_ratio")), "s/job"),
        "wallcross.sine_factor_calls": (per_job(n("wallcross.sine_factor")), "count/job"),
        "wallcross.sine_factor_repeat_share": (share(a["wallcross.sine_factor.repeat"],
                                                     n("wallcross.sine_factor")), "ratio"),
        "wallcross.transform_self_s": (per_job(s("wallcross.gw_from_ugw",
                                                 "wallcross.ugw_from_gw")), "s/job"),
        "wallcross.raw_sum_calls": (per_job(n("wallcross.correction_raw_sum")), "count/job"),
        "wallcross.raw_sum_self_s": (per_job(s("wallcross.correction_raw_sum")), "s/job"),
        "wallcross.bracket_terms": (per_job(a["partitions.enumerate.bracket_terms"]),
                                    "count/job"),
        "wallcross.vertex_builds": (per_job(n("wallcross.vertex_standard")), "count/job"),
        "wallcross.eq_sum_self_s": (per_job(s("wallcross.eq_sum")), "s/job"),
        "gv.self_s": (per_job(t.layer_self_s("gv")), "s/job"),
        "gv.refusals": (per_job(a["gv.gate_check.raised.ClassNotCovered"]), "count/job"),
        "cli.parse_self_s": (per_job(s("cli.load_table", "cli.parse_table_doc")), "s/job"),
        "cli.serialize_self_s": (per_job(s("cli.table_to_doc", "cli.dumps_canonical")),
                                 "s/job"),
        "cli.main_self_s": (per_job(s("cli.main")), "s/job"),
    }
    for layer in LAYERS:
        rows[f"{layer}.self_share"] = (share(t.layer_self_s(layer), job_s), "ratio")
    return {k: (v[0], unit, v[1]) for k, (v, unit) in rows.items()}


# ---------------------------------------------------------------- kernels


def _kernel(name: str):
    """Build the operands of one kernel row and return the call to time."""
    from sinewall import hodge, partitions, series, wallcross

    if name == "series.kernel_sine_power_ms":
        return lambda: wallcross.sine_factor(20, 3, 42)
    if name == "series.kernel_mul_ms":
        s = series.sinc_half(80)
        return lambda: s * s
    if name == "partitions.kernel_enumerate_ms":
        return lambda: partitions.enumerate_threefold_partitions(8, 4)
    if name == "hodge.kernel_mu_ms":
        return lambda: [(hodge.mu_g0(g), hodge.mu_g1(g)) for g in range(1, 11)]
    if name == "wallcross.kernel_raw_cell_ms":
        return lambda: wallcross.correction_raw_sum(2, 3, 4, 13)
    if name == "wallcross.kernel_eq_cell_ms":
        return lambda: wallcross.eq_sum(-3, 5, 15)
    raise ValueError(f"unknown kernel {name!r}")


KERNELS = {
    "series.kernel_sine_power_ms": "sine_factor(20, 3, 42)",
    "series.kernel_mul_ms": "sinc_half(80) * sinc_half(80)",
    "partitions.kernel_enumerate_ms": "enumerate_threefold_partitions(8, 4)",
    "hodge.kernel_mu_ms": "mu_g0(g), mu_g1(g) for g = 1..10",
    "wallcross.kernel_raw_cell_ms": "correction_raw_sum(2, 3, 4, 13)",
    "wallcross.kernel_eq_cell_ms": "eq_sum(-3, 5, 15)",
}


# ---------------------------------------------------------------- entries


def _job_entry(args) -> int:
    t0 = perf_counter()
    import sinewall.cli
    t1 = perf_counter()
    tracer = Tracer()
    tracer.begin_job(args.job_id)
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    try:
        rc = sinewall.cli.main(args.argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    sys.stdout.flush()
    tracer.dump(Path(args.spans))
    return rc


def _phase_entry(args) -> int:
    import runner
    from jobs import Generator
    import sinewall.cli

    tracer = Tracer()
    tracer.install()
    workdir = Path(args.workdir)
    phase = runner.timed_phase(Generator(args.workload, args.seed, workdir),
                               runner.inprocess_runner(sinewall.cli.main), args.seconds,
                               runner.Speedometer.for_workload(args.workload, workdir),
                               on_job=tracer.begin_job)
    tracer.dump(workdir / "spans.json")
    doc = {"peak_rss_mb": phase.peak_rss_mb, "ref_samples": phase.speed.samples,
           "jobs": [[r.job.id, r.rc, r.latency, r.start, r.stdout.decode()]
                    for r in phase.results]}
    (workdir / "phase.json").write_text(json.dumps(doc))
    return 0


def _kernel_entry(args) -> int:
    call = _kernel(args.name)
    t0 = perf_counter()
    call()
    print((perf_counter() - t0) * 1000)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="entry", required=True)
    p = sub.add_parser("job")
    p.add_argument("--job-id", type=int, required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("phase")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p = sub.add_parser("kernel")
    p.add_argument("name", choices=sorted(KERNELS))
    args = parser.parse_args(argv)
    if args.entry == "job":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return _job_entry(args)
    if args.entry == "phase":
        return _phase_entry(args)
    return _kernel_entry(args)


if __name__ == "__main__":
    sys.exit(main())
