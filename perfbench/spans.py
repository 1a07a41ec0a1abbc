"""Outside-in span tracer for the resolvinv layers.

``install`` wraps, from the benchmark's side and without editing the
library, the public functions of every resolvinv module in each namespace
that binds them (``invert_to_plan`` is bound in ``rational``, ``operators``
and ``cli``), the backend methods ``spectrum``/``resolvent_solve`` and
``Spectrum.distance_to``, and the numpy/scipy kernels the library calls.

A span is ``[name, start, end, parent, attempt, tag, amount, error]``.
Spans are recorded only while an attempt is open and stay in memory until
the run writes them out.  ``layer_metrics`` turns them into the per-layer
metrics: ``<module>.<function>.ms`` (outermost spans of that name),
``.self_ms`` (span minus its child spans) and ``.calls``, each per attempt.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import time

NAME, START, END, PARENT, ATTEMPT, TAG, AMOUNT, ERROR = range(8)

FUNCTIONS = {
    "series": ("check_admissible", "numerator_coefficients"),
    "rational": ("invert_to_plan", "partial_fractions", "poly_roots",
                 "filter_to_series"),
    "geometry": ("convex_hull", "hull_separated_from"),
    "operators": ("apply_plan", "apply_series", "invert_filter",
                  "solve_exponential_volterra", "solve_even_convolution"),
    "regularize": ("convergence_sweep", "regularized_apply", "tikhonov_apply"),
    "serialization": ("load_problem", "read_signal", "write_signal"),
    "cli": ("main",),
    "demos": ("write_demo_files",),
}
SPECTRUM_CLASSES = ("PointSpectrum", "UnitCircle", "PositiveHalfLine",
                    "ImaginaryAxis")
OPERATOR_CLASSES = ("DenseMatrixOperator", "MultiplierOperator",
                    "GridDerivativeOperator", "PeriodicShiftOperator")

# name, unit, better: the per-layer metrics, in BENCHMARK.json order
PER_LAYER = [
    ("rational.invert_to_plan.ms", "ms/attempt", "lower"),
    ("rational.invert_to_plan.self_ms", "ms/attempt", "lower"),
    ("rational.invert_to_plan.calls", "calls/attempt", "lower"),
    ("rational.partial_fractions.ms", "ms/attempt", "lower"),
    ("rational.poly_roots.ms", "ms/attempt", "lower"),
    ("rational.filter_to_series.ms", "ms/attempt", "lower"),
    ("rational.errors.ConditioningError", "count/attempt", "lower"),
    ("series.check_admissible.ms", "ms/attempt", "lower"),
    ("series.numerator_coefficients.ms", "ms/attempt", "lower"),
    ("geometry.convex_hull.ms", "ms/attempt", "lower"),
    ("geometry.hull_separated_from.ms", "ms/attempt", "lower"),
    ("geometry.distance_to.ms", "ms/attempt", "lower"),
    ("geometry.distance_to.calls", "calls/attempt", "lower"),
    ("operators.spectrum.ms", "ms/attempt", "lower"),
    ("operators.resolvent_solve.ms", "ms/attempt", "lower"),
    ("operators.resolvent_solve.calls", "calls/attempt", "lower"),
    ("operators.apply_plan.ms", "ms/attempt", "lower"),
    ("operators.apply_series.ms", "ms/attempt", "lower"),
    ("operators.fft.ms", "ms/attempt", "lower"),
    ("operators.fft.calls", "calls/attempt", "lower"),
    ("operators.fft.bytes_computed", "bytes/attempt", "lower"),
    ("operators.lfilter.ms", "ms/attempt", "lower"),
    ("operators.eigvals.ms", "ms/attempt", "lower"),
    ("operators.lu_factor.calls", "calls/attempt", "lower"),
    ("operators.lu_reuse_ratio", "ratio", "higher"),
    ("operators.plans_per_solve", "plans/solve", "lower"),
    ("regularize.convergence_sweep.ms", "ms/attempt", "lower"),
    ("regularize.regularized_apply.ms", "ms/attempt", "lower"),
    ("regularize.tikhonov_apply.ms", "ms/attempt", "lower"),
    ("regularize.inv.ms", "ms/attempt", "lower"),
    ("serialization.load_problem.ms", "ms/attempt", "lower"),
    ("serialization.read_signal.ms", "ms/attempt", "lower"),
    ("serialization.read_signal.bytes", "bytes/attempt", "lower"),
    ("serialization.write_signal.ms", "ms/attempt", "lower"),
    ("serialization.write_signal.bytes", "bytes/attempt", "lower"),
    ("cli.main.ms", "ms/attempt", "lower"),
    ("cli.interpreter_ms", "ms/attempt", "lower"),
    ("cli.import.resolvinv.ms", "ms/attempt", "lower"),
    ("cli.import.numpy.ms", "ms/attempt", "lower"),
    ("cli.import.scipy_linalg.ms", "ms/attempt", "lower"),
    ("cli.import.scipy_signal.ms", "ms/attempt", "lower"),
    ("cli.import.jsonschema.ms", "ms/attempt", "lower"),
    ("demos.write_demo_files.ms", "ms/call", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.gap_frac", "ratio", "lower"),
]

IMPORTS = {"resolvinv": "resolvinv", "numpy": "numpy",
           "scipy.linalg": "scipy_linalg", "scipy.signal": "scipy_signal",
           "jsonschema": "jsonschema"}
_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.attempt = None
        self._stack: list[int] = []

    def wrap(self, name, fn, tag=None, amount=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.attempt is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.attempt, tag, 0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, result)
            return result

        return traced


def _file_bytes(args, _result):
    return os.path.getsize(args[0])


def _array_bytes(args, result):
    return int(getattr(args[0], "nbytes", 0)) + int(result.nbytes)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the already imported library."""
    import numpy
    import scipy.linalg
    import resolvinv

    # only modules the run has loaded: the tracer must not add imports
    modules = {name: sys.modules[f"resolvinv.{name}"] for name in FUNCTIONS
               if f"resolvinv.{name}" in sys.modules}
    wrappers = {}
    for mod_name, module in modules.items():
        for fn_name in FUNCTIONS[mod_name]:
            fn = getattr(module, fn_name)
            amount = _file_bytes if fn_name in ("read_signal",
                                                "write_signal") else None
            wrappers[id(fn)] = tracer.wrap(f"{mod_name}.{fn_name}", fn,
                                           amount=amount)
    namespaces = [resolvinv] + [m for n, m in sys.modules.items()
                                if n.startswith("resolvinv.") and m]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(ns, attr, wrapper)

    for cls_name in SPECTRUM_CLASSES:
        cls = getattr(modules["geometry"], cls_name)
        cls.distance_to = tracer.wrap("geometry.distance_to",
                                      cls.__dict__["distance_to"], tag=cls_name)
    for cls_name in OPERATOR_CLASSES:
        cls = getattr(modules["operators"], cls_name)
        for method in ("spectrum", "resolvent_solve"):
            setattr(cls, method, tracer.wrap(f"operators.{method}",
                                             cls.__dict__[method], tag=cls_name))

    numpy.fft.fft = tracer.wrap("operators.fft", numpy.fft.fft,
                                amount=_array_bytes)
    numpy.fft.ifft = tracer.wrap("operators.fft", numpy.fft.ifft,
                                 amount=_array_bytes)
    numpy.linalg.eigvals = tracer.wrap("operators.eigvals",
                                       numpy.linalg.eigvals)
    numpy.linalg.inv = tracer.wrap("regularize.inv", numpy.linalg.inv)
    scipy.linalg.lu_factor = tracer.wrap("operators.lu_factor",
                                         scipy.linalg.lu_factor)
    # wrap lfilter only where the library loaded scipy.signal itself, so
    # the tracer never adds that import
    signal = sys.modules.get("scipy.signal")
    if signal is not None:
        signal.lfilter = tracer.wrap("operators.lfilter", signal.lfilter)


def import_times_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time of the tracked packages from ``-X importtime``
    output (first occurrence of each), in ms."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2) in IMPORTS and m.group(2) not in out:
            out[m.group(2)] = int(m.group(1)) / 1000.0
    return out


def _self_and_outer(spans):
    """Per-span self time and whether a same-named ancestor exists."""
    child = [0.0] * len(spans)
    nested = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            q = p
            while q >= 0:
                if spans[q][NAME] == s[NAME]:
                    nested[i] = True
                    break
                q = spans[q][PARENT]
    self_t = [s[END] - s[START] - child[i] for i, s in enumerate(spans)]
    return self_t, nested


def layer_metrics(spans, attempts: int, solves: int, extra: dict) -> dict:
    """Per-layer metrics from the spans of ``attempts`` traced attempts.

    ``solves`` is the number of those attempts that solve a problem (the
    base of ``plans_per_solve``); ``extra`` holds figures measured outside
    the spans (CLI start-up and import times, demo calls, overhead, gap).
    """
    self_t, nested = _self_and_outer(spans)
    total = {}
    selfsum = {}
    calls = {}
    amount = {}
    cond_errors = 0
    dense_solves = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        amount[name] = amount.get(name, 0) + s[AMOUNT]
        selfsum[name] = selfsum.get(name, 0.0) + self_t[i]
        if not nested[i]:
            total[name] = total.get(name, 0.0) + (s[END] - s[START])
        if (name.startswith("rational.") and s[ERROR] == "ConditioningError"
                and (s[PARENT] < 0
                     or not spans[s[PARENT]][NAME].startswith("rational."))):
            cond_errors += 1
        if name == "operators.resolvent_solve" and s[TAG] == "DenseMatrixOperator":
            dense_solves += 1

    per = 1.0 / max(attempts, 1)
    out = {}
    for name, _unit, _better in PER_LAYER:
        base, _, field = name.rpartition(".")
        out[name] = 0.0
        if field in ("ms", "interpreter_ms"):
            base = "cli.interpreter" if field == "interpreter_ms" else base
            out[name] = 1e3 * total.get(base, 0.0) * per
        elif field == "self_ms":
            out[name] = 1e3 * selfsum.get(base, 0.0) * per
        elif field == "calls":
            out[name] = calls.get(base, 0) * per
        elif field in ("bytes", "bytes_computed"):
            out[name] = amount.get(base, 0) * per
    out["rational.errors.ConditioningError"] = cond_errors * per
    lu_calls = calls.get("operators.lu_factor", 0)
    out["operators.lu_reuse_ratio"] = (1.0 - lu_calls / dense_solves
                                       if dense_solves else 0.0)
    out["operators.plans_per_solve"] = (
        calls.get("rational.invert_to_plan", 0) / solves if solves else 0.0)
    out.update(extra)
    return out


def gap_frac(spans, attempt_walls: dict) -> float:
    """Share of the traced attempt wall time outside every top-level span.

    The self times of all spans plus this gap add up to the traced wall
    time, so benchmark glue and any library call no wrapper saw show here.
    """
    top = {}
    for s in spans:
        if s[PARENT] < 0:
            top[s[ATTEMPT]] = top.get(s[ATTEMPT], 0.0) + (s[END] - s[START])
    wall = sum(attempt_walls.values())
    return sum(w - top.get(a, 0.0) for a, w in attempt_walls.items()) / wall
