"""The four workloads: seeded inputs, one attempt per input shape, and the
check of each output against a planted truth.

Inputs and reference outputs come from this file's own numpy code (the
convolution symbol f(xi^2) on the FFT grid, the filter's q/p on the DFT
grid, a closed-form integral-equation reference, dense f(A) through LU),
never from the library's forward maps, so a defect in the library cannot
hide in its own test data.

The timed loop holds only inputs the library solves on every seed, so that
two sets of runs count the same failures (none).  The inputs on which the
library is known to fail (plans with m >= 16, the 3-term convolution at
n = 2^20) are kept as ``known_defect`` cases: each run makes one attempt at
each of them outside the timed loop and reports its outcome.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
WRONG_ABOVE = 1e-2


@dataclass
class Case:
    """One input shape: ``run`` is the timed call into the library,
    ``check`` turns its output into (outcome, rel_err, residual)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, float, float]]
    known_defect: bool = False


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / np.linalg.norm(np.asarray(b)))


def _judge(x, x_true, rel_tol, residual_fn, res_tol):
    """Common check: finite output, relative error and residual bounds.

    Missing the workload's bounds is a failed attempt ("accuracy_miss");
    an error above WRONG_ABOVE is a wrong answer, which makes the run
    incorrect.
    """
    x = np.asarray(x)
    if x.shape != np.shape(x_true) or not np.all(np.isfinite(x)):
        return "nonfinite", math.nan, math.nan
    err = _rel(x, x_true)
    res = residual_fn(x)
    if not (err <= WRONG_ABOVE and res <= WRONG_ABOVE):
        return "wrong_result", err, res
    if not (err <= rel_tol and res <= res_tol):
        return "accuracy_miss", err, res
    return "passed", err, res


def _cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --- reference forward maps (numpy only) ------------------------------------


class DenseForward:
    """f(A) v = sum_j a_j (alpha_j I - A)^{-1} v through one LU per pole."""

    def __init__(self, coeffs, poles, matrix):
        eye = np.eye(matrix.shape[0], dtype=complex)
        self.coeffs = list(coeffs)
        self.lus = [scipy.linalg.lu_factor(al * eye - matrix) for al in poles]

    def __call__(self, v):
        return sum(a * scipy.linalg.lu_solve(lu, v)
                   for a, lu in zip(self.coeffs, self.lus))


def filter_symbol(c, qt, n):
    """(q/p)(omega) on the DFT grid for ascending c (p) and q(z) = z*qt(z)."""
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    p = np.polynomial.polynomial.polyval(omega, np.asarray(c))
    return omega * np.polynomial.polynomial.polyval(omega, np.asarray(qt)) / p


def convolution_symbol(coeffs, poles, n, period):
    """f(xi^2) = sum_j a_j / (alpha_j - xi^2) on the FFT frequency grid."""
    xi2 = (2.0 * np.pi * np.fft.fftfreq(n, d=period / n)) ** 2
    return sum(a / (al - xi2) for a, al in zip(coeffs, poles))


def multiplier_forward(symbol):
    return lambda x: np.fft.ifft(np.fft.fft(x) * symbol)


def _reverse_scan(cells, e, block=256):
    """w_i = e * w_{i+1} + cells_i with w = 0 past the end, blocked."""
    n = cells.size
    nb = -(-n // block)
    c = np.zeros(nb * block, dtype=complex)
    c[:n] = cells
    c = c.reshape(nb, block)
    ek = e ** np.arange(block)
    local = np.cumsum((c * ek)[:, ::-1], axis=1)[:, ::-1] / ek
    tail = e ** (block - np.arange(block))
    out = np.empty_like(local)
    carry = 0j
    for b in range(nb - 1, -1, -1):
        out[b] = local[b] + tail * carry
        carry = out[b, 0]
    return out.reshape(-1)[:n]


def volterra_forward(coeffs, poles, t):
    """y(t_i) = sum_j a_j int_{t_i}^L exp(-alpha_j (s - t_i)) x(s) ds with x
    the piecewise-linear interpolant of the samples."""
    d = float(t[1] - t[0])

    def forward(x):
        y = np.zeros(x.size, dtype=complex)
        for a, al in zip(coeffs, poles):
            e = np.exp(-al * d)
            i0 = (1.0 - e) / al
            i1 = (1.0 - (1.0 + al * d) * e) / (al * al)
            cells = x[:-1] * i0 + (x[1:] - x[:-1]) * (i1 / d)
            y[:-1] += a * _reverse_scan(cells, e)
        return y
    return forward


# --- series generators -------------------------------------------------------


def _spread_uniform(rng, lo, hi, k, gap):
    """k sorted uniform draws in [lo, hi] with pairwise spacing >= gap."""
    while True:
        v = np.sort(rng.uniform(lo, hi, k))
        if k < 2 or np.min(np.diff(v)) >= gap:
            return v


def _planted_matrix(rng, eigenvalues, coupling):
    """Q T Q^H with T upper triangular: its eigenvalues are exactly planted."""
    n = eigenvalues.size
    q, _ = np.linalg.qr(_cnormal(rng, n, n))
    t = np.diag(eigenvalues) + coupling * np.triu(_cnormal(rng, n, n), 1)
    return q @ t @ q.conj().T


# --- plan_scaling ------------------------------------------------------------


PLAN_M = (2, 4, 8, 12, 16, 24, 32, 48, 64)
# from m = 16 the library raises ConditioningError or misses its accuracy
# bound (on every seed for equispaced poles, on some for random ones)
PLAN_DEFECT_M = 16
PLAN_DIM = 16
PLAN_IDENTITY_TOL = 1e-8


def plan_scaling(rv, rng, smoke):
    cases = []
    for m in PLAN_M[:1] if smoke else PLAN_M:
        for family in ("random", "equispaced"):
            if family == "random":
                poles = rng.uniform(0, 1, m) + 1j * rng.uniform(0, 1, m)
            else:
                poles = np.arange(1, m + 1, dtype=complex)
            coeffs = rng.uniform(0.1, 1.0, m)
            cases.append(_plan_case(rv, rng, f"m={m}/{family}", coeffs, poles,
                                    m >= PLAN_DEFECT_M))
    return cases


def _plan_case(rv, rng, label, coeffs, poles, known_defect):
    series = rv.ResolventSeries(tuple(zip(coeffs, poles)))
    center = poles.mean()
    radius = float(np.max(np.abs(poles - center)))
    # eigenvalues on a ring at least 1 outside the pole hull
    ring = radius + 1.0 + rng.uniform(0, 1, PLAN_DIM)
    eig = center + ring * np.exp(2j * np.pi * rng.uniform(0, 1, PLAN_DIM))
    matrix = _planted_matrix(rng, eig, 0.05 * (1.0 + radius))
    forward = DenseForward(coeffs, poles, matrix)
    x_true = _cnormal(rng, PLAN_DIM)
    y = forward(x_true)
    spectrum_points = tuple(complex(e) for e in eig)
    # invert_to_plan accepts a plan whose identity residual is up to 1e-8,
    # so that much relative error per unit of conditioning is its promise
    tol = PLAN_IDENTITY_TOL * np.linalg.cond(forward(np.eye(PLAN_DIM)))

    def run():
        report = rv.check_admissible(series, rv.PointSpectrum(spectrum_points))
        plan = rv.invert_to_plan(series)
        return report, rv.apply_plan(plan, rv.DenseMatrixOperator(matrix), y)

    def check(out):
        report, x = out
        if not (report.theorem_mode_ok and report.separation_ok):
            return "wrong_result", math.nan, math.nan
        return _judge(x, x_true, tol, lambda v: _rel(forward(v), y), tol)

    return Case(label, run, check, known_defect)


# --- fourier_large -----------------------------------------------------------


FOURIER_LOG2N = (12, 14, 16, 18, 20)
CONV_PERIOD = 8.0
VOLTERRA_L = 10.0


def fourier_large(rv, rng, smoke):
    sizes = FOURIER_LOG2N[:1] if smoke else FOURIER_LOG2N
    cases = []
    for idx, log2n in enumerate(sizes):
        # term counts cycle down from the largest size, which runs the
        # 3-term (order-3) case of every solver
        back = len(sizes) - 1 - idx
        order = 3 - back % 3
        vterms = 3 - back % 2
        n = 2 ** log2n
        cases.append(_filter_case(rv, rng, f"n=2^{log2n}/filter/{order}",
                                  order, n))
        cases.append(_volterra_case(rv, rng, f"n=2^{log2n}/volterra/{vterms}",
                                    vterms, n))
        # the library raises a false SingularResolventError on this one
        defect = log2n == FOURIER_LOG2N[-1]
        cases.append(_convolution_case(
            rv, rng, f"n=2^{log2n}/convolution/{order}", order, n, defect))
    return cases


def filter_problem(rng, order):
    """Ascending (c, qt): p has distinct roots inside |z| <= 0.7 and the
    transfer function q/p = -z f(z) has positive residues a_j."""
    while True:
        roots = (rng.uniform(0.2, 0.7, order)
                 * np.exp(2j * np.pi * rng.uniform(0, 1, order)))
        gaps = [abs(r - s) for i, r in enumerate(roots) for s in roots[i + 1:]]
        if not gaps or min(gaps) >= 0.1:
            break
    residues = rng.uniform(0.5, 1.5, order)
    c = np.poly(roots)[::-1]
    qt = np.zeros(order, dtype=complex)
    for j in range(order):
        qt += residues[j] * np.atleast_1d(np.poly(np.delete(roots, j)))[::-1]
    return c, qt


def _filter_case(rv, rng, label, order, n):
    c, qt = filter_problem(rng, order)
    spec = rv.FilterSpec(tuple(c), tuple(qt))
    symbol = filter_symbol(c, qt, n)
    kappa = float(np.max(np.abs(symbol)) / np.min(np.abs(symbol)))
    forward = multiplier_forward(symbol)
    x_true = _cnormal(rng, n)
    y = forward(x_true)

    def check(x):
        return _judge(x, x_true, 1e4 * EPS * kappa,
                      lambda v: _rel(forward(v), y), 1e-8)

    return Case(label, lambda: rv.invert_filter(spec, y), check)


def _volterra_case(rv, rng, label, terms, n):
    coeffs = rng.uniform(0.5, 1.5, terms)
    alphas = _spread_uniform(rng, 0.5, 3.0, terms, 0.2)
    kernel = rv.ResolventSeries(tuple(zip(coeffs, alphas.astype(complex))))
    t = np.linspace(0.0, VOLTERRA_L, n)
    # x(s) = sum_k c_k exp(mu_k s) makes y(t) = int_t^L k(s-t) x(s) ds exact:
    # y = sum_j a_j sum_k c_k (exp(mu_k L - alpha_j (L - t)) - exp(mu_k t))
    #     / (mu_k - alpha_j)
    mu = -rng.uniform(0, 0.3, 3) + 1j * rng.uniform(0.3, 1.5, 3)
    amp = _cnormal(rng, 3)
    modes = [ck * np.exp(mk * t) for ck, mk in zip(amp, mu)]
    x_true = sum(modes)
    y = np.zeros(n, dtype=complex)
    for a, al in zip(coeffs, alphas):
        w = sum(ck * np.exp(mk * VOLTERRA_L) / (mk - al)
                for ck, mk in zip(amp, mu))
        y += a * w * np.exp(-al * (VOLTERRA_L - t))
    for mode, mk in zip(modes, mu):
        y -= mode * sum(a / (mk - al) for a, al in zip(coeffs, alphas))
    forward = volterra_forward(coeffs, alphas, t)
    dt = float(t[1] - t[0])
    # second-order discretisation: error bound ~ dt^2
    tol = 10.0 * dt * dt + 1e-9

    def run():
        grid = rv.GridDerivativeOperator(0.0, VOLTERRA_L, n)
        return rv.solve_exponential_volterra(kernel, y, grid)

    def check(out):
        x, _ = out
        return _judge(x, x_true, tol, lambda v: _rel(forward(v), y), tol)

    return Case(label, run, check)


def convolution_problem(rng, terms):
    """Kernel terms (b_j, beta_j) with Im beta_j < 0 whose mapped series
    (-2i b_j beta_j, beta_j^2) has positive coefficients and poles near the
    negative real axis, |beta_j^2| in [2.25, 16]."""
    radii = _spread_uniform(rng, 1.5, 4.0, terms, 0.3)
    betas = radii * np.exp(1j * (-np.pi / 2 + rng.uniform(-0.15, 0.15, terms)))
    coeffs = rng.uniform(0.5, 1.5, terms)
    bs = coeffs / (-2j * betas)
    return list(zip(bs, betas)), coeffs, betas ** 2


def _convolution_case(rv, rng, label, terms, n, known_defect):
    kernel, coeffs, poles = convolution_problem(rng, terms)
    symbol = convolution_symbol(coeffs, poles, n, CONV_PERIOD)
    kappa = float(np.max(np.abs(symbol)) / np.min(np.abs(symbol)))
    forward = multiplier_forward(symbol)
    # a few low Fourier modes: x_true = sum_k c_k exp(2 pi i q_k t / period)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[rng.integers(-6, 7, 4)] += n * _cnormal(rng, 4)
    x_true = np.fft.ifft(spectrum)
    y = forward(x_true)

    def check(x):
        return _judge(x, x_true, 1e4 * EPS * kappa,
                      lambda v: _rel(forward(v), y), 1e-8)

    return Case(label,
                lambda: rv.solve_even_convolution(kernel, y, CONV_PERIOD),
                check, known_defect)


# --- dense_sweep -------------------------------------------------------------


DENSE_N = (50, 200, 400, 800)
DENSE_TERMS = 4
SWEEP_ALPHAS = tuple(10.0 ** -k for k in range(2, 8))


def dense_sweep(rv, rng, smoke):
    config = rv.RegularizerConfig(SWEEP_ALPHAS)
    return [_dense_case(rv, rng, f"N={n}", n, config)
            for n in (DENSE_N[:1] if smoke else DENSE_N)]


def dense_problem(rng, n, terms):
    """Poles in [0.5, 3], planted eigenvalues in Re [6, 10], Im [-2, 2]."""
    poles = _spread_uniform(rng, 0.5, 3.0, terms, 0.2).astype(complex)
    coeffs = rng.uniform(0.5, 1.5, terms)
    eig = 6.0 + 4.0 * rng.uniform(0, 1, n) + 1j * rng.uniform(-2, 2, n)
    return coeffs, poles, _planted_matrix(rng, eig, 0.3 / math.sqrt(n))


def _dense_case(rv, rng, label, n, config):
    coeffs, poles, matrix = dense_problem(rng, n, DENSE_TERMS)
    series = rv.ResolventSeries(tuple(zip(coeffs, poles)))
    forward = DenseForward(coeffs, poles, matrix)
    x_true = _cnormal(rng, n)
    y = forward(x_true)

    def run():
        op = rv.DenseMatrixOperator(matrix)
        report = rv.check_admissible(series, op.spectrum())
        plan = rv.invert_to_plan(series)
        x = rv.apply_plan(plan, op, y)
        return report, x, rv.convergence_sweep(series, plan, op, x_true,
                                               config)

    def check(out):
        report, x, sweep = out
        errors = [r.error for r in sweep.records]
        if not (report.theorem_mode_ok and report.separation_ok
                and len(errors) == len(SWEEP_ALPHAS) and sweep.improved):
            return "wrong_result", math.nan, math.nan
        if not all(math.isfinite(e) for e in errors):
            return "nonfinite", math.nan, math.nan
        return _judge(x, x_true, 1e-8, lambda v: _rel(forward(v), y), 1e-8)

    return Case(label, run, check)


# --- cli_corpus --------------------------------------------------------------


CLI_FILTER_LOG2N = 16
CLI_MATRIX_N = 200
CLI_FILTER_ORDER = 2


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in np.asarray(values,
                                                                 dtype=complex)]


def write_signal_csv(path, values):
    """Two-column (re, im) CSV in the library's signal format."""
    z = np.asarray(values, dtype=complex)
    Path(path).write_text(
        "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(z.real, z.imag)))


def read_signal_csv(path):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return data[:, 0] + 1j * data[:, 1]


class CliRunner:
    """Runs one CLI call as a subprocess, plain or through the tracing
    launcher; the worker swaps ``traced`` on for the traced half."""

    def __init__(self, root, env, workdir):
        self.root = Path(root)
        self.env = env
        self.workdir = Path(workdir)
        self.traced = False
        # traced calls: callback(spans_file, spawn_time, stderr)
        self.collect = None
        self.calls = 0

    def __call__(self, argv):
        self.calls += 1
        cmd = [sys.executable, "-m", "resolvinv.cli"]
        spans_file = None
        if self.traced:
            spans_file = self.workdir / f"spans-{self.calls}.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(self.root / "perfbench" / "cli_launcher.py"),
                   str(spans_file)]
        # perf_counter is CLOCK_MONOTONIC, shared with the launcher's spans
        spawn = time.perf_counter()
        proc = subprocess.run(cmd + list(argv), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if spans_file is not None and self.collect is not None:
            self.collect(spans_file, spawn, proc.stderr)
        return proc


def cli_prepare(rng, workdir, smoke):
    """Benchmark-made problem files: a long filter problem and a dense
    matrix problem, with their truths."""
    workdir = Path(workdir)
    n = 2 ** (12 if smoke else CLI_FILTER_LOG2N)
    c, qt = filter_problem(rng, CLI_FILTER_ORDER)
    x_f = _cnormal(rng, n)
    symbol = filter_symbol(c, qt, n)
    y_f = multiplier_forward(symbol)(x_f)
    (workdir / "big_filter.json").write_text(json.dumps(
        {"kind": "filter", "c": _pairs(c), "b": _pairs(qt)}))
    write_signal_csv(workdir / "big_filter_y.csv", y_f)

    dim = 50 if smoke else CLI_MATRIX_N
    coeffs, poles, matrix = dense_problem(rng, dim, 2)
    forward = DenseForward(coeffs, poles, matrix)
    x_m = _cnormal(rng, dim)
    y_m = forward(x_m)
    (workdir / "big_matrix.json").write_text(json.dumps({
        "kind": "matrix", "matrix": [_pairs(row) for row in matrix],
        "terms": [{"a": [float(a), 0.0], "alpha": [float(al.real),
                                                   float(al.imag)]}
                  for a, al in zip(coeffs, poles)]}))
    write_signal_csv(workdir / "big_matrix_y.csv", y_m)
    return {
        "big_filter": (x_f, multiplier_forward(symbol), y_f,
                       1e4 * EPS * float(np.max(np.abs(symbol))
                                         / np.min(np.abs(symbol)))),
        "big_matrix": (x_m, forward, y_m, 1e-8),
    }


def _terms_of(doc, key="terms"):
    coeffs = [complex(*t["a"]) for t in doc[key]]
    poles = [complex(*t["alpha"]) for t in doc[key]]
    return coeffs, poles


def _demo_truths(demo):
    """Truth, reference forward map and tolerance for each demo problem."""
    def load(name):
        return json.loads((demo / name).read_text())

    out = {}
    doc = load("matrix.json")
    matrix = np.array([[complex(*p) for p in row] for row in doc["matrix"]])
    coeffs, poles = _terms_of(doc)
    out["matrix"] = (read_signal_csv(demo / "matrix_x0.csv"),
                     DenseForward(coeffs, poles, matrix), 1e-8)
    doc = load("filter.json")
    c = [complex(*p) for p in doc["c"]]
    x0 = read_signal_csv(demo / "filter_x0.csv")
    out["filter"] = (x0, multiplier_forward(
        filter_symbol(c, [complex(*p) for p in doc["b"]], x0.size)), 1e-10)
    doc = load("integral.json")
    coeffs, poles = _terms_of(doc, "kernel")
    g = doc["grid"]
    t = np.linspace(g["t0"], g["L"], g["n"])
    dt = float(t[1] - t[0])
    out["integral"] = (read_signal_csv(demo / "integral_x0.csv"),
                       volterra_forward(coeffs, poles, t), 10.0 * dt * dt)
    doc = load("convolution.json")
    bs = [complex(*p["b"]) for p in doc["terms"]]
    betas = [complex(*p["beta"]) for p in doc["terms"]]
    x0 = read_signal_csv(demo / "convolution_x0.csv")
    out["convolution"] = (x0, multiplier_forward(convolution_symbol(
        [-2j * b * be for b, be in zip(bs, betas)],
        [be * be for be in betas], x0.size, doc["period"])), 1e-8)
    return out


def _segment_distance(z, a, b):
    d = b - a
    s = min(1.0, max(0.0, ((z - a).conjugate() * d).real / abs(d) ** 2))
    return abs(z - (a + s * d))


def cli_corpus(runner, demo, workdir, big):
    """Every subcommand on the demo corpus, plus the two large inverts."""
    demo, workdir = Path(demo), Path(workdir)
    cases = []
    for name, expect_ok in (("series_admissible", True),
                            ("series_inadmissible", False)):
        doc = json.loads((demo / f"{name}.json").read_text())
        coeffs, poles = _terms_of(doc)
        point = complex(*doc["spectrum"]["points"][0])
        dist = _segment_distance(point, min(poles, key=lambda p: p.real),
                                 max(poles, key=lambda p: p.real))
        cases.append(_cli_check_case(runner, demo / f"{name}.json",
                                     expect_ok, dist))

    truths = _demo_truths(demo)
    for kind in ("matrix", "filter", "integral", "convolution"):
        x0, forward, tol = truths[kind]
        y_path = demo / f"{kind}_y.csv"
        cases.append(_cli_invert_case(
            runner, f"invert/{kind}", demo / f"{kind}.json", y_path,
            workdir / f"out_{kind}.csv", x0, forward, tol))
    for name in ("big_filter", "big_matrix"):
        x0, forward, y, tol = big[name]
        cases.append(_cli_invert_case(
            runner, f"invert/{name}", workdir / f"{name}.json",
            workdir / f"{name}_y.csv", workdir / f"out_{name}.csv",
            x0, forward, tol, y=y))
    cases.append(_cli_sweep_case(runner, demo, workdir))
    cases.append(_cli_counterexample_case(runner))
    return cases


def _exit_outcome(proc, expected):
    """Outcome for an unexpected exit code; None when it is the expected one."""
    if proc.returncode == expected:
        return None
    if proc.returncode in (1, 2, 3) and "Traceback" not in proc.stderr:
        return f"exit_{proc.returncode}"
    return "wrong_result"


def _cli_check_case(runner, problem, expect_ok, distance):
    expected = 0 if expect_ok else 2

    def check(proc):
        bad = _exit_outcome(proc, expected)
        if bad:
            return bad, math.nan, math.nan
        rep = json.loads(proc.stdout)
        err = abs(rep["separation_distance"] - distance) / max(1.0, distance)
        if rep["separation_ok"] != expect_ok or err > 1e-12:
            return "wrong_result", err, math.nan
        return "passed", err, 0.0

    return Case(f"check/{problem.stem}",
                lambda: runner(["check", str(problem)]), check)


def _cli_invert_case(runner, label, problem, y_path, out_path, x0, forward,
                     tol, y=None):
    if y is None:
        y = read_signal_csv(y_path)

    def run():
        return runner(["invert", str(problem), "--input", str(y_path),
                       "--output", str(out_path)])

    def check(proc):
        bad = _exit_outcome(proc, 0)
        if bad:
            return bad, math.nan, math.nan
        x = read_signal_csv(out_path)
        return _judge(x, x0, tol, lambda v: _rel(forward(v), y), max(tol, 1e-8))

    return Case(label, run, check)


def _cli_sweep_case(runner, demo, workdir):
    out = workdir / "out_sweep.csv"
    grid = json.loads((demo / "sweep.json").read_text())["alpha_grid"]

    def run():
        return runner(["sweep", str(demo / "sweep.json"), "--input",
                       str(demo / "sweep_x.csv"), "--output", str(out)])

    def check(proc):
        bad = _exit_outcome(proc, 0)
        if bad:
            return bad, math.nan, math.nan
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (len(grid), 3) or not np.all(np.isfinite(rows)):
            return "nonfinite", math.nan, math.nan
        if not (np.allclose(rows[:, 0], grid) and rows[-1, 1] <= rows[0, 1]):
            return "wrong_result", math.nan, math.nan
        return "passed", float(rows[-1, 1]), float(rows[-1, 2])

    return Case("sweep", run, check)


def _cli_counterexample_case(runner):
    poles, target = ["1", "3", "2+2j"], "2+0.5j"

    def check(proc):
        bad = _exit_outcome(proc, 0)
        if bad:
            return bad, math.nan, math.nan
        coeffs, alphas = _terms_of(json.loads(proc.stdout))
        z = complex(target)
        value = abs(sum(a / (al - z) for a, al in zip(coeffs, alphas)))
        scale = sum(abs(a / (al - z)) for a, al in zip(coeffs, alphas))
        ok = (all(a.real >= 0 and a.imag == 0 for a in coeffs)
              and value <= 1e-12 * scale)
        return ("passed" if ok else "wrong_result"), value / scale, 0.0

    return Case("counterexample",
                lambda: runner(["counterexample", *poles, "--target", target]),
                check)


LIBRARY_WORKLOADS = {
    "plan_scaling": plan_scaling,
    "fourier_large": fourier_large,
    "dense_sweep": dense_sweep,
}
WORKLOADS = (*LIBRARY_WORKLOADS, "cli_corpus")
