"""End-to-end acceptance suite.

Each test covers one headline guarantee of the library, prints a single
PASS line with the measured figure of merit, and pins the tolerance it was
designed to.  All randomness is seeded so the suite is reproducible.
"""

import json
import subprocess
import sys
import time

import numpy as np

from conftest import (
    assemble_plan,
    assemble_series,
    matrix_with_eigenvalues,
    planted_filter,
    random_theorem_series,
)
from resolvinv.demos import write_demo_files
from resolvinv.geometry import convex_hull, hull_distance
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    apply_series,
    forward_even_convolution,
    forward_exponential_volterra,
    forward_filter,
    invert_filter,
    solve_even_convolution,
    solve_exponential_volterra,
)
from resolvinv.rational import FilterSpec, invert_to_plan
from resolvinv.regularize import RegularizerConfig, convergence_sweep
from resolvinv.series import (
    caratheodory_zero_series,
    evaluate,
    gamma_beta,
    secular_zeros,
)
from resolvinv.tolerance import magnitude


def test_left_inverse_oracle_equivalence():
    """(gamma I + beta A + h(A)) f(A) = I on 200 dense random instances."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        series = random_theorem_series(rng, 2, 8)
        n = int(rng.integers(2, 17))
        # eigenvalues in an annulus well clear of the pole hull (which
        # sits inside the unit square anchored at the origin)
        radii = rng.uniform(2.5, 4.0, n)
        angles = rng.uniform(0, 2 * np.pi, n)
        eigs = 0.5 + 0.5j + radii * np.exp(1j * angles)
        m = matrix_with_eigenvalues(rng, eigs)
        fA = assemble_series(series, m)
        plan = invert_to_plan(series)
        inv = assemble_plan(plan, m)
        defect = np.linalg.norm(inv @ fA - np.eye(n))
        bound = 1e-9 * np.linalg.cond(fA)
        ratio = defect / bound
        worst = max(worst, ratio)
        assert defect <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS left-inverse oracle: 200 instances, worst defect at "
          f"{worst:.2e} of the 1e-9*cond bound, {elapsed:.1f}s")


def test_zeros_confined_to_pole_hull():
    """Every zero of 1000 random admissible series lies in the pole hull."""
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        series = random_theorem_series(rng, 2, 8)
        hull = convex_hull(series.poles)
        for z in secular_zeros(series.coefficients, series.poles):
            d = hull_distance(hull, z)
            worst = max(worst, d)
            assert d <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS zero confinement: 1000 series, max hull distance "
          f"{worst:.2e} <= 1e-8, {elapsed:.1f}s")


def test_planted_eigenvalue_annihilation():
    """A series vanishing at a planted eigenvalue annihilates its vector."""
    rng = np.random.default_rng(105)
    worst_f = 0.0
    worst_op = 0.0
    for _ in range(100):
        m_poles = int(rng.integers(3, 8))
        poles = rng.uniform(-1, 1, m_poles) + 1j * rng.uniform(-1, 1, m_poles)
        w = rng.uniform(0.1, 1.0, m_poles)
        lam = complex(np.sum(w * poles) / np.sum(w))
        if min(abs(lam - p) for p in poles) < 1e-3:
            continue
        series = caratheodory_zero_series(list(poles), lam)
        worst_f = max(worst_f, abs(evaluate(series, lam)))
        assert abs(evaluate(series, lam)) <= 1e-12

        n = int(rng.integers(3, 8))
        others = 5.0 + rng.uniform(0, 2, n - 1)
        q = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        m = q @ np.diag(np.concatenate(
            ([lam], others.astype(complex)))) @ np.linalg.inv(q)
        x = q[:, 0].astype(complex)
        fx = apply_series(series, DenseMatrixOperator(m), x)
        ratio = np.linalg.norm(fx) / np.linalg.norm(x)
        worst_op = max(worst_op, ratio)
        assert ratio <= 1e-10
    print(f"PASS planted eigenvalue: 100 instances, max |f(lambda)| "
          f"{worst_f:.2e} <= 1e-12, max ||f(A)x||/||x|| {worst_op:.2e} "
          f"<= 1e-10")


def _random_stable_filter(rng, order):
    while True:
        roots = (rng.uniform(-0.8, 0.8, order)
                 + 1j * rng.uniform(-0.8, 0.8, order))
        roots = 0.8 * roots / np.maximum(1.0, np.abs(roots) / 0.999)
        if all(abs(roots[i] - roots[j]) > 0.05
               for i in range(order) for j in range(i + 1, order)):
            break
    return planted_filter(roots, rng.uniform(0.2, 1.0, order))


def test_filter_round_trip():
    """Filter inversion undoes the forward filter on periodic signals."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(40):
        order = int(rng.integers(1, 5))
        spec = _random_stable_filter(rng, order)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        y = forward_filter(spec, x)
        x_rec = invert_filter(spec, y)
        err = np.linalg.norm(x_rec - x) / np.linalg.norm(x)
        worst = max(worst, err)
        assert err <= 1e-9

    # first-order closed form x(m) = (c0/b1) y(m-1) + (c1/b1) y(m)
    c0, c1, b1 = -0.6, 1.0, 0.8
    spec = FilterSpec((c0, c1), (b1,))
    y = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    x = invert_filter(spec, y)
    expect = (c0 / b1) * np.roll(y, 1) + (c1 / b1) * y
    closed = np.max(np.abs(x - expect)) / np.max(np.abs(expect))
    assert closed <= 1e-12
    print(f"PASS filter round trip: 40 random filters worst rel err "
          f"{worst:.2e} <= 1e-9, first-order closed form {closed:.2e} "
          f"<= 1e-12")


def test_integral_equation_convergence():
    """Half-line integral equation: grid refinement converges at order>=1."""
    kernels = [
        [(1.0, 1.0)],
        [(1.0, 1.0), (1.0, 2.0)],
    ]
    final_errors = []
    orders = []
    for terms in kernels:
        from resolvinv.series import ResolventSeries

        kernel = ResolventSeries(tuple(terms))
        errs = []
        for n in (501, 1001, 2001):
            grid = GridDerivativeOperator(0.0, 10.0, n)
            x = np.exp(-((grid.t - 4.0) ** 2)).astype(complex)
            y = forward_exponential_volterra(kernel, x, grid)
            x_rec, _ = solve_exponential_volterra(kernel, y, grid)
            errs.append(np.linalg.norm(x_rec - x) / np.linalg.norm(x))
        order = np.log2(errs[0] / errs[2]) / 2.0
        orders.append(order)
        final_errors.append(errs[2])
        assert order >= 1.0
        assert errs[2] <= 1e-3
    print(f"PASS integral equation: empirical orders "
          f"{[f'{o:.2f}' for o in orders]} >= 1, errors at n=2001 "
          f"{[f'{e:.1e}' for e in final_errors]} <= 1e-3")


def test_even_convolution_round_trip():
    """Even-kernel periodic convolution inverts band-limited signals."""
    period = 8.0
    n = 128
    t = np.linspace(0.0, period, n, endpoint=False)
    x = (np.cos(2 * np.pi * t / period)
         + 0.5 * np.cos(6 * np.pi * t / period)).astype(complex)
    cases = [
        [(-0.5, -1j)],
        [(-0.5, -1j), (-0.25, -2j)],
    ]
    worst = 0.0
    for terms in cases:
        y = forward_even_convolution(terms, x, period)
        x_rec = solve_even_convolution(terms, y, period)
        err = np.linalg.norm(x_rec - x) / np.linalg.norm(x)
        worst = max(worst, err)
        assert err <= 1e-9
    print(f"PASS even convolution: worst rel reconstruction err "
          f"{worst:.2e} <= 1e-9")


def test_regularization_sweep_converges():
    """Tikhonov sweep on an 8x8 instance converges to the true solution."""
    rng = np.random.default_rng(109)
    series = random_theorem_series(rng, 2, 4)
    plan = invert_to_plan(series)
    m = matrix_with_eigenvalues(rng, 5.0 + np.arange(8.0), coupling=0.05)
    A = DenseMatrixOperator(m)
    x = np.sin(1.0 + np.arange(8.0))
    cfg = RegularizerConfig(tuple(10.0 ** (-k) for k in range(2, 11)))
    report = convergence_sweep(series, plan, A, x, cfg)
    errors = [r.error for r in report.records]
    assert report.improved
    assert errors[-1] < errors[0]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    bound = 1e-5 * np.linalg.norm(x)
    assert errors[-1] <= bound
    print(f"PASS regularization sweep: error {errors[0]:.2e} -> "
          f"{errors[-1]:.2e} (bound {bound:.1e}), strictly decreasing")


def test_asymptotic_constants():
    """1/(z f) -> beta and 1/f - beta z -> gamma far from the poles."""
    rng = np.random.default_rng(111)
    worst_b = 0.0
    worst_g = 0.0
    for _ in range(50):
        series = random_theorem_series(rng, 2, 8)
        g, b = gamma_beta(series)
        z = 1e6 * magnitude(series.poles) * np.exp(0.41j)
        f = evaluate(series, complex(z))
        db = abs(1.0 / (z * f) - b)
        dg = abs(1.0 / f - b * z - g)
        worst_b = max(worst_b, db)
        worst_g = max(worst_g, dg)
        assert db <= 1e-4
        assert dg <= 1e-3
    print(f"PASS asymptotics: 50 series, max |1/(zf)-beta| {worst_b:.2e} "
          f"<= 1e-4, max |1/f-beta*z-gamma| {worst_g:.2e} <= 1e-3")


def test_cli_golden(tmp_path):
    """CLI subcommands are byte-stable on demo inputs with documented codes."""
    demo = tmp_path / "demo"
    demo.mkdir()
    write_demo_files(demo)

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "resolvinv.cli", *args],
            capture_output=True, text=True)

    cases = [
        (["check", str(demo / "series_admissible.json")], 0),
        (["check", str(demo / "series_inadmissible.json")], 2),
        (["invert", str(demo / "matrix.json"),
          "--input", str(demo / "matrix_y.csv"),
          "--output", str(tmp_path / "mx.csv")], 0),
        (["sweep", str(demo / "sweep.json"),
          "--input", str(demo / "sweep_x.csv"),
          "--output", str(tmp_path / "sw.csv")], 0),
        (["counterexample", "--target", "0", "--", "1", "1j", "-1-1j"], 0),
    ]
    for args, want in cases:
        first = run(args)
        assert first.returncode == want, (args, first.stderr)
        second = run(args)
        assert second.stdout == first.stdout, args
        assert second.returncode == first.returncode

    # recovered matrix solution matches the shipped truth
    x = np.loadtxt(tmp_path / "mx.csv", delimiter=",")
    x0 = np.loadtxt(demo / "matrix_x0.csv", delimiter=",")
    assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)
    out = json.loads(first.stdout)
    assert out["abs_f_at_target"] < 1e-12
    print("PASS cli golden: 5 subcommand cases byte-stable with documented "
          "exit codes")
