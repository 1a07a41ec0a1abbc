"""The flat inversion plan, the numpy filter path, and the isolation of the
polynomial layer from every live path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resolvinv import tolerance
from resolvinv.cli import main
from resolvinv.errors import (
    ConditioningError,
    InvalidInputError,
    RepeatedRootError,
)
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    apply_plan,
    apply_series,
    forward_even_convolution,
    forward_exponential_volterra,
    forward_filter,
    invert_filter,
    solve_even_convolution,
    solve_exponential_volterra,
)
from resolvinv.rational import (
    FilterSpec,
    InversionPlan,
    _fit_sample_points,
    filter_to_series,
    invert_to_plan,
)
from resolvinv.regularize import RegularizerConfig, convergence_sweep
from resolvinv.series import ResolventSeries, zeros


def planted_filter(roots, residues) -> FilterSpec:
    """Filter whose characteristic roots and transfer residues are the
    given ones: q~(z) = sum_j a_j prod_{i != j} (z - z_i), so that
    q~(z_j) / p'(z_j) = a_j.  Built with numpy alone."""
    roots = np.asarray(roots, dtype=complex)
    qt = np.zeros(roots.size, dtype=complex)
    for j, a in enumerate(residues):
        qt += a * np.atleast_1d(np.poly(np.delete(roots, j)))[::-1]
    return FilterSpec(tuple(np.poly(roots)[::-1]), tuple(qt))


def _rel(got, want) -> float:
    return float(np.linalg.norm(np.asarray(got) - want)
                 / np.linalg.norm(want))


# --- the flat plan -----------------------------------------------------------


def test_plan_has_exactly_four_fields():
    names = [f.name for f in dataclasses.fields(InversionPlan)]
    assert names == ["gamma", "beta", "zeros", "residues"]


@st.composite
def theorem_series(draw):
    m = draw(st.integers(1, 8))
    part = st.floats(-10.0, 10.0, allow_subnormal=False)
    coeffs = draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
    poles = [complex(draw(part), draw(part)) for _ in range(m)]
    assume(tolerance.min_gap(poles) > 0.05)
    return ResolventSeries(tuple(zip(coeffs, poles)))


@settings(max_examples=80, deadline=None)
@given(series=theorem_series())
def test_flat_plan_is_the_closed_form(series):
    try:
        plan = invert_to_plan(series)
    except (RepeatedRootError, ConditioningError):
        return
    m = len(series.terms)
    assert plan.zeros.shape == plan.residues.shape == (m - 1,)
    assert np.array_equal(plan.zeros, np.array(zeros(series), dtype=complex))
    a = np.array(series.coefficients)
    alpha = np.array(series.poles)
    fprime = np.sum(a / (alpha - plan.zeros[:, None]) ** 2, axis=1)
    np.testing.assert_allclose(plan.residues, -1.0 / fprime, rtol=1e-12)
    pts = _fit_sample_points(np.concatenate([alpha, plan.zeros]), count=16)
    scalar = [plan.evaluate_scalar(complex(z)) for z in pts]
    np.testing.assert_allclose(plan.evaluate_scalar(pts), scalar,
                               rtol=1e-13)


# --- the numpy filter path ---------------------------------------------------


def _separated_roots(rng, order, scale):
    """Roots of modulus 0.3..0.9 (times scale), one per sector."""
    angles = 2 * np.pi * (np.arange(order) + rng.uniform(0.3, 0.7, order))
    return scale * rng.uniform(0.3, 0.9, order) * np.exp(1j * angles / order)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3]))
def test_filter_recovers_planted_roots_and_residues(order, seed, scale):
    rng = np.random.default_rng(seed)
    roots = _separated_roots(rng, order, scale)
    residues = rng.uniform(0.5, 1.5, order)
    series, report = filter_to_series(planted_filter(roots, residues))
    assert report.theorem_mode_ok
    got = dict(zip(series.poles, series.coefficients))
    for z, a in zip(roots, residues):
        near = min(got, key=lambda w: abs(w - z))
        assert abs(near - z) <= 1e-10 * scale
        assert got[near] == pytest.approx(a, rel=1e-8)


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("order", [2, 5, 8])
def test_filter_root_pair_inside_the_gap_is_repeated(order, scale):
    rng = np.random.default_rng(order)
    roots = _separated_roots(rng, order, scale)
    roots[1] = roots[0] * (1.0 + 1e-9)
    with pytest.raises(RepeatedRootError):
        filter_to_series(planted_filter(roots, np.ones(order)))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_filter_tol_out_of_range_rejected(tol):
    # a NaN tol used to disable the repeated-root test: a double root at 2
    # came back as two poles with residues of about 2e7
    with pytest.raises(InvalidInputError):
        filter_to_series(FilterSpec((4.0, -4.0, 1.0), (1.0, 0.0)), tol=tol)


def test_filter_gap_has_no_floor_of_one():
    # two roots 1e-3 apart relative to their size: distinct at every scale
    # (a gap floored at 1e-6 absolute merged them below scale 1e-3)
    for scale in (1e-9, 1e-6, 1.0):
        roots = scale * np.array([0.5, 0.5005])
        series, _ = filter_to_series(planted_filter(roots, [1.0, 1.0]))
        assert len(series.terms) == 2


# --- the polynomial layer has no caller --------------------------------------


POLYNOMIAL_LAYER = {
    "resolvinv.rational": ("Polynomial", "RationalFunction", "PoleGroup",
                           "PartialFractionForm", "poly_roots",
                           "partial_fractions", "series_to_rational",
                           "numerator_coefficients"),
    "resolvinv.series": ("numerator_coefficients",),
}


@pytest.fixture
def polynomial_layer_off(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the polynomial layer was called")

    for module, names in POLYNOMIAL_LAYER.items():
        for name in names:
            monkeypatch.setattr(f"{module}.{name}", refuse)


def test_cli_demo_corpus_without_the_polynomial_layer(polynomial_layer_off,
                                                      tmp_path, capsys):
    d = tmp_path / "demo"
    assert main(["demo", "--output-dir", str(d)]) == 0
    for problem in sorted(d.glob("*.json")):
        expect = 2 if problem.stem == "series_inadmissible" else 0
        assert main(["check", str(problem)]) == expect, problem.name
    for kind in ("matrix", "filter", "integral", "convolution"):
        assert main(["invert", str(d / f"{kind}.json"),
                     "--input", str(d / f"{kind}_y.csv"),
                     "--output", str(tmp_path / f"{kind}.csv")]) == 0
    assert main(["sweep", str(d / "sweep.json"), "--input",
                 str(d / "sweep_x.csv"), "--output",
                 str(tmp_path / "sweep.csv")]) == 0
    assert main(["counterexample", "--target", "0", "--",
                 "1", "1j", "-1-1j"]) == 0


def test_solvers_without_the_polynomial_layer(polynomial_layer_off):
    rng = np.random.default_rng(8)
    series = ResolventSeries(((1.0, 1.0), (0.5, 2.0 + 1j), (0.8, 3.0)))
    plan = invert_to_plan(series)
    A = DenseMatrixOperator(np.diag(6.0 + np.arange(5.0))
                            + 0.1 * np.eye(5, k=1))
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert _rel(apply_plan(plan, A, apply_series(series, A, x)), x) < 1e-12
    sweep = convergence_sweep(series, plan, A, x,
                              RegularizerConfig((1e-2, 1e-6)))
    assert sweep.improved

    spec = planted_filter([0.3 + 0.2j, -0.4, 0.1 - 0.5j], [1.0, 0.6, 0.8])
    xs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert _rel(invert_filter(spec, forward_filter(spec, xs)), xs) < 1e-10

    kernel = ResolventSeries(((1.0, 1.0), (0.5, 2.0)))
    grid = GridDerivativeOperator(0.0, 10.0, 400)
    xv = np.exp(-0.3 * grid.t) * np.cos(grid.t)
    xr, _ = solve_exponential_volterra(
        kernel, forward_exponential_volterra(kernel, xv, grid), grid)
    assert _rel(xr, xv) < 1e-2

    betas = np.array([1.5, 2.5]) * np.exp(1j * (-np.pi / 2
                                                + np.array([0.1, -0.1])))
    terms = list(zip(np.array([1.0, 0.7]) / (-2j * betas), betas))
    xc = np.cos(2 * np.pi * np.arange(128) / 128)
    yc = forward_even_convolution(terms, xc, 8.0)
    xr = solve_even_convolution(terms, yc, 8.0)
    assert _rel(xr, xc) < 1e-10
