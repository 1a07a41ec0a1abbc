"""The flat inversion plan, the numpy filter path, and the isolation of the
names that only the benchmark's tracer keeps from every live path."""

import dataclasses
import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import planted_filter
from resolvinv import tolerance
from resolvinv.cli import main
from resolvinv.errors import (
    ConditioningError,
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
from resolvinv.series import ResolventSeries, secular_zeros, theorem_mode


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
    assert np.array_equal(plan.zeros,
                          secular_zeros(series.coefficients, series.poles))
    a = np.array(series.coefficients)
    alpha = np.array(series.poles)
    fprime = np.sum(a / (alpha - plan.zeros[:, None]) ** 2, axis=1)
    np.testing.assert_allclose(plan.residues, -1.0 / fprime, rtol=1e-12)
    pts = _fit_sample_points(np.concatenate([alpha, plan.zeros]))
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
    series = filter_to_series(planted_filter(roots, residues))
    assert series.is_theorem_mode()
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


def test_filter_gap_has_no_floor_of_one():
    # two roots 1e-3 apart relative to their size: distinct at every scale
    # (a gap floored at 1e-6 absolute merged them below scale 1e-3)
    for scale in (1e-9, 1e-6, 1.0):
        roots = scale * np.array([0.5, 0.5005])
        series = filter_to_series(planted_filter(roots, [1.0, 1.0]))
        assert len(series.terms) == 2


def _reference_filter_to_series(spec):
    """The filter path with its root step and residues inline, and the
    root gap taken unscaled: the reference for poly_roots and
    partial_fractions."""
    c = np.asarray(spec.c)
    dc = npp.polyder(c)
    z = np.roots(c[::-1])
    pz = npp.polyval(z, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = z - pz / npp.polyval(z, dc)
        z = np.where(np.abs(npp.polyval(newton, c)) <= np.abs(pz), newton, z)
    gaps = np.abs(z[:, None] - z) + np.diag(np.full(z.size, np.inf))
    gap = gaps.min() if z.size > 1 else math.inf
    if gap <= tolerance.ROOT_TOL * tolerance.magnitude(z):
        raise RepeatedRootError(
            "characteristic polynomial has a repeated root")
    z = z[np.lexsort((z.imag, z.real))]
    a = npp.polyval(z, spec.b) / npp.polyval(z, dc)
    if theorem_mode(a, rtol=tolerance.DERIVED_EPS):
        a = a.real
    return ResolventSeries(tuple(zip(a, z)))


@st.composite
def filter_specs(draw):
    """Random complex or real coefficients, or planted roots with positive
    residues (theorem mode), or planted roots with a near-double one."""
    kind = draw(st.sampled_from(["complex", "real", "planted", "repeated"]))
    order = draw(st.integers(1, 7))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind in ("complex", "real"):
        c, b = (rng.standard_normal(k) for k in (order + 1, order))
        if kind == "complex":
            c = c + 1j * rng.standard_normal(order + 1)
            b = b + 1j * rng.standard_normal(order)
        spec = FilterSpec(tuple(c * scale ** -np.arange(order + 1)),
                          tuple(b))
    else:
        roots = _separated_roots(rng, order, scale)
        if kind == "repeated" and order > 1:
            roots[1] = roots[0] * (1.0 + 10.0 ** rng.uniform(-14.0, -6.0))
        spec = planted_filter(roots, rng.uniform(0.5, 1.5, order))
    return spec


def _terms_or_error(fn):
    try:
        return fn().terms
    except Exception as exc:  # the error class is the outcome compared
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(spec=filter_specs())
def test_filter_path_matches_the_inline_reference(spec):
    got = _terms_or_error(lambda: filter_to_series(spec))
    want = _terms_or_error(lambda: _reference_filter_to_series(spec))
    assert got == want


# --- names no live path calls ------------------------------------------------

# the benchmark's span tracer keeps them by name
POLYNOMIAL_LAYER = {
    "resolvinv.series": ("numerator_coefficients",),
    "resolvinv.regularize": ("tikhonov_apply",),
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
