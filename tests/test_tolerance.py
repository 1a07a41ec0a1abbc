"""Scale covariance of every accept/reject decision.

The package compares each computed quantity with an epsilon-multiple of
the scale of the data that produced it, with no floor of 1 (see
resolvinv.tolerance).  So rescaling the poles, the spectrum or symbol,
the grid and the data together by 10^k must leave every decision, every
error type and every CLI exit code unchanged, and the result must scale
exactly as the problem does.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvinv import tolerance
from resolvinv.cli import main
from resolvinv.demos import write_demo_files
from resolvinv.errors import (
    RepeatedPoleError,
    RepeatedRootError,
    ResolvinvError,
)
from resolvinv.geometry import (
    PointSpectrum,
    PositiveHalfLine,
    convex_hull,
    hull_distance,
)
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    MultiplierOperator,
    apply_plan,
    apply_series,
    convolution_series,
    forward_even_convolution,
    solve_even_convolution,
    solve_exponential_volterra,
)
from resolvinv.rational import invert_to_plan
from resolvinv.serialization import read_signal
from resolvinv.series import ResolventSeries, check_admissible

EXPONENTS = range(-12, 13)


def _rel(got, want) -> float:
    return float(np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want))


class TestRule:
    def test_magnitude_has_no_floor(self):
        assert tolerance.magnitude([1e-20, -3e-20j]) == 3e-20
        assert tolerance.magnitude([]) == 0.0

    def test_negligible_takes_the_largest_scale(self):
        assert tolerance.negligible(1e-13, 0.0, 1.0)
        assert not tolerance.negligible(1e-13, 0.0, 1e-3)
        assert tolerance.negligible(0.0, 0.0)

    def test_min_gap(self):
        assert tolerance.min_gap([1.0]) == math.inf
        assert tolerance.min_gap([0.0, 3.0, 1j, 3.5]) == 0.5

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_distinct_poles_at_every_scale(self, k):
        c = 10.0 ** k
        tolerance.require_distinct(c * np.array([1.0, 1.0 + 1e-9, 2j]))
        with pytest.raises(RepeatedPoleError):
            tolerance.require_distinct(c * np.array([1.0, 1.0 + 1e-13, 2j]))

    def test_require_distinct_names_the_input_poles(self):
        # the gaps are taken on the poles scaled by a power of two; the
        # message names the poles as given
        tolerance.require_distinct([1e-12, 1.1e-12])
        with pytest.raises(RepeatedPoleError,
                           match=r"poles \(1e-12\+0j\) and \(1e-12\+0j\)"):
            tolerance.require_distinct([1e-12, 1.1e-12, 1e-12])

    @pytest.mark.parametrize("k", EXPONENTS)
    def test_point_on_a_hull_edge_at_every_scale(self, k):
        # the computed point-to-segment distance of 2c from [c, 3c] is a
        # rounding residue at some scales (2.6e-26 at c = 1e-10)
        c = 10.0 ** k
        assert hull_distance(convex_hull([c, 3 * c]), 2 * c) == 0.0
        assert hull_distance(convex_hull([c, 3 * c, 2 * c + c * 1j]),
                             2 * c) == 0.0

    def test_exact_hull_membership(self):
        hull = convex_hull([0j, 1e-12 + 0j, 1e-12j])
        assert hull.contains(2e-13 + 2e-13j)
        assert not hull.contains(-1e-30 + 2e-13j)


@pytest.mark.filterwarnings("error")
class TestFloatRange:
    """Pole checks whose differences or products of points pass the float
    range unless taken on the points scaled by a power of two."""

    def test_distinct_poles_near_the_float_range(self):
        poles = [1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j]
        tolerance.require_distinct(poles)
        assert tolerance.min_gap(poles) == math.inf  # 3.4e308
        with pytest.raises(RepeatedPoleError):
            tolerance.require_distinct(poles + [poles[0] * (1 + 1e-13)])

    def test_hull_near_the_float_range(self):
        hull = convex_hull([c * 1e308 for c in (1 + 1j, -1 - 1j, 1 - 1j)])
        assert hull.vertices == (-1e308 - 1e308j, 1e308 - 1e308j,
                                 1e308 + 1e308j)
        assert hull_distance(hull, -1e308 + 1e308j) == pytest.approx(
            math.sqrt(2) * 1e308, rel=1e-15)

    def test_hull_of_a_pole_past_the_float_range(self):
        # |1.7e308 (1 + i)| exceeds the float range
        hull = convex_hull([1.7e308 + 1.7e308j, 0j])
        assert hull.vertices == (0j, 1.7e308 + 1.7e308j)


# --- the 6-term problem ------------------------------------------------------

SIX_A = np.array([0.5, 0.8, 1.1, 1.4, 1.7, 2.0])
SIX_POLES = np.array([2.0 + 0.7j, 2.6 - 0.4j, 3.2 + 0.9j, 3.8 - 0.8j,
                      4.4 + 0.3j, 5.0 - 0.6j])
SIX_SPECTRUM = np.linspace(-1.0, 1.0, 64)
SIX_X = np.cos(np.arange(64.0)) + 1j * np.sin(0.3 * np.arange(64.0))


@pytest.mark.parametrize("operator", ["multiplier", "dense"])
@pytest.mark.parametrize("k", EXPONENTS)
def test_six_term_problem_at_every_scale(k, operator):
    """Poles and spectrum scaled by c = 10^k.  With a floor of 1 in the
    tolerances this raised RepeatedRootError at c = 1e-12, 1e-11, 1e-9
    and 1e-6 (and at more scales in between)."""
    c = 10.0 ** k
    series = ResolventSeries(tuple(zip(SIX_A, c * SIX_POLES)))
    symbol = c * SIX_SPECTRUM
    A = (MultiplierOperator(symbol) if operator == "multiplier"
         else DenseMatrixOperator(np.diag(symbol)))
    report = check_admissible(series, PointSpectrum(tuple(symbol)))
    assert report.theorem_mode_ok and report.separation_ok
    plan = invert_to_plan(series)
    assert plan.zeros.shape == plan.residues.shape == (5,)
    y = apply_series(series, A, SIX_X)
    assert _rel(apply_plan(plan, A, y), SIX_X) <= 1e-12


@pytest.mark.parametrize("k", EXPONENTS)
def test_double_zero_rejected_at_every_scale(k):
    # equal weights on the cube roots of unity give f a double zero at 0;
    # its computed halves sit about 1.5e-8 * c apart from the origin, so
    # the gap is judged against max|alpha| = c, never against max|z|
    c = 10.0 ** k
    s = ResolventSeries(tuple((1.0, c * np.exp(2j * np.pi * j / 3))
                              for j in range(3)))
    with pytest.raises(RepeatedRootError):
        invert_to_plan(s)


# --- rescale property -------------------------------------------------------


def _outcome(fn):
    try:
        return "ok", fn()
    except ResolvinvError as exc:
        return "error", type(exc)


def _series_outcomes(terms, A, spectrum, x, c):
    """Decisions and results of the inversion pipeline on one problem
    whose poles and operator carry the scale c: the series check, the
    admissibility flags, the forward map and the plan applied to x.  Each
    stage runs even when an earlier check fails, so every library check
    is exercised.  f(cA) with poles c*alpha is f(A)/c, so the forward
    result is multiplied by c and the inverse one divided by c."""
    status, series = _outcome(lambda: ResolventSeries(terms))
    if status == "error":
        return [status, series], []
    report = check_admissible(series, spectrum)
    decisions = [report.theorem_mode_ok, report.separation_ok]
    results = []
    forward = _outcome(lambda: apply_series(series, A, x) * c)
    status, plan = _outcome(lambda: invert_to_plan(series))
    back = (_outcome(lambda: apply_plan(plan, A, x) / c)
            if status == "ok" else (status, plan))
    for out in (forward, back):
        decisions.append(out[0])
        (results if out[0] == "ok" else decisions).append(out[1])
    return decisions, results


def _point_problem(params, c, dense):
    a, poles, spectrum, x = params
    symbol = c * spectrum
    if dense:
        # a fixed well-conditioned similarity: the computed eigenvalues
        # then carry rounding relative to c, far below the tolerances
        n = symbol.size
        q = np.eye(n) + 0.1 / math.sqrt(n) * np.random.default_rng(
            0).standard_normal((n, n))
        A = DenseMatrixOperator(q @ np.diag(symbol) @ np.linalg.inv(q))
        spec = A.spectrum()
    else:
        A = MultiplierOperator(symbol)
        spec = PointSpectrum(tuple(symbol))
    return _series_outcomes(tuple(zip(a, c * poles)), A, spec, x, c)


def _volterra_problem(params, c):
    a, alphas, n, y = params
    grid = GridDerivativeOperator(0.0, 10.0 / c, n)

    def solve():
        kernel = ResolventSeries(tuple(zip(a, c * alphas)))
        return solve_exponential_volterra(kernel, y, grid)

    status, out = _outcome(solve)
    if status == "error":
        return [status, out], []
    x, boundary = out
    return [status, boundary], [x / c]


def _convolution_problem(params, c):
    b, betas, n, y = params
    r = math.sqrt(c)
    terms = list(zip(r * b, r * betas))
    period = 8.0 / r
    status, series = _outcome(lambda: convolution_series(terms))
    if status == "error":
        return [status, series], []
    decisions, results = [status], []
    for out in (_outcome(lambda: solve_even_convolution(terms, y, period)),
                _outcome(lambda: forward_even_convolution(terms, y, period))):
        decisions.append(out[0])
        (results if out[0] == "ok" else decisions).append(out[1])
    return decisions, results


@st.composite
def point_params(draw):
    """A series against a point spectrum, possibly with one defect."""
    defect = draw(st.sampled_from(
        ["none", "pole_on_spectrum", "point_in_hull", "negative_coefficient",
         "repeated_pole", "double_zero"]))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if defect == "double_zero":
        m = 3
        turn = rng.uniform()
        poles = 3.5 + np.exp(2j * np.pi * np.arange(m) / m + 1j * turn)
        a = np.ones(m)
    else:
        while True:
            poles = rng.uniform(2, 5, m) + 1j * rng.uniform(-1, 1, m)
            if tolerance.min_gap(poles) > 0.05:
                break
        a = rng.uniform(0.5, 2.0, m)
    n = draw(st.integers(2, 12))
    spectrum = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    if defect == "pole_on_spectrum":
        spectrum[0] = poles[0]
    elif defect == "point_in_hull":
        spectrum[0] = np.mean(poles)
    elif defect == "negative_coefficient":
        a[0] = -a[0]
    elif defect == "repeated_pole":
        poles[1] = poles[0]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return defect, (a, poles, spectrum, x)


@st.composite
def volterra_params(draw):
    defect = draw(st.sampled_from(
        ["none", "growing_exponent", "negative_coefficient", "double_zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = 3 if defect == "double_zero" else draw(st.integers(1, 3))
    if defect == "double_zero":
        alphas = 2.0 + np.exp(2j * np.pi * np.arange(m) / m)
        a = np.ones(m)
    else:
        while True:
            alphas = rng.uniform(0.5, 3.0, m) + 1j * rng.uniform(-1, 1, m)
            if tolerance.min_gap(alphas) > 0.1:
                break
        a = rng.uniform(0.5, 1.5, m)
    if defect == "growing_exponent":
        alphas[0] = -alphas[0].real + 1j * alphas[0].imag
    elif defect == "negative_coefficient":
        a[0] = -a[0]
    n = draw(st.integers(3, 200))
    t = np.linspace(0.0, 1.0, n)
    y = np.exp(-20 * (t - rng.uniform(0.2, 0.6)) ** 2).astype(complex)
    return defect, (a, alphas, n, y)


@st.composite
def convolution_params(draw):
    defect = draw(st.sampled_from(
        ["none", "real_frequency", "negative_coefficient", "hull_on_ray"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 3))
    # beta = r exp(-i theta) with theta in (pi/4, 3pi/4) puts beta^2 in the
    # left half plane, off [0, inf)
    theta = rng.uniform(np.pi / 4 + 0.1, 3 * np.pi / 4 - 0.1, m)
    betas = rng.uniform(0.5, 2.0, m) * np.exp(-1j * theta)
    a = rng.uniform(0.5, 1.5, m)
    if defect == "negative_coefficient":
        a[0] = -a[0]
    elif defect == "real_frequency":
        betas[0] = abs(betas[0])
    elif defect == "hull_on_ray":
        betas = np.append(betas, [np.exp(-1j * np.pi / 8),
                                  np.exp(-7j * np.pi / 8)])
        a = np.append(a, [1.0, 1.0])
    b = a / (-2j * betas)  # mapped coefficients -2i b beta = a
    n = draw(st.integers(2, 128))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return defect, (b, betas, n, y)


PROBLEMS = {
    "multiplier": (point_params(),
                   lambda p, c: _point_problem(p, c, dense=False)),
    "dense": (point_params(), lambda p, c: _point_problem(p, c, dense=True)),
    "volterra": (volterra_params(), _volterra_problem),
    "convolution": (convolution_params(), _convolution_problem),
}


@st.composite
def rescaled_problem(draw):
    kind = draw(st.sampled_from(sorted(PROBLEMS)))
    strategy, solve = PROBLEMS[kind]
    defect, params = draw(strategy)
    return kind, defect, params, solve


@settings(max_examples=150, deadline=None)
@given(problem=rescaled_problem(), k=st.integers(-12, 12))
def test_rescaling_keeps_every_decision(problem, k):
    """Poles, point spectrum or symbol, grid and data rescaled by 10^k:
    the same decisions and error types, the same relative result."""
    kind, defect, params, solve = problem
    want_decisions, want = solve(params, 1.0)
    got_decisions, got = solve(params, 10.0 ** k)
    assert got_decisions == want_decisions, (kind, defect)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _rel(g, w) <= 1e-10, (kind, defect)


@st.composite
def ray_params(draw):
    """Poles against [0, inf): anywhere, or touching the ray at a vertex,
    with an edge through the origin, or within rounding."""
    contact = draw(st.sampled_from(["none", "vertex", "origin_on_edge",
                                    "rounding"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 4))
    while True:
        poles = rng.uniform(-3, 3, m) + 1j * rng.uniform(-3, 3, m)
        if tolerance.min_gap(poles) > 0.1 and min(abs(poles)) > 0.1:
            break
    x = rng.uniform(0.5, 3.0)
    if contact == "vertex":
        poles[0] = x
    elif contact == "origin_on_edge":
        poles[1] = -rng.uniform(0.5, 2.0) * poles[0]
    elif contact == "rounding":
        poles[0] = x * cmath.exp(1e-14j * rng.choice([-1.0, 1.0]))
    return contact, poles


@settings(max_examples=100, deadline=None)
@given(params=ray_params(), k=st.integers(-12, 12))
def test_ray_decision_survives_rescaling(params, k):
    """Poles rescaled by 10^k against [0, inf): the same separation
    decision, and the hull and term distances scale with the poles."""
    contact, poles = params

    def check(c):
        series = ResolventSeries(tuple((1.0, c * p) for p in poles))
        report = check_admissible(series, PositiveHalfLine())
        distances = [report.separation_distance] + [
            t.spectrum_distance for t in report.per_term]
        return report.separation_ok, np.array(distances) / c

    (want_ok, want), (got_ok, got) = check(1.0), check(10.0 ** k)
    assert got_ok == want_ok, contact
    if contact != "none":
        assert not got_ok, contact
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


# --- the CLI under rescaling ------------------------------------------------


def _scale_pairs(pairs, factor):
    return [[factor * re, factor * im] for re, im in pairs]


def _rescaled_demo(doc, c):
    """The demo problem with every scale-carrying field rescaled, and the
    power of c by which its solution scales."""
    kind = doc["kind"]
    if kind == "series":
        for term in doc["terms"]:
            term["alpha"] = [c * v for v in term["alpha"]]
        doc["spectrum"]["points"] = _scale_pairs(doc["spectrum"]["points"], c)
        return 0
    if kind == "matrix":
        for term in doc["terms"]:
            term["alpha"] = [c * v for v in term["alpha"]]
        doc["matrix"] = [_scale_pairs(row, c) for row in doc["matrix"]]
        return 1
    if kind == "integral":
        for term in doc["kernel"]:
            term["alpha"] = [c * v for v in term["alpha"]]
        doc["grid"]["t0"] /= c
        doc["grid"]["L"] /= c
        return 1
    assert kind == "convolution"
    r = math.sqrt(c)
    for term in doc["terms"]:
        term["b"] = [r * v for v in term["b"]]
        term["beta"] = [r * v for v in term["beta"]]
    doc["period"] /= r
    return 0


CLI_DEMOS = {"series_admissible": None, "series_inadmissible": None,
             "matrix": "matrix_y.csv", "integral": "integral_y.csv",
             "convolution": "convolution_y.csv"}


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demos")
    write_demo_files(d)
    return d


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CLI_DEMOS)), k=st.integers(-12, 12))
def test_cli_exit_code_and_output_survive_rescaling(demo_dir,
                                                    tmp_path_factory, name,
                                                    k):
    work = tmp_path_factory.mktemp("rescaled")
    doc = json.loads((demo_dir / f"{name}.json").read_text())

    def run(problem_doc, tag):
        problem = work / f"{tag}.json"
        problem.write_text(json.dumps(problem_doc))
        if CLI_DEMOS[name] is None:
            return main(["check", str(problem)]), None
        out = work / f"{tag}.csv"
        rc = main(["invert", str(problem),
                   "--input", str(demo_dir / CLI_DEMOS[name]),
                   "--output", str(out)])
        return rc, read_signal(out) if rc == 0 else None

    c = 10.0 ** k
    want_rc, want = run(doc, "base")
    power = _rescaled_demo(doc, c)
    got_rc, got = run(doc, "scaled")
    assert got_rc == want_rc == (2 if name == "series_inadmissible" else 0)
    if want is not None:
        assert _rel(got / c ** power, want) <= 1e-10
