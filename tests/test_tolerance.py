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
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resolvinv import geometry, tolerance
from resolvinv.cli import main
from resolvinv.demos import write_demo_files
from resolvinv.errors import (
    ConditioningError,
    RepeatedPoleError,
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
    PeriodicShiftOperator,
    apply_plan,
    apply_series,
    convolution_series,
    forward_even_convolution,
    solve_convolution,
    solve_even_convolution,
    solve_exponential_volterra,
)
from resolvinv.rational import _fit_sample_points, invert_to_plan
from resolvinv.serialization import read_signal
from resolvinv.series import ResolventSeries, check_admissible, evaluate

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

        def unrounded(z):
            return geometry._distances(hull.vertices, np.array([z]))[0]

        assert unrounded(2e-13 + 2e-13j) == 0.0
        assert unrounded(-1e-30 + 2e-13j) > 0.0


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

    def test_thresholds_of_poles_past_the_float_range(self):
        # EPS * max|pole| is finite although max|pole| is not: it was an
        # OverflowError from abs of a Python complex
        poles = (1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j)
        assert tolerance.magnitude(poles, tolerance.EPS) == pytest.approx(
            tolerance.EPS * math.sqrt(2) * 1.7e308, rel=1e-15)
        assert tolerance.magnitude(np.array(poles)) == math.inf
        series = ResolventSeries(tuple((1.0, p) for p in poles))
        report = check_admissible(series, PointSpectrum([10.0]))
        # the horizontal hull is 1.7e308 from 10, and each pole farther
        # than the float range: finite distances stay finite, and no
        # distance is rounded to 0
        assert report.separation_ok
        assert report.separation_distance == 1.7e308
        assert [t.spectrum_distance for t in report.per_term] == [math.inf] * 2
        assert report.summability_value == 0.0
        assert report.rejection() is None

    def test_sums_past_the_float_range(self):
        # math.fsum raised "intermediate overflow in fsum" on each
        big = 1.7e308
        assert tolerance.fsum([big, big]) == math.inf
        assert tolerance.fsum([-big, -big]) == -math.inf
        assert tolerance.fsum([big, big, -big]) == big
        assert tolerance.fsum([big, 1.0, -big]) == 1.0
        assert tolerance.fsum([0.1] * 10) == math.fsum([0.1] * 10)

    def test_coefficients_past_the_float_range_in_the_gate(self):
        # the coefficient sum 3.4e308 is past the float range, and so is
        # |a| of the complex coefficient: OverflowError from fsum and abs
        spectrum = PointSpectrum([10.0])
        real = ResolventSeries(((1.7e308, 1.0), (1.7e308, 3.0)))
        report = check_admissible(real, spectrum)
        assert report.theorem_mode_ok and report.rejection() is None
        assert report.summability_value == pytest.approx(
            1.7e308 / 9 + 1.7e308 / 7, rel=1e-15)
        complex_a = ResolventSeries(((1.7e308 + 1.7e308j, 1.0),))
        report = check_admissible(complex_a, spectrum)
        assert report.per_term[0].summand == math.inf
        assert not report.theorem_mode_ok

    def test_summability_past_the_float_range_rejects_nothing(self):
        # both summands 1.5e308: an inf sum, read as a pole on the
        # spectrum; the gate decides per term
        series = ResolventSeries(((1.5e308, 2.0), (1.5e308, 3.0)))
        report = check_admissible(series, PointSpectrum([1.0, 4.0]))
        assert report.summability_value == math.inf
        assert report.rejection() is None
        on = check_admissible(series, PointSpectrum([1.0, 3.0]))
        assert on.per_term[1].spectrum_distance == 0.0
        assert on.rejection() is not None

    def test_point_distances_past_the_float_range(self):
        # the per-pole loop formed p - points unscaled and warned
        poles = np.array([1 + 1j, -1 - 1j, 1 - 1j]) * 1e308
        spectrum = PointSpectrum([-1e308 + 1e308j])
        assert spectrum.distance_to(poles).tolist() == [math.inf] * 3
        near = PointSpectrum([-1e308 + 1e308j, 0.5e308 + 0.5e308j])
        np.testing.assert_allclose(near.distance_to(poles),
                                   [math.sqrt(0.5) * 1e308, math.inf,
                                    math.sqrt(2.5) * 1e308], rtol=1e-15)

    def test_point_distances_in_range_are_the_direct_ones(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        for scale in (1e-300, 1.0, 1e300):
            want = [abs(p - scale * points).min() for p in scale * z]
            got = PointSpectrum(scale * points).distance_to(scale * z)
            np.testing.assert_array_equal(got, want)
            assert PointSpectrum(scale * points).distance_to(
                scale * z[0]) == want[0]


# subnormal, signed zero, the smallest normal and the ends of the range
_LDEXP_EDGES = [5e-324, -5e-324, 1e-310, -0.0, 0.0, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, 1.0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ldexp_is_math_ldexp_part_by_part(data):
    # the one way back from a frame: every part of a float or complex
    # scalar or array, k an int or (for arrays) broadcast per row, as
    # math.ldexp, inf with its sign past the float range, no warning
    # (as an error here, not by a mark, which would also turn the
    # warnings of hypothesis's own failure report into errors)
    part = st.one_of(st.sampled_from(_LDEXP_EDGES),
                     st.floats(allow_nan=False, allow_infinity=False))
    exponent = st.integers(-2200, 2200)
    n = data.draw(st.integers(1, 5))
    parts = data.draw(st.lists(part, min_size=2 * n, max_size=2 * n))
    ks = data.draw(st.lists(exponent, min_size=n, max_size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = ks[0]
        got = tolerance.ldexp(parts[0], k)
        assert type(got) is float
        assert _bits(got) == _bits(_ldexp_part(parts[0], k))
        got = tolerance.ldexp(complex(parts[0], parts[1]), k)
        assert type(got) is complex
        assert _bits(got) == _bits(complex(_ldexp_part(parts[0], k),
                                           _ldexp_part(parts[1], k)))
        z = np.array(parts).view(complex)
        for x in (z, z.real.copy()):
            for kk in (k, np.array(ks)):
                want = [[_ldexp_part(p, int(e)) for p in (v.real, v.imag)]
                        for v, e in zip(x.astype(complex),
                                        np.broadcast_to(kk, n))]
                want = np.array(want).view(complex)[:, 0]
                assert _bits(tolerance.ldexp(x, kk)) == _bits(
                    want if x.dtype == complex else want.real)
        # a row per point, as geometry scales its distances back
        rows = np.repeat(z[:, None], 3, axis=1)
        assert _bits(tolerance.ldexp(rows, np.array(ks)[:, None])) == _bits(
            np.repeat(tolerance.ldexp(z, np.array(ks))[:, None], 3, axis=1))


def test_ldexp_by_zero_returns_a_new_float_array():
    # k = 0 (inside the window) skips the scaling, not the copy: the
    # caller may write into what comes back
    for x in (np.arange(3), np.array([1.5, -0.0]), np.array([1 + 2j])):
        got = tolerance.ldexp(x, 0)
        assert got is not x and not np.shares_memory(got, x)
        assert got.dtype == np.result_type(x, 1.0)
        assert _bits(got) == _bits(x.astype(got.dtype))


def _ldexp_part(x: float, k: int) -> float:
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _bits(x) -> bytes:
    """The bytes of x as complex or float numpy data: equal bits, with the
    sign of a zero and of an inf."""
    return np.asarray(x).tobytes()


# --- the frame's window ------------------------------------------------------


def _flat_bits(x):
    """x as nested tuples of bytes: a dataclass by its fields, a sequence
    item by item, numbers and arrays by :func:`_bits`."""
    if hasattr(x, "__dataclass_fields__"):
        return tuple(_flat_bits(getattr(x, f)) for f in x.__dataclass_fields__)
    if isinstance(x, (tuple, list)):
        return tuple(_flat_bits(v) for v in x)
    return x if isinstance(x, bool) else _bits(x)


def _window_outcomes(a, poles, eig, y):
    """The bits of the gate against four spectra, the plan, and the plan
    and the series applied on a dense matrix (batched and LU paths), a
    multiplier, the shift, the grid and the convolution solve; for an
    error its type, message and residual."""
    def record(fn):
        try:
            return _flat_bits(fn())
        except ResolvinvError as exc:
            return (type(exc).__name__, str(exc),
                    _bits(getattr(exc, "residual", None) or 0.0))

    series = ResolventSeries.from_arrays(a, poles)
    out = [record(lambda: check_admissible(series, s)) for s in (
        PointSpectrum(eig), geometry.UnitCircle(), PositiveHalfLine(),
        geometry.ImaginaryAxis())]
    out.append(record(lambda: invert_to_plan(series)))
    scale = float(np.abs(poles).max())
    backends = [DenseMatrixOperator(np.diag(eig[:6])),
                DenseMatrixOperator(np.diag(eig)), MultiplierOperator(eig),
                PeriodicShiftOperator(eig.size),
                GridDerivativeOperator(0.0, 10.0 / scale, eig.size)]
    for A in backends:
        v = y[:A.dim]
        out.append(record(lambda: apply_series(series, A, v)))
        out.append(record(lambda: apply_plan(invert_to_plan(series), A, v)))
    out.append(record(lambda: solve_convolution(
        invert_to_plan(series), y, 8.0 / math.sqrt(scale))))
    return out


@st.composite
def window_problems(draw):
    """1 to 8 terms with poles in the right half plane (random, on a line
    or on a circle), one coefficient zero at times, 20 eigenvalues around
    and outside the poles, and a signal; the poles, coefficients and
    spectrum scaled by 2^j for |j| <= 60, inside the window."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "line", "circle"]))
    if kind == "random":
        poles = rng.uniform(0.5, 2, m) + 1j * rng.uniform(-1, 1, m)
    elif kind == "line":
        poles = np.arange(1.0, m + 1) + 0.25j
    else:
        poles = 2.0 + np.exp(2j * np.pi * np.arange(m) / m)
    a = rng.uniform(0.05, 1.0, m)
    if m > 1 and draw(st.booleans()):
        a[rng.integers(m)] = 0.0
    center = poles.mean()
    eig = center + (1.0 + abs(poles - center).max()) * rng.uniform(
        0.2, 2.0, 20) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    sp, sa = (draw(st.integers(-60, 60)) for _ in range(2))
    y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    return (np.ldexp(a, sa), np.ldexp(poles.real, sp) + 1j * np.ldexp(
        poles.imag, sp), np.ldexp(eig.real, sp) + 1j * np.ldexp(eig.imag, sp),
        y)


@given(window_problems())
@settings(max_examples=150, deadline=None)
def test_window_changes_no_bit(problem):
    # inside the window a frame is the identity (k = 0); with the window
    # closed every array is framed, as before it: the same bits everywhere
    want = _window_outcomes(*problem)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tolerance, "_WINDOW", -1)
        assert _window_outcomes(*problem) == want


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
    # equal weights on the cube roots of unity give f a double zero at 0,
    # a double pole of 1/f that no plan represents: its computed halves
    # sit about 1.5e-8 * c apart, and the plan they give fails the identity
    # check on the circle around the poles, which scales with them
    c = 10.0 ** k
    s = ResolventSeries(tuple((1.0, c * np.exp(2j * np.pi * j / 3))
                              for j in range(3)))
    with pytest.raises(ConditioningError, match="identity check"):
        invert_to_plan(s)


@pytest.mark.parametrize("k", EXPONENTS)
def test_translated_double_zero_rejected_at_every_scale(k):
    # the same double zero on turned triangles centred 3.5 radii out: the
    # halves' residues, about 1e7 times the others, cancel exactly for
    # about 1 in 100 of these and then meet the bar, which their rounding
    # term in the identity check's residual keeps them from
    for turn in np.random.default_rng(0).uniform(0.0, 1.0, 300):
        poles = 3.5 + np.exp(2j * np.pi * np.arange(3) / 3 + 1j * turn)
        s = ResolventSeries(tuple(zip(np.ones(3), 10.0 ** k * poles)))
        with pytest.raises(ConditioningError, match="identity check"):
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


# --- translation property ---------------------------------------------------


def _plan_decision(series):
    """The plan's decision, "ok" or the error class, and its identity
    residual max |f h - 1| on the plan's own sample circle."""
    try:
        plan = invert_to_plan(series)
    except ResolvinvError as exc:
        return type(exc), getattr(exc, "residual", None)
    pts = _fit_sample_points(np.concatenate([series.poles, plan.zeros]))
    return "ok", max(abs(evaluate(series, z) * complex(plan.evaluate_scalar(z))
                         - 1.0) for z in pts)


@st.composite
def translated_series(draw):
    """2 to 16 weights in [0.05, 1] on random complex, real or collinear
    poles at least 1e-6 apart, or weights 1 + eps cos(1.7 j) on a regular
    polygon (a cluster of m - 1 zeros at its centre); the poles' spread
    is 10^-6 to 10^2, and the shift 10^-1 to 10^5 spreads in any
    direction, or to 10^2 for a polygon.  The 1e-6 gap keeps the series'
    own pole rule, two poles within EPS max|alpha| are one, out of a test
    of the plan's decision.  A plan holds its zeros where the poles are,
    so t spreads off the origin round them by t eps of the spread; the
    huge residues of a tight cluster carry that to the identity residual,
    up to about 0.3 t times its value at the origin (9e-11 became 2.7e-6
    at 5.4e4 spreads), and at 10^2 spreads it stays in the 100x margin
    of the test below."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(["complex", "real", "collinear", "polygon"]))
    a = rng.uniform(0.05, 1.0, m)
    if kind == "polygon":
        poles = np.exp(2j * np.pi * np.arange(m) / m)
        a = 1.0 + 10.0 ** rng.uniform(-16, -1) * np.cos(1.7 * np.arange(m))
    else:
        poles = np.zeros(1)
        while tolerance.min_gap(poles) <= 1e-6:
            poles = rng.uniform(-1.0, 1.0, m) + 0j
            if kind == "complex":
                poles += 1j * rng.uniform(-1.0, 1.0, m)
            elif kind == "collinear":
                poles *= cmath.exp(1j * rng.uniform(0.0, math.pi))
    spread = 10.0 ** draw(st.floats(-6.0, 2.0))
    reach = 2.0 if kind == "polygon" else 5.0
    shift = 10.0 ** draw(st.floats(-1.0, reach)) * spread * cmath.exp(
        1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return kind, a, spread * poles, shift


@settings(max_examples=150, deadline=None)
@given(problem=translated_series())
def test_translation_keeps_the_plan_decision(problem):
    """Poles moved by up to 1e5 spreads (1e2 for a polygon): the plan is
    accepted, or refused with the same error class, as at the origin.
    Moving them rounds their offsets by up to 1e5 eps of the spread,
    which moves the identity residual, so a problem whose residual at the
    origin lies within 100 times of the 1e-8 bar, in [1e-10, 1e-6], is
    left out."""
    kind, a, poles, shift = problem
    want, residual = _plan_decision(ResolventSeries(tuple(zip(a, poles))))
    assume(residual is None or not 1e-10 <= residual <= 1e-6)
    got, _ = _plan_decision(ResolventSeries(tuple(zip(a, poles + shift))))
    assert got == want, (kind, residual)


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
