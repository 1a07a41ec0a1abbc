import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_theorem_series
from resolvinv.errors import (
    ConstructionError,
    DegenerateSeriesError,
    EmptyInputError,
    InvalidInputError,
    PoleEvaluationError,
)
from resolvinv.geometry import (
    ImaginaryAxis,
    PointSpectrum,
    UnitCircle,
    convex_hull,
    hull_distance,
)
from resolvinv.rational import invert_to_plan
from resolvinv.series import (
    ResolventSeries,
    caratheodory_zero_series,
    check_admissible,
    evaluate,
    gamma_beta,
    secular_zeros,
)
from resolvinv.tolerance import EPS, magnitude

# pole parts are multiples of 1/GRID in [-1, 1], and an interior target has
# weights n / 8192 >= 0.01: every point is exact, so a target is inside the
# hull, and it stays exact and normal scaled by 2^j for |j| <= 900
GRID = 2 ** 20


@st.composite
def hull_targets(draw):
    """(poles, target, kind): a target inside the pole hull, outside it,
    or on a pole."""
    m = draw(st.integers(1, 64))
    part = st.integers(-GRID, GRID)
    poles = [complex(draw(part), draw(part)) / GRID for _ in range(m)]
    kind = draw(st.sampled_from(["interior", "outside", "pole"]))
    if kind == "interior":
        r = draw(st.lists(st.integers(1, 100), min_size=m, max_size=m))
        n = [82 + (8192 - 82 * m) * x // sum(r) for x in r]
        n[0] += 8192 - sum(n)
        target = sum(k * p for k, p in zip(n, poles)) / 8192
    elif kind == "outside":
        target = complex(max(p.real for p in poles)
                         + draw(st.integers(1, GRID)) / GRID,
                         draw(part) / GRID)
    else:
        target = draw(st.sampled_from(poles))
    return poles, target, kind


def _scaled(z, j):
    return complex(math.ldexp(z.real, j), math.ldexp(z.imag, j))


def _construction(poles, target):
    """The series, or whether the ConstructionError found a coincidence."""
    try:
        return caratheodory_zero_series(poles, target)
    except ConstructionError as exc:
        return "coincides" in str(exc)


class TestResolventSeries:
    def test_duplicate_poles_rejected(self):
        with pytest.raises(ValueError):
            ResolventSeries(((1, 2.0), (1, 2.0)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            ResolventSeries(())

    def test_theorem_mode(self):
        assert ResolventSeries(((1, 1j), (2, -1j))).is_theorem_mode()
        assert not ResolventSeries(((1j, 1j),)).is_theorem_mode()
        assert not ResolventSeries(((-1, 1j),)).is_theorem_mode()
        assert not ResolventSeries(((0, 1j), (0, 2j))).is_theorem_mode()

    @pytest.mark.parametrize("terms", [
        ((complex(1.0, float("nan")), 1), (1, 3)),
        ((1, float("nan")), (1, 3)),
        ((1, 1), (float("inf"), 3)),
        ((1, complex(1.0, float("-inf"))), (1, 3)),
    ], ids=["nan-coefficient", "nan-pole", "inf-coefficient", "inf-pole"])
    def test_non_finite_terms_rejected(self, terms):
        # before the check, a NaN imaginary part passed is_theorem_mode
        # and a NaN pole overflowed the zero solve
        with pytest.raises(InvalidInputError):
            ResolventSeries(terms)

    def test_arrays_are_read_only(self):
        s = ResolventSeries(((1, 2.0), (0.5, 3j)))
        for values in (s.coefficients, s.poles):
            assert values.dtype == complex and values.shape == (2,)
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_from_arrays_leaves_the_callers_arrays_writable(self):
        a, poles = np.ones(2), np.array([1.0, 2.0])
        s = ResolventSeries.from_arrays(a, poles)
        assert a.flags.writeable and poles.flags.writeable
        assert s == ResolventSeries(((1, 1.0), (1, 2.0)))

    def test_terms_round_trip(self):
        terms = ((1 + 0j, 2 + 0j), (0.5 + 0j, 3j))
        s = ResolventSeries(terms)
        assert s.terms == terms
        assert all(type(x) is complex for term in s.terms for x in term)
        assert ResolventSeries(s.terms) == s
        assert hash(ResolventSeries(s.terms)) == hash(s)

    def test_numpy_scalars_make_the_same_series(self):
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(0.1, 1.0, 6)
        poles = rng.uniform(0, 1, 6) + 1j * rng.uniform(0, 1, 6)
        from_numpy = ResolventSeries(tuple(zip(coeffs, poles)))
        assert from_numpy == ResolventSeries(
            tuple(zip(coeffs.tolist(), poles.tolist())))
        np.testing.assert_array_equal(from_numpy.poles, poles)
        np.testing.assert_array_equal(from_numpy.coefficients, coeffs)

    def test_pole_gap_is_relative_to_the_poles(self):
        # no floor of 1: poles 1e-13 apart are distinct at scale 1e-12
        ResolventSeries(((1, 1e-12), (1, 1.1e-12)))
        with pytest.raises(ValueError):
            ResolventSeries(((1, 1e12), (1, 1e12 + 0.5)))


class TestEvaluate:
    def test_single_term(self):
        s = ResolventSeries(((2, 5.0),))
        assert evaluate(s, 1.0) == pytest.approx(0.5)

    def test_symmetric_cancellation(self):
        s = ResolventSeries(((1, 1.0), (1, -1.0)))
        assert evaluate(s, 0.0) == pytest.approx(0.0)

    def test_hand_value(self):
        s = ResolventSeries(((1, 1.0), (1, -1.0)))
        # 1/(1-2i) + 1/(-1-2i) = (1+2i)/5 + (-1+2i)/5 = 4i/5
        expected = 1 / (1 - 2j) + 1 / (-1 - 2j)
        assert evaluate(s, 2j) == pytest.approx(expected)
        assert evaluate(s, 2j) == pytest.approx(0.8j)

    def test_pole_evaluation_raises(self):
        s = ResolventSeries(((1, 1.0),))
        with pytest.raises(PoleEvaluationError):
            evaluate(s, 1.0)

    def test_quotients_past_the_float_range(self):
        # 1e308 / 0.5 overflowed with opposite signs: -inf + inf in fsum
        s = ResolventSeries(((1e308, 0.5), (1e308, -0.5)))
        assert evaluate(s, 0) == 0j
        assert evaluate(s, 0.1) == pytest.approx(1e308 * (1 / 0.4 - 1 / 0.6))

    def test_pole_past_the_float_range_raises(self):
        # abs(z) of a complex past the float range raised OverflowError
        pole = 1.7e308 + 1.7e308j
        with pytest.raises(PoleEvaluationError):
            evaluate(ResolventSeries(((1, pole),)), pole)


class TestGammaBeta:
    def test_single_term(self):
        g, b = gamma_beta(ResolventSeries(((2, 5.0),)))
        assert g == pytest.approx(2.5)
        assert b == pytest.approx(-0.5)

    def test_two_terms(self):
        g, b = gamma_beta(ResolventSeries(((1, 1.0), (1, 3.0))))
        assert g == pytest.approx(1.0)
        assert b == pytest.approx(-0.5)

    def test_single_pole_any_alpha(self):
        alpha = 0.7 - 0.3j
        g, b = gamma_beta(ResolventSeries(((1, alpha),)))
        assert g == pytest.approx(alpha)
        assert b == pytest.approx(-1.0)

    def test_zero_sum_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            gamma_beta(ResolventSeries(((1, 1.0), (-1, 2.0))))

    def test_coefficient_sum_past_the_float_range(self):
        # s = 2^1024 is past the float range, gamma = 2^-1023 and
        # beta = -2^-1024 are not: taken in the coefficients' frame
        g, b = gamma_beta(ResolventSeries(((2.0 ** 1023, 1.0),
                                           (2.0 ** 1023, 3.0))))
        assert (g, b) == (2.0 ** -1023, -2.0 ** -1024)

    def test_poles_near_the_top_of_the_float_range(self):
        # the coefficients lie inside the frame's window and stay unscaled,
        # so a_j alpha_j = 4e308 overflows unless the poles are framed too
        g, b = gamma_beta(ResolventSeries(((4.0, 1e308), (4.0, 1.5e308))))
        want = (4 * Fraction(1e308) + 4 * Fraction(1.5e308)) / 64
        assert (g, b) == (complex(float(want)), -0.125)

    @pytest.mark.parametrize("e", [-1000, 990])
    def test_rescaled_poles_rescale_gamma(self, e):
        # gamma (about 2^31 at scale 1) scales with the poles by an exact
        # power of two, also at 2^-1000, where the product of the smallest
        # coefficient and its pole was a subnormal (kept to 43 bits) when
        # only the coefficients were framed
        def series(scale):
            return ResolventSeries(((1.0, scale), (-1.0, scale * (1 + 2**-30)),
                                    (2.0**-30, scale * math.pi)))
        g, b = gamma_beta(series(1.0))
        assert gamma_beta(series(2.0**e)) == (
            complex(math.ldexp(g.real, e), math.ldexp(g.imag, e)), b)

    def test_tiny_coefficients(self):
        # the squared coefficient sum 4e-400 underflows to 0
        g, b = gamma_beta(ResolventSeries(((1e-200, 3.0), (1e-200, 5.0))))
        assert g == pytest.approx(2e200)
        assert b == pytest.approx(-5e199)


def _remainder(series, z):
    """h(z) = 1/f(z) - gamma - beta*z, from the plan."""
    plan = invert_to_plan(series)
    return plan.evaluate_scalar(z) - plan.gamma - plan.beta * z


class TestRemainder:
    def test_single_term_vanishes(self):
        s = ResolventSeries(((1, 0.7 - 0.3j),))
        for z in (0.0, 2j, 5 - 1j):
            assert abs(_remainder(s, z)) < 1e-14

    def test_hand_value(self):
        s = ResolventSeries(((1, 1.0), (1, -1.0)))
        # 1/f(2i) - gamma - beta*2i = 1/(0.8i) + i = -0.25i
        # sanity: f * (gamma + beta*z + h) = 0.8i * (-1.25i) = 1
        assert _remainder(s, 2j) == pytest.approx(-0.25j)

    def test_strictly_proper_at_infinity(self):
        s = ResolventSeries(((1, 1.0), (1, 3.0)))
        assert abs(_remainder(s, 1e6)) < 1e-4


class TestAdmissibility:
    def test_segment_inside_disk(self):
        s = ResolventSeries(((1, 0.5j), (1, -0.5j)))
        rep = check_admissible(s, UnitCircle())
        assert rep.separation_ok
        assert rep.separation_distance == pytest.approx(0.5)
        assert rep.theorem_mode_ok

    def test_segment_crossing_circle(self):
        s = ResolventSeries(((1, 2.0), (1, -2.0)))
        rep = check_admissible(s, UnitCircle())
        assert not rep.separation_ok

    def test_summability_value(self):
        s = ResolventSeries(((1, 1 + 1j),))
        rep = check_admissible(s, ImaginaryAxis())
        assert rep.separation_distance == pytest.approx(1.0)
        assert rep.summability_value == pytest.approx(1.0)

    def test_pole_on_spectrum_gives_infinite_sum(self):
        s = ResolventSeries(((1, 1.0), (1, 5.0)))
        rep = check_admissible(s, PointSpectrum((1 + 0j,)))
        assert rep.summability_value == float("inf")
        assert not rep.separation_ok

    def test_margin(self):
        s = ResolventSeries(((1, 1.0), (1, 3.0)))
        rep = check_admissible(s, PointSpectrum((10 + 0j,)), margin=8.0)
        assert not rep.separation_ok
        assert rep.separation_distance == pytest.approx(7.0)


class TestZeros:
    def test_two_symmetric_poles(self):
        s = ResolventSeries(((1, 1.0), (1, -1.0)))
        assert invert_to_plan(s).zeros.tolist() == [pytest.approx(0j)]

    def test_single_term_no_zeros(self):
        assert invert_to_plan(ResolventSeries(((1, 0.3j),))).zeros.size == 0

    def test_zero_coefficient_pruned(self):
        s = ResolventSeries(((1, 1.0), (0, 5.0), (1, -1.0)))
        zs = invert_to_plan(s).zeros
        assert len(zs) == 1 and abs(zs[0]) < 1e-12

    def test_zeros_of_coefficients_near_the_float_limit(self):
        # a.sum() overflowed with a warning; the zeros do not depend on
        # the scale of the coefficients, so 2^1022 gives the bits of 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = secular_zeros([2.0 ** 1022] * 2, [1.0, 3.0])
            assert z.tolist() == secular_zeros([1.0, 1.0],
                                               [1.0, 3.0]).tolist()
            np.testing.assert_allclose(
                secular_zeros([1.7e308, 1.7e308], [1.0, 3.0]), [2.0],
                rtol=1e-15)

    def test_zeros_of_poles_near_the_float_limit(self):
        # the poles' mean and the block overflowed with a warning: the
        # block is formed again on the poles in their frame
        poles = [1.7e308, -1e308 + 1e308j]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = secular_zeros([1.0, 1.0], poles)
            assert z.size == 1 and np.isfinite(z).all()
            assert hull_distance(convex_hull(poles), z[0]) == 0.0
        assert z[0] == pytest.approx(0.35e308 + 0.5e308j, rel=1e-15)

    def test_zeros_in_hull_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = random_theorem_series(rng, 2, 8)
            hull = convex_hull(s.poles)
            for z in secular_zeros(s.coefficients, s.poles):
                assert hull_distance(hull, z) <= 1e-8 * magnitude(s.poles)


class TestCaratheodory:
    def test_triangle_interior(self):
        s = caratheodory_zero_series([1 + 0j, 1j, -1 - 1j], 0j)
        assert s.is_theorem_mode()
        assert abs(evaluate(s, 0j)) <= 1e-14 * sum(
            abs(a) for a in s.coefficients)

    def test_two_pole_segment(self):
        s = caratheodory_zero_series([-1 + 0j, 1 + 0j], 0j)
        assert len(s.terms) == 2
        assert sorted(a.real for a in s.coefficients) == [
            pytest.approx(0.5), pytest.approx(0.5)]
        assert abs(evaluate(s, 0j)) < 1e-14

    def test_outside_hull_rejected(self):
        with pytest.raises(ConstructionError):
            caratheodory_zero_series([1 + 0j, 2 + 0j], 5 + 0j)

    def test_target_on_pole_rejected(self):
        with pytest.raises(ConstructionError):
            caratheodory_zero_series([1 + 0j, 2 + 0j, 1j], 2 + 0j)

    def test_random_interior_targets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(3, 8))
            poles = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
            w = rng.uniform(0.1, 1.0, m)
            lam = complex(np.sum(w * poles) / np.sum(w))
            if min(abs(lam - p) for p in poles) < 1e-3:
                continue
            s = caratheodory_zero_series(list(poles), lam)
            total = sum(abs(a) for a in s.coefficients)
            assert abs(evaluate(s, lam)) <= 1e-13 * max(1.0, total)

    @settings(max_examples=200, deadline=None)
    @given(case=hull_targets(), j=st.integers(-900, 900))
    def test_hull_fan_property(self, case, j):
        # at most three input poles, f(target) = 0 to rounding, and the same
        # coefficients and decisions at every power-of-two scale; the float
        # triple search lost accuracy on sliver triangles and scaled a_nu by
        # 4^j
        poles, target, kind = case
        got = _construction(poles, target)
        coincides = min(abs(target - p) for p in poles) <= EPS * max(
            abs(z) for z in [*poles, target])
        if kind == "pole" or (kind == "interior" and coincides):
            assert got is True
        elif kind == "outside":
            assert got is False
        else:
            assert got.is_theorem_mode() and len(got.terms) <= 3
            assert set(got.poles) <= set(poles)
            assert max(abs(a) for a in got.coefficients) <= 1.0
            size = sum(abs(a / (al - target)) for a, al in got.terms)
            assert abs(evaluate(got, target)) <= 1e-13 * size
        scaled = _construction([_scaled(p, j) for p in poles],
                               _scaled(target, j))
        if isinstance(got, ResolventSeries):
            assert scaled.coefficients.tolist() == got.coefficients.tolist()
            assert scaled.poles.tolist() == [_scaled(p, j)
                                             for p in got.poles.tolist()]
        else:
            assert scaled is got


class TestProperties:
    def test_reciprocal_identity_off_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_theorem_series(rng, 2, 6)
            plan = invert_to_plan(s)
            hull = convex_hull(s.poles)
            count = 0
            trials = 0
            while count < 100 and trials < 2000:
                trials += 1
                z = complex(rng.uniform(-4, 5), rng.uniform(-4, 5))
                if hull_distance(hull, z) < 0.3:
                    continue
                count += 1
                assert abs(evaluate(s, z) * plan.evaluate_scalar(z)
                           - 1.0) <= 1e-10

    def test_asymptotic_limits(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_theorem_series(rng, 2, 8)
            g, b = gamma_beta(s)
            z = 1e6 * magnitude(s.poles) * cmath.exp(0.3j)
            f = evaluate(s, z)
            assert abs(1.0 / (z * f) - b) <= 1e-4
            assert abs(1.0 / f - b * z - g) <= 1e-3

    def test_pruning_invariance(self):
        s = ResolventSeries(((1, 1.0), (2, 3.0)))
        s2 = ResolventSeries(((1, 1.0), (2, 3.0), (0, 10.0)))
        for z in (0j, 2j, -5 + 1j):
            assert abs(evaluate(s, z) - evaluate(s2, z)) <= 1e-14
        g1, b1 = gamma_beta(s)
        g2, b2 = gamma_beta(s2)
        assert abs(g1 - g2) <= 1e-14 and abs(b1 - b2) <= 1e-14
        z1 = invert_to_plan(s).zeros
        z2 = invert_to_plan(s2).zeros
        assert len(z1) == len(z2)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(z1, z2))
