import cmath

import numpy as np
import pytest

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

    def test_pruned(self):
        s = ResolventSeries(((1, 1.0), (0, 2.0)))
        assert s.pruned().terms == ((1 + 0j, 1 + 0j),)

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

    def test_pole_gap_is_relative_to_the_poles(self):
        # no floor of 1: poles 1e-13 apart are distinct at scale 1e-12
        s = ResolventSeries(((1, 1e-12), (1, 1.1e-12)))
        assert s.scale == pytest.approx(1.1e-12)
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

    def test_zeros_in_hull_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = random_theorem_series(rng, 2, 8)
            hull = convex_hull(s.poles)
            for z in secular_zeros(s.coefficients, s.poles):
                assert hull_distance(hull, z) <= 1e-8 * s.scale


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
            z = 1e6 * s.scale * cmath.exp(0.3j)
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
