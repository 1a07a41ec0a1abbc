import logging
import warnings

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assemble_plan,
    assemble_series,
    matrix_with_eigenvalues,
    random_theorem_series,
)
from resolvinv.errors import (
    ConditioningError,
    HypothesisError,
    MalformedSpecError,
    RepeatedRootError,
    SeparationError,
)
from resolvinv.geometry import PointSpectrum, UnitCircle
from resolvinv.operators import MultiplierOperator, apply_plan, apply_series
from resolvinv.series import (
    ResolventSeries,
    check_admissible,
    evaluate,
    gamma_beta,
    numerator_coefficients,
)
from resolvinv.rational import (
    FilterSpec,
    _fit_sample_points,
    checked_plan,
    derived_series,
    filter_to_series,
    invert_to_plan,
    partial_fractions,
    poly_roots,
)


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots([-1.0, 0.0, 1.0])
        assert roots.tolist() == [pytest.approx(-1 + 0j), pytest.approx(1 + 0j)]

    def test_double_root(self):
        with pytest.raises(RepeatedRootError):
            poly_roots([4.0, -4.0, 1.0])

    def test_cube_roots_of_unity_vs_companion_oracle(self):
        # oracle: eigenvalues of the hand-built companion matrix of z^3 - 1
        companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        expected = sorted(np.linalg.eigvals(companion),
                          key=lambda w: (w.real, w.imag))
        roots = poly_roots([-1.0, 0.0, 0.0, 1.0])
        assert roots.tolist() == pytest.approx(expected, abs=1e-10)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([0.0])

    def test_root_coefficient_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            deg = int(rng.integers(1, 13))
            true_roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
            p = npp.polyfromroots(true_roots)
            rebuilt = npp.polyfromroots(poly_roots(p))
            err = np.max(np.abs(rebuilt - p))
            assert err <= 1e-9 * max(1.0, np.max(np.abs(p)))


def _denominator(series) -> np.ndarray:
    """Ascending coefficients of prod_j (alpha_j - z)."""
    return npp.polyfromroots(series.poles) * (-1) ** len(series.terms)


class TestSeriesToRational:
    """f = num/den, num from numerator_coefficients, den = prod (alpha_j - z)."""

    def test_hand_expansion(self):
        s = ResolventSeries(((1, 1.0), (1, -1.0)))
        assert numerator_coefficients(s).tolist() == pytest.approx([0j, -2])
        # (1-z)(-1-z) = z^2 - 1
        assert _denominator(s).tolist() == pytest.approx([-1, 0j, 1])

    def test_single_term(self):
        alpha, a = 0.3 - 1j, 2.5
        s = ResolventSeries(((a, alpha),))
        assert numerator_coefficients(s).tolist() == pytest.approx([a])
        assert _denominator(s).tolist() == pytest.approx([alpha, -1])

    def test_pointwise_agreement(self):
        rng = np.random.default_rng(23)
        s = random_theorem_series(rng, 4, 4)
        num, den = numerator_coefficients(s), _denominator(s)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(2, 5))
            ref = evaluate(s, z)
            got = npp.polyval(z, num) / npp.polyval(z, den)
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


class TestPartialFractions:
    def test_two_simple_poles(self):
        # 2z / ((z-1)(z+1)) = 1/(z+1) + 1/(z-1)
        num, den = [0.0, 2.0], [-1.0, 0.0, 1.0]
        poles, residues = partial_fractions(num, den)
        assert poles.tolist() == [pytest.approx(-1 + 0j), pytest.approx(1 + 0j)]
        # oracle: the limit of (z - pole) num(z)/den(z) at the pole
        for pole, residue in zip(poles, residues):
            z = pole + 1e-7
            limit = (z - pole) * npp.polyval(z, num) / npp.polyval(z, den)
            assert residue == pytest.approx(limit, abs=1e-6)
            assert residue == pytest.approx(1 + 0j, abs=1e-10)

    def test_constant_denominator_has_no_poles(self):
        poles, residues = partial_fractions([1.0], [5.0])
        assert poles.dtype == residues.dtype == complex
        assert poles.size == residues.size == 0

    def test_single_pole(self):
        # 1/(alpha - z) = -1/(z - alpha)
        alpha = 1.5 + 0.5j
        poles, residues = partial_fractions([1.0], [alpha, -1.0])
        assert poles.tolist() == [pytest.approx(alpha)]
        assert residues.tolist() == [pytest.approx(-1 + 0j)]

    def test_double_pole(self):
        alpha = 0.5 - 1j
        den = npp.polyfromroots([alpha, alpha])
        with pytest.raises(RepeatedRootError):
            partial_fractions([1.0], den)

    def test_affine_part(self):
        # (z^2 + 1) / z = z + 1/z: the residue at 0 beside the affine part
        num, den = [1.0, 0.0, 1.0], [0.0, 1.0]
        poles, residues = partial_fractions(num, den)
        assert poles.tolist() == [pytest.approx(0j)]
        assert residues.tolist() == [pytest.approx(1 + 0j)]
        for z in (2.0, 1j, -3 + 1j):
            rest = npp.polyval(z, num) / npp.polyval(z, den) - residues[0] / z
            assert rest == pytest.approx(z)

    def test_reconstruction_random_proper(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            deg = int(rng.integers(2, 9))
            while True:
                poles = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
                if all(abs(poles[i] - poles[j]) > 0.2
                       for i in range(deg) for j in range(i + 1, deg)):
                    break
            den = npp.polyfromroots(poles)
            num = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
            found, residues = partial_fractions(num, den)
            for _ in range(100):
                z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                if min(abs(z - p) for p in poles) < 0.3:
                    continue
                ref = npp.polyval(z, num) / npp.polyval(z, den)
                got = np.sum(residues / (z - found))
                assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))


class TestInvertToPlan:
    def test_single_term_plan(self):
        alpha = 1.2
        plan = invert_to_plan(ResolventSeries(((1, alpha),)))
        assert plan.gamma == pytest.approx(alpha)
        assert plan.beta == pytest.approx(-1.0)
        assert plan.zeros.shape == plan.residues.shape == (0,)

    def test_two_pole_residue_oracle(self):
        s = ResolventSeries(((1, 1.0), (1, 3.0)))
        plan = invert_to_plan(s)
        assert plan.gamma == pytest.approx(1.0)
        assert plan.beta == pytest.approx(-0.5)
        assert plan.zeros.tolist() == [pytest.approx(2 + 0j)]
        # oracle: numerical residue of h at the pole, in (pole - z) form:
        # c11 = lim_{z->2} (2 - z) h(z)
        eps = 1e-7
        gamma, beta = gamma_beta(s)
        z = 2 + eps
        approx = (2 - z) * (1.0 / evaluate(s, z) - gamma - beta * z)
        c11 = plan.residues[0]
        assert c11 == pytest.approx(approx, abs=1e-6)
        assert c11 == pytest.approx(-0.5)

    def test_symmetric_two_pole_hand_division(self):
        # 1/f = (z^2-1)/(-2z) = -z/2 + 1/(2z) = -z/2 - (1/2)/(0 - z)
        s = ResolventSeries(((1, 1.0), (1, -1.0)))
        plan = invert_to_plan(s)
        assert plan.gamma == pytest.approx(0.0)
        assert plan.beta == pytest.approx(-0.5)
        assert plan.zeros.tolist() == [pytest.approx(0j, abs=1e-12)]
        assert plan.residues[0] == pytest.approx(-0.5)

    def test_non_theorem_mode_rejected(self):
        with pytest.raises(HypothesisError):
            invert_to_plan(ResolventSeries(((1j, 1.0),)))
        with pytest.raises(HypothesisError):
            invert_to_plan(ResolventSeries(((-1, 1.0), (2, 2.0))))

    def test_polynomial_identity(self):
        # dense oracle: plan(A) f(A) = I, both assembled with np.linalg.inv
        rng = np.random.default_rng(37)
        for _ in range(10):
            s = random_theorem_series(rng, 2, 6)
            plan = invert_to_plan(s)
            n = 8
            eigs = 0.5 + 0.5j + rng.uniform(1.5, 3.0, n) * np.exp(
                2j * np.pi * rng.uniform(0, 1, n))
            a_matrix = matrix_with_eigenvalues(rng, eigs)
            f_a = assemble_series(s, a_matrix)
            defect = np.linalg.norm(assemble_plan(plan, a_matrix) @ f_a
                                    - np.eye(n))
            assert defect <= 1e-9 * np.linalg.cond(f_a)


def _identity_residual(series, plan):
    """max |f(z) (gamma + beta z + h(z)) - 1|, term by term, at the points
    on which invert_to_plan checks the plan itself."""
    pts = _fit_sample_points(list(series.poles) + list(plan.zeros))
    return max(abs(evaluate(series, z) * complex(plan.evaluate_scalar(z))
                   - 1.0) for z in pts)


class TestInvertToPlanScaling:
    @pytest.mark.parametrize("family", ["random", "equispaced"])
    @pytest.mark.parametrize("m", [16, 24, 32, 64, 128])
    def test_m_sweep_oracle(self, m, family):
        rng = np.random.default_rng(200 + m)
        if family == "random":
            poles = rng.uniform(0, 1, m) + 1j * rng.uniform(0, 1, m)
        else:
            poles = np.arange(1, m + 1, dtype=complex)
        series = ResolventSeries(tuple(zip(rng.uniform(0.1, 1.0, m), poles)))
        plan = invert_to_plan(series)
        assert plan.zeros.shape == plan.residues.shape == (m - 1,)
        assert _identity_residual(series, plan) <= 1e-8
        # dense oracle, same bound as test_left_inverse_oracle_equivalence
        n = 12
        center = poles.mean()
        radius = np.max(np.abs(poles - center))
        eigs = center + (radius + rng.uniform(1.5, 3.0, n)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, n))
        a_matrix = matrix_with_eigenvalues(rng, eigs)
        f_a = assemble_series(series, a_matrix)
        defect = np.linalg.norm(assemble_plan(plan, a_matrix) @ f_a
                                - np.eye(n))
        assert defect <= 1e-9 * np.linalg.cond(f_a)

    def test_residues_match_closed_form(self):
        rng = np.random.default_rng(43)
        s = random_theorem_series(rng, 6, 6)
        plan = invert_to_plan(s)
        for zk, ck in zip(plan.zeros, plan.residues):
            fprime = sum(a / (al - zk) ** 2 for a, al in s.terms)
            assert ck == pytest.approx(-1.0 / fprime, rel=1e-12)

    def test_exact_double_zero_rejected(self):
        # equal weights on the cube roots of unity: f = 3z^2 / (1 - z^3),
        # whose double zero the plan's simple poles cannot represent
        s = ResolventSeries(tuple((1.0, np.exp(2j * np.pi * k / 3))
                                  for k in range(3)))
        with pytest.raises(ConditioningError, match="identity check") as info:
            invert_to_plan(s)
        assert info.value.residual > 1e-8

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(3, 8),
           log_eps=st.floats(-16.0, -1.0),
           radius=st.floats(1e-2, 1e2),
           theta=st.floats(0.0, 2 * np.pi),
           offset=st.floats(0.0, 1e4),
           phi=st.floats(0.0, 2 * np.pi))
    def test_near_confluent_plan_or_typed_error(self, k, log_eps, radius,
                                                theta, offset, phi):
        # equal weights on a regular k-gon give f a zero of order k - 1 at
        # its centre; perturbed weights split it into a tight cluster.  The
        # centre lies up to 1e4 radii from 1.  An accepted plan is checked
        # against f itself on circles of 1.5 and 3 radii about the centre,
        # not on the library's own sample points: |f h - 1| <= 1e-7 there
        # (2.2e-8 at worst over 6000 random polygons of this family)
        eps = 10.0 ** log_eps
        center = 1.0 + offset * radius * np.exp(1j * phi)
        poles = center + radius * np.exp(1j * (theta + 2 * np.pi
                                                * np.arange(k) / k))
        coeffs = 1.0 + eps * np.cos(1.7 * np.arange(k))
        s = ResolventSeries(tuple(zip(coeffs, poles)))
        try:
            plan = invert_to_plan(s)
        except ConditioningError:
            return
        assert plan.zeros.shape == plan.residues.shape == (k - 1,)
        ring = np.exp(2j * np.pi * (np.arange(40) + 0.5) / 40)
        for r in (1.5, 3.0):
            for z in center + r * radius * ring:
                got = evaluate(s, z) * complex(plan.evaluate_scalar(z))
                assert abs(got - 1.0) <= 1e-7

    def test_real_pole_cluster_accepted(self):
        # 16 real poles in [2, 2 + 1e-4]: f' > 0 between neighbours, so its
        # 15 zeros are simple, one per gap, however tight the gaps are
        rng = np.random.default_rng(18)
        for _ in range(200):
            poles = 2.0 + 1e-4 * rng.uniform(0.0, 1.0, 16)
            s = ResolventSeries(tuple(zip(rng.uniform(0.1, 1.0, 16), poles)))
            A = MultiplierOperator(rng.uniform(5.0, 6.0, 32))
            x = rng.standard_normal(32)
            back = apply_plan(invert_to_plan(s), A, apply_series(s, A, x))
            assert np.linalg.norm(back - x) <= 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("center", [0.0, 100.0])
    def test_translated_complex_cluster_accepted(self, center):
        # 8 complex poles in a 1e-4 square and a spectrum 2.5e-4 to 4e-4
        # from its centre, the same problems at the origin and at 100: the
        # solves at 100 lose what translating by 1e6 spreads costs
        # (9.2e-11 at worst), and stay within 1e-9
        rng = np.random.default_rng(20)
        for _ in range(100):
            poles = center + 1e-4 * (rng.uniform(-0.5, 0.5, 8)
                                     + 1j * rng.uniform(-0.5, 0.5, 8))
            s = ResolventSeries(tuple(zip(rng.uniform(0.1, 1.0, 8), poles)))
            eig = 1e-4 * rng.uniform(2.5, 4.0, 12)
            eig = center + eig * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
            A = MultiplierOperator(eig)
            x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            back = apply_plan(invert_to_plan(s), A, apply_series(s, A, x))
            assert np.linalg.norm(back - x) <= 1e-9 * np.linalg.norm(x)


class TestFilterSpec:
    def test_validation(self):
        with pytest.raises(MalformedSpecError):
            FilterSpec((1.0,), ())
        with pytest.raises(MalformedSpecError):
            FilterSpec((1.0, 0.0), (1.0,))
        with pytest.raises(MalformedSpecError):
            FilterSpec((1.0, 1.0), (1.0, 2.0))

    def test_polynomials(self):
        spec = FilterSpec((-2.0, 3.0, -1.0), (1.0, 1.0))
        assert spec.c == (-2 + 0j, 3 + 0j, -1 + 0j)
        assert spec.b == (1 + 0j, 1 + 0j)
        assert spec.order == 2


class TestFilterToSeries:
    def test_first_order_hand_limit(self):
        c0, c1, b1 = -0.5, 1.0, 1.0
        series = filter_to_series(FilterSpec((c0, c1), (b1,)))
        assert series.poles.tolist() == [pytest.approx(-c0 / c1)]
        assert series.coefficients.tolist() == [pytest.approx(b1 / c1)]
        assert series.is_theorem_mode()

    def test_second_order_residue_oracle(self):
        spec = FilterSpec((-2.0, 3.0, -1.0), (1.0, 1.0))
        series = filter_to_series(spec)
        poles = sorted(series.poles, key=lambda z: z.real)
        assert poles == [pytest.approx(1 + 0j), pytest.approx(2 + 0j)]
        # oracle: numerical residues of q / (z p) at z_j, q(z) = z b(z)

        def residue(zj):
            z = zj + 1e-7
            return (npp.polyval(z, spec.b) / npp.polyval(z, spec.c)
                    * (z - zj))

        for a, zj in series.terms:
            assert a == pytest.approx(residue(zj), abs=1e-5)
        assert not series.is_theorem_mode()  # a_2 = -3 here

    def test_repeated_root_rejected(self):
        # p = (z-2)^2 = 4 - 4z + z^2
        with pytest.raises(RepeatedRootError):
            filter_to_series(FilterSpec((4.0, -4.0, 1.0), (1.0, 0.0)))

    def test_transfer_consistency(self):
        # q(z)/p(z) = -z f(z) at random points off the poles
        rng = np.random.default_rng(41)
        spec = FilterSpec((-2.0, 3.0, -1.0), (1.0, 1.0))
        series = filter_to_series(spec)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if min(abs(z - zj) for zj in series.poles) < 0.3:
                continue
            lhs = z * npp.polyval(z, spec.b) / npp.polyval(z, spec.c)
            rhs = -z * evaluate(series, z)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


class TestDerivedSeries:
    def test_rounding_residue_dropped_in_theorem_mode(self):
        series = derived_series([1.0 + 1e-12j, 2.0 - 1e-12j], [1.0, 3.0])
        assert series.terms == ((1.0, 1.0), (2.0, 3.0))

    @pytest.mark.parametrize("a", [[1.0 + 1e-6j, 2.0], [-1.0, 2.0]])
    def test_kept_as_computed_for_the_gate(self, a):
        series = derived_series(a, [1.0, 3.0])
        assert series.coefficients.tolist() == [complex(x) for x in a]
        report = check_admissible(series, PointSpectrum([10.0]))
        assert not report.theorem_mode_ok
        assert isinstance(report.rejection(), HypothesisError)

    @pytest.mark.parametrize("a, poles", [
        ([np.inf, 1.0], [1.0, 3.0]),
        ([1.0, 1.0], [1.0, complex(np.nan, 0.0)]),
    ])
    def test_values_past_the_float_range(self, a, poles):
        with pytest.raises(ConditioningError, match="float range"):
            derived_series(a, poles)


class TestCheckedPlan:
    SERIES = ResolventSeries(((1.0, 2.0), (0.5, 3.0 + 1j), (2.0, 4.0)))

    def test_is_the_plan_of_invert_to_plan(self):
        got = checked_plan(self.SERIES, UnitCircle())
        want = invert_to_plan(self.SERIES)
        assert (got.gamma, got.beta) == (want.gamma, want.beta)
        np.testing.assert_array_equal(got.zeros, want.zeros)
        np.testing.assert_array_equal(got.residues, want.residues)

    def test_decides_theorem_mode_once_per_series(self, monkeypatch):
        # a series is immutable: the gate and the plan read one answer,
        # with the bits of each computed on its own
        import resolvinv.series as series_module

        calls = []
        decide = series_module.theorem_mode

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        want_plan = invert_to_plan(ResolventSeries(self.SERIES.terms))
        want_report = check_admissible(ResolventSeries(self.SERIES.terms),
                                       UnitCircle())
        monkeypatch.setattr(series_module, "theorem_mode", counted)
        plan = checked_plan(ResolventSeries(self.SERIES.terms), UnitCircle())
        assert len(calls) == 1
        calls.clear()
        series = ResolventSeries(self.SERIES.terms)
        report = check_admissible(series, UnitCircle())
        again = invert_to_plan(series)
        assert len(calls) == 1
        assert report == want_report
        for got in (plan, again):
            assert (got.gamma, got.beta) == (want_plan.gamma, want_plan.beta)
            np.testing.assert_array_equal(got.zeros, want_plan.zeros)
            np.testing.assert_array_equal(got.residues, want_plan.residues)

    @pytest.mark.parametrize("series, spectrum, margin, error", [
        (ResolventSeries(((1.0, 2.0), (-0.5, 3.0))), UnitCircle(), 0.0,
         HypothesisError),
        (ResolventSeries(((1.0, 0.5), (1.0, 2.0))), UnitCircle(), 0.0,
         SeparationError),
        (ResolventSeries(((1.0, 2.0), (1.0, 3.0))), PointSpectrum([0.0]),
         2.5, SeparationError),
    ], ids=["not_theorem_mode", "not_separated", "margin"])
    def test_raises_what_the_gate_raises(self, series, spectrum, margin,
                                         error, monkeypatch):
        import resolvinv.rational as rational_module

        def no_plan(*args, **kwargs):
            raise AssertionError("plan built for a rejected series")

        monkeypatch.setattr(rational_module, "invert_to_plan", no_plan)
        with pytest.raises(error) as caught:
            checked_plan(series, spectrum, margin)
        want = check_admissible(series, spectrum, margin).rejection()
        assert type(caught.value) is type(want)
        assert str(caught.value) == str(want)

    def test_logs_the_gate_and_the_plan(self, caplog):
        caplog.set_level(logging.DEBUG, logger="resolvinv")
        plan = checked_plan(self.SERIES, UnitCircle())
        distance = check_admissible(self.SERIES,
                                    UnitCircle()).separation_distance
        assert [r.getMessage() for r in caplog.records] == [
            f"separation distance {distance:.6g}",
            f"plan zeros: {plan.zeros.size}"]


class TestFloatRangeWithoutWarnings:
    """Inputs whose intermediate values leave the float range raise typed
    errors, and numpy warns of nothing on the way."""

    def test_residues_past_the_float_range(self):
        # f'(z_k) ~ 1e-320 at zeros ~ 1e160: -1/f'(z_k) is no float
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConditioningError, match="float range"):
                invert_to_plan(ResolventSeries(((1, 1e160), (1, 2e160))))

    def test_gamma_past_the_float_range(self):
        # gamma is about 1e309 while beta (-5e288) and the residue
        # (-1.25e306) are floats: the whole plan is checked
        series = ResolventSeries(((1e-289, 1e20), (1e-289, 1e20 + 1e9)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match="float range"):
                invert_to_plan(series)

    @pytest.mark.parametrize("c", [
        # p at the computed root near -1.34e154i overflows
        (0, 0, 1.340396549019702e154j, 1),
        # p' = 3 * 5.99e307i z^2 has a coefficient past the float range
        (0, 0, 0, 5.992310449541053e307j),
    ], ids=["newton_step", "derivative"])
    def test_repeated_root_whose_polynomial_overflows(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RepeatedRootError):
                filter_to_series(FilterSpec(c, (0, 0, 0)))

    def test_residue_whose_derivative_overflows(self):
        # roots 0 and two of modulus 7.7e153: 3z^2 in p'(z) = 3z^2 + 5.99e307i
        # overflows there, so a quotient of 0 would hide the residue 1/2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConditioningError, match="float range"):
                partial_fractions((0, 0, 1),
                                  (0, 5.992310449541055e307j, 0, 1))

    def test_companion_matrix_past_the_float_range(self):
        # c_2 / c_3 is about 1.8e308: numpy.roots' companion matrix would
        # hold an infinity, and its eigenvalue solve a LinAlgError
        spec = FilterSpec((0, 0, 1.5937870441849192e57j,
                           8.865734720108314e-252j), (0, 0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConditioningError, match="float range"):
                filter_to_series(spec)
