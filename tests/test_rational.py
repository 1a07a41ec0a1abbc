import numpy as np
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
    UnsupportedShapeError,
)
from resolvinv.series import ResolventSeries, evaluate, evaluate_remainder
from resolvinv.rational import (
    FilterSpec,
    PartialFractionForm,
    Polynomial,
    RationalFunction,
    _fit_sample_points,
    filter_to_series,
    invert_to_plan,
    partial_fractions,
    poly_roots,
    series_to_rational,
)


class TestPolynomial:
    def test_normalization(self):
        p = Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coeffs == (1 + 0j, 2 + 0j)
        assert p.degree == 1

    def test_zero_polynomial(self):
        assert Polynomial(()).is_zero
        assert Polynomial((0.0, 0.0)).is_zero

    def test_arithmetic(self):
        p = Polynomial((1.0, 1.0))   # 1 + z
        q = Polynomial((-1.0, 1.0))  # -1 + z
        assert (p * q).coeffs == (-1 + 0j, 0j, 1 + 0j)
        quot, rem = (p * q).divmod(p)
        assert quot.coeffs == pytest.approx(q.coeffs)
        assert rem.is_zero

    def test_from_roots_monic(self):
        p = Polynomial.from_roots([1.0, -1.0])
        assert p.coeffs == pytest.approx((-1 + 0j, 0j, 1 + 0j))


class TestPolyRoots:
    def test_quadratic(self):
        roots = poly_roots(Polynomial((-1.0, 0.0, 1.0)))
        assert [(pytest.approx(r), m) for r, m in roots] == [
            (pytest.approx(-1 + 0j), 1), (pytest.approx(1 + 0j), 1)]

    def test_double_root(self):
        roots = poly_roots(Polynomial((4.0, -4.0, 1.0)))
        assert len(roots) == 1
        r, m = roots[0]
        assert m == 2 and r == pytest.approx(2 + 0j, abs=1e-7)

    def test_cube_roots_of_unity_vs_companion_oracle(self):
        # oracle: eigenvalues of the hand-built companion matrix of z^3 - 1
        companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        expected = sorted(np.linalg.eigvals(companion),
                          key=lambda w: (w.real, w.imag))
        roots = poly_roots(Polynomial((-1.0, 0.0, 0.0, 1.0)))
        assert all(m == 1 for _, m in roots)
        got = [r for r, _ in roots]
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial((0.0,)))

    def test_root_coefficient_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            deg = int(rng.integers(1, 13))
            true_roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
            p = Polynomial.from_roots(true_roots)
            found = poly_roots(p, tol=1e-6)
            expanded = []
            for r, m in found:
                expanded += [r] * m
            rebuilt = Polynomial.from_roots(expanded)
            err = np.max(np.abs(np.subtract(rebuilt.coeffs, p.coeffs)))
            scale = np.max(np.abs(p.coeffs))
            assert err <= 1e-9 * max(1.0, scale)


class TestSeriesToRational:
    def test_hand_expansion(self):
        r = series_to_rational(ResolventSeries(((1, 1.0), (1, -1.0))))
        assert r.num.coeffs == pytest.approx((0j, -2 + 0j))
        # (1-z)(-1-z) = -1 + z^2... expanded: z^2 - 1
        assert r.den.coeffs == pytest.approx((-1 + 0j, 0j, 1 + 0j))

    def test_single_term(self):
        alpha, a = 0.3 - 1j, 2.5
        r = series_to_rational(ResolventSeries(((a, alpha),)))
        assert r.num.coeffs == pytest.approx((a + 0j,))
        assert r.den.coeffs == pytest.approx((alpha, -1 + 0j))

    def test_pointwise_agreement(self):
        rng = np.random.default_rng(23)
        s = random_theorem_series(rng, 4, 4)
        r = series_to_rational(s)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(2, 5))
            ref = evaluate(s, z)
            assert abs(r(z) - ref) <= 1e-11 * max(1.0, abs(ref))


class TestPartialFractions:
    def test_two_simple_poles(self):
        # 2z / ((z-1)(z+1))
        r = RationalFunction(Polynomial((0.0, 2.0)),
                             Polynomial((-1.0, 0.0, 1.0)))
        form = partial_fractions(r)
        assert form.gamma == pytest.approx(0.0)
        assert form.beta == pytest.approx(0.0)
        groups = sorted(form.groups, key=lambda g: g.pole.real)
        assert groups[0].pole == pytest.approx(-1 + 0j)
        # residue oracle: num(z_j) / den'(z_j), then flip to (pole-z) form
        den_prime = r.den.derivative()
        for g in groups:
            residue = complex(r.num(g.pole)) / complex(den_prime(g.pole))
            assert g.coeffs[0] == pytest.approx(-residue)
            assert g.coeffs[0] == pytest.approx(-1 + 0j, abs=1e-10)

    def test_single_pole(self):
        alpha = 1.5 + 0.5j
        r = RationalFunction(Polynomial((1.0,)), Polynomial((alpha, -1.0)))
        form = partial_fractions(r)
        assert len(form.groups) == 1
        g = form.groups[0]
        assert g.pole == pytest.approx(alpha)
        assert g.coeffs == (pytest.approx(1 + 0j),)

    def test_double_pole(self):
        alpha = 0.5 - 1j
        den = Polynomial((alpha, -1.0)) * Polynomial((alpha, -1.0))
        form = partial_fractions(RationalFunction(Polynomial((1.0,)), den))
        assert len(form.groups) == 1
        g = form.groups[0]
        assert g.multiplicity == 2
        assert g.coeffs[0] == pytest.approx(0j, abs=1e-8)
        assert g.coeffs[1] == pytest.approx(1 + 0j)

    def test_affine_part(self):
        # (z^2 + 1) / z = z + 1/z
        r = RationalFunction(Polynomial((1.0, 0.0, 1.0)),
                             Polynomial((0.0, 1.0)))
        form = partial_fractions(r)
        assert form.beta == pytest.approx(1.0)
        assert form.gamma == pytest.approx(0.0)
        assert form.groups[0].coeffs[0] == pytest.approx(-1 + 0j)

    def test_degree_two_polynomial_part_rejected(self):
        r = RationalFunction(Polynomial((0.0, 0.0, 0.0, 1.0)),
                             Polynomial((1.0, 1.0)))
        with pytest.raises(UnsupportedShapeError):
            partial_fractions(r)

    def test_reconstruction_random_proper(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            deg = int(rng.integers(2, 9))
            while True:
                poles = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
                if all(abs(poles[i] - poles[j]) > 0.2
                       for i in range(deg) for j in range(i + 1, deg)):
                    break
            den = Polynomial((1.0,))
            for p in poles:
                den = den * Polynomial((p, -1.0))
            num = Polynomial(tuple(
                rng.standard_normal(deg) + 1j * rng.standard_normal(deg)))
            form = partial_fractions(RationalFunction(num, den))
            for _ in range(100):
                z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                if min(abs(z - p) for p in poles) < 0.3:
                    continue
                ref = complex(num(z)) / complex(den(z))
                assert abs(form(z) - ref) <= 1e-10 * (1.0 + abs(ref))


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
        approx = (2 - (2 + eps)) * evaluate_remainder(s, 2 + eps)
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
        # num(f) * num(g) - den(f) * den(g) ~ 0 for the reconstructed plan
        rng = np.random.default_rng(37)
        for _ in range(10):
            s = random_theorem_series(rng, 2, 6)
            plan = invert_to_plan(s)
            rat = series_to_rational(s)
            # reconstruct plan as a rational function over prod (z_k - z)
            den_g = Polynomial((1.0,))
            for zk in plan.zeros:
                den_g = den_g * Polynomial((zk, -1.0))
            num_g = Polynomial((plan.gamma, plan.beta)) * den_g
            for k, ck in enumerate(plan.residues):
                term = Polynomial((ck,))
                for i, zi in enumerate(plan.zeros):
                    if i != k:
                        term = term * Polynomial((zi, -1.0))
                num_g = num_g + term
            ident = (rat.num * num_g) - (rat.den * den_g)
            coeffs = np.array(ident.coeffs)
            scale = max(np.max(np.abs(rat.num.coeffs)) *
                        max(1.0, np.max(np.abs(num_g.coeffs))), 1.0)
            assert np.max(np.abs(coeffs)) <= 1e-9 * scale


def _identity_residual(series, plan):
    """max |f(z) (gamma + beta z + h(z)) - 1|, term by term, at the points
    on which invert_to_plan checks the plan itself."""
    pts = _fit_sample_points(list(series.poles) + list(plan.zeros), count=50)
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
        # equal weights on the cube roots of unity: f = 3z^2 / (1 - z^3)
        s = ResolventSeries(tuple((1.0, np.exp(2j * np.pi * k / 3))
                                  for k in range(3)))
        with pytest.raises(RepeatedRootError):
            invert_to_plan(s)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(3, 8),
           log_eps=st.floats(-16.0, -1.0),
           radius=st.floats(1e-2, 1e2),
           theta=st.floats(0.0, 2 * np.pi),
           tol=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    def test_near_confluent_plan_or_typed_error(self, k, log_eps, radius,
                                                theta, tol):
        # equal weights on a regular k-gon give f a zero of order k - 1 at
        # its centre; perturbed weights split it into a tight cluster
        eps = 10.0 ** log_eps
        poles = 1.0 + radius * np.exp(1j * (theta + 2 * np.pi
                                             * np.arange(k) / k))
        coeffs = 1.0 + eps * np.cos(1.7 * np.arange(k))
        s = ResolventSeries(tuple(zip(coeffs, poles)))
        try:
            plan = invert_to_plan(s, tol=tol)
        except (RepeatedRootError, ConditioningError):
            return
        assert plan.zeros.shape == plan.residues.shape == (k - 1,)
        assert _identity_residual(s, plan) <= 1e-8


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
        assert series.poles == (pytest.approx(-c0 / c1),)
        assert series.coefficients == (pytest.approx(b1 / c1),)
        assert series.is_theorem_mode()

    def test_second_order_residue_oracle(self):
        spec = FilterSpec((-2.0, 3.0, -1.0), (1.0, 1.0))
        series = filter_to_series(spec)
        poles = sorted(series.poles, key=lambda z: z.real)
        assert poles == [pytest.approx(1 + 0j), pytest.approx(2 + 0j)]
        # oracle: numerical residues of q / (z p) at z_j
        p = Polynomial(spec.c)
        q = Polynomial((0j,) + spec.b)

        def residue(zj):
            eps = 1e-7
            z = zj + eps
            return complex(q(z)) / (z * complex(p(z))) * (z - zj)

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
        p = Polynomial(spec.c)
        q = Polynomial((0j,) + spec.b)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if min(abs(z - zj) for zj in series.poles) < 0.3:
                continue
            lhs = complex(q(z)) / complex(p(z))
            rhs = -z * evaluate(series, z)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
