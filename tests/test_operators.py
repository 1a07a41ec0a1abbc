import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    assemble_plan,
    assemble_series,
    matrix_with_eigenvalues,
    random_theorem_series,
)
from resolvinv import operators, tolerance
from resolvinv.errors import (
    ConditioningError,
    EmptyInputError,
    InvalidInputError,
    SingularResolventError,
)
from resolvinv.geometry import ImaginaryAxis, PositiveHalfLine, UnitCircle
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    MultiplierOperator,
    OperatorHandle,
    PeriodicShiftOperator,
    apply_plan,
    apply_series,
    convolution_series,
    forward_even_convolution,
    forward_filter,
    invert_filter,
    solve_convolution,
    solve_even_convolution,
    solve_exponential_volterra,
    solve_filter,
)
from resolvinv.rational import (
    FilterSpec,
    checked_plan,
    filter_to_series,
    invert_to_plan,
)
from resolvinv.series import ResolventSeries, caratheodory_zero_series


class TestDenseMatrixOperator:
    def test_resolvent_identity(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = DenseMatrixOperator(m)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        alpha = 10 + 3j
        u = A.resolvent_solve(alpha, v)
        assert np.allclose(alpha * u - A.apply(u), v, atol=1e-10)

    def test_resolvent_against_direct_solve(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        A = DenseMatrixOperator(m)
        v = rng.standard_normal(6)
        alpha = 7.5 - 2j
        expect = np.linalg.solve(alpha * np.eye(6) - m, v.astype(complex))
        assert np.allclose(A.resolvent_solve(alpha, v), expect, atol=1e-11)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            DenseMatrixOperator(np.ones((2, 3)))

    def test_empty_rejected(self):
        # the vectorised pole check and the SVD's singular test need one
        # eigenvalue and one singular value
        with pytest.raises(EmptyInputError):
            DenseMatrixOperator(np.zeros((0, 0)))

    def test_spectrum_is_eigenvalues(self):
        A = DenseMatrixOperator(np.diag([1.0, 2.0, 3.0]))
        pts = sorted(A.spectrum().points, key=lambda z: z.real)
        assert pts == pytest.approx([1 + 0j, 2 + 0j, 3 + 0j])


class TestMultiplierOperator:
    def test_apply(self):
        A = MultiplierOperator([1.0, 2.0, 3.0])
        assert np.allclose(A.apply([1, 1, 1]), [1, 2, 3])

    def test_resolvent(self):
        A = MultiplierOperator([1.0, 4.0])
        assert np.allclose(A.resolvent_solve(2.0, [1, 1]), [1.0, -0.5])

    def test_pole_on_symbol_rejected(self):
        A = MultiplierOperator([1.0, 2.0])
        with pytest.raises(SingularResolventError):
            A.resolvent_solve(2.0, [1, 1])

    def test_gap_tolerance_scales_with_the_pole(self):
        # a large sample far from the pole does not widen the gap bound
        A = MultiplierOperator([0.0, 1e12])
        assert np.allclose(A.resolvent_solve(-1.0, [1, 1]),
                           [-1.0, 1.0 / (-1.0 - 1e12)], rtol=1e-15, atol=0)
        with pytest.raises(SingularResolventError):
            A.resolvent_solve(1e12 * (1.0 + 1e-11), [1, 1])

    def test_plan_and_series_checks_skip_the_point_spectrum(self,
                                                            monkeypatch):
        def no_spectrum(self):
            raise AssertionError("spectrum() built for a symbol operator")

        monkeypatch.setattr(MultiplierOperator, "spectrum", no_spectrum)
        s = ResolventSeries(((1, 5.0), (2, 7.0)))
        A = MultiplierOperator([1.0, 2.0, 3.0])
        v = np.ones(3, dtype=complex)
        assert np.allclose(apply_plan(invert_to_plan(s), A,
                                      apply_series(s, A, v)), v, atol=1e-12)
        with pytest.raises(SingularResolventError):
            apply_series(ResolventSeries(((1, 2.0),)), A, v)

    @pytest.mark.parametrize("make", [
        lambda: MultiplierOperator(np.linspace(-1.0, 1.0, 16)),
        lambda: PeriodicShiftOperator(16),
    ], ids=["multiplier", "periodic_shift"])
    def test_one_symbol_scan_per_pole(self, make, monkeypatch):
        scanned = []
        check = operators._check_symbol_gap

        def counted(poles, symbol):
            scanned.extend(poles)
            return check(poles, symbol)

        monkeypatch.setattr(operators, "_check_symbol_gap", counted)
        s = ResolventSeries(((1, 3.0), (2, 4.0 + 1j), (1, 5.0), (3, 6.0j)))
        plan = invert_to_plan(s)
        A = make()
        v = np.arange(16.0) + 1j
        y = apply_series(s, A, v)
        assert len(scanned) == 4
        scanned.clear()
        assert np.allclose(apply_plan(plan, A, y), v, atol=1e-10)
        assert len(scanned) == 3


class TestGridDerivativeOperator:
    def test_apply_is_forward_difference(self):
        g = GridDerivativeOperator(0.0, 1.0, 101)
        v = g.t ** 2
        dv = g.apply(v)
        # derivative of t^2 is 2t up to O(dt)
        assert np.max(np.abs(dv[:-1] - 2 * g.t[:-1])) < 2 * g.dt

    def test_resolvent_closed_form_exponential(self):
        # int_t^L e^{-alpha(s-t)} e^{-c s} ds
        #   = e^{-c t} (1 - e^{-(alpha+c)(L-t)}) / (alpha + c)
        g = GridDerivativeOperator(0.0, 5.0, 4001)
        alpha, c = 2.0, 0.7
        v = np.exp(-c * g.t)
        got = g.resolvent_solve(alpha, v)
        expect = np.exp(-c * g.t) * (
            1.0 - np.exp(-(alpha + c) * (5.0 - g.t))) / (alpha + c)
        assert np.max(np.abs(got - expect)) < 1e-7

    def test_resolvent_identity(self):
        g = GridDerivativeOperator(0.0, 2.0, 2001)
        alpha = 3.0 + 1.0j
        v = np.sin(g.t) * np.exp(-g.t)
        u = g.resolvent_solve(alpha, v)
        resid = alpha * u - g.apply(u)
        # interior only: the forward difference and the truncated upper
        # limit pollute the last few samples
        assert np.max(np.abs(resid[:-2] - v[:-2])) < 5e-3

    @staticmethod
    def _loop_resolvent(g, alpha, v):
        """Scalar reference: w_i = e * w_{i+1} + cells_i, w_{n-1} = 0."""
        e = cmath.exp(-alpha * g.dt)
        i0, i1_d = operators._cell_weights(alpha, g.dt)
        v = v.tolist()
        w = [0j] * len(v)
        for i in range(len(v) - 2, -1, -1):
            cell = (v[i + 1] - v[i]) * i1_d + v[i] * i0
            w[i] = e * w[i + 1] + cell
        return np.array(w), e

    @pytest.mark.parametrize("L, n, alpha, regime", [
        (1.0, 3, 2.0 - 1.5j, "smallest grid"),
        (10.0, 11, 800.0 + 5.0j, "e underflows"),
        (1.0, 2 ** 16, 0.06 + 0.03j, "e near one"),
    ])
    def test_recurrence_matches_python_loop(self, L, n, alpha, regime):
        g = GridDerivativeOperator(0.0, L, n)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v_before = v.copy()
        got = g.resolvent_solve(alpha, v)
        want, e = self._loop_resolvent(g, alpha, v)
        if regime == "e underflows":
            assert alpha.real * g.dt > 745 and e == 0
        if regime == "e near one":
            assert abs(alpha * g.dt) < 2e-6
        assert np.array_equal(v, v_before)
        assert got[-1] == 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # Re(alpha dt) from 1e-12 to 1e3 on three blocks and 17 samples: one
    # segment per block, segments shorter than a block down to one cell,
    # and an e that underflows to 0; a run of zero samples leaves carries
    # that only decay
    @pytest.mark.parametrize("r, segment", [
        (1e-12, 4096), (1e-6, 4096), (1e-3, 4096), (0.05, 1024), (1.0, 64),
        (30.0, 2), (100.0, 1), (1e3, 1)])
    def test_scan_matches_the_sequential_recurrence(self, r, segment):
        n = 3 * 4096 + 17
        g = GridDerivativeOperator(0.0, 10.0, n)
        alpha = r * (1.0 + 0.5j) / g.dt
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[5000:7000] = 0
        scan = operators._ZeroScan.grid(alpha, 1.0, g.dt, n - 1,
                                        np.empty((2, n), dtype=complex))
        assert scan.p.size == segment
        got = g.resolvent_solve(alpha, v)
        want, e = self._loop_resolvent(g, alpha, v)
        if r == 1e3:
            assert e == 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cos_closed_form_keeps_its_accuracy_as_alpha_goes_to_zero(self):
        # int_t^L exp(-alpha (s - t)) cos s ds on 1001 points over [0, 10]:
        # the cancelling weights gave 1.1e-2 at alpha = 1e-6 against 1.1e-5
        # at 0.1.  The discretisation error itself grows from 5.9e-6 at
        # alpha = 1 to its alpha -> 0 limit, the trapezoid error of the
        # integral of cos, 1.29e-5: the bound is twice the larger of the
        # alpha = 1 and 0.1 errors
        g = GridDerivativeOperator(0.0, 10.0, 1001)
        errors = {}
        for k in range(12):
            alpha = 10.0 ** -k
            exact = ((np.exp((1j - alpha) * 10.0 + alpha * g.t)
                      - np.exp(1j * g.t)) / (1j - alpha)).real
            got = g.resolvent_solve(alpha, np.cos(g.t))
            errors[k] = np.max(np.abs(got - exact))
        assert max(errors.values()) <= 2.0 * max(errors[0], errors[1])

    @staticmethod
    def _series_weights(x, d):
        """(i0, i1 / d) from their Taylor series in x = alpha d, 40 terms."""
        s0 = s1 = 0j
        for k in reversed(range(40)):
            s0 = s0 * -x + 1.0 / math.factorial(k + 1)
            s1 = s1 * -x + (k + 1) / math.factorial(k + 2)
        return d * s0, d * s1

    @pytest.mark.parametrize("turn", np.linspace(-0.249, 0.249, 7))
    def test_cell_weights_match_their_series(self, turn):
        # |x| from 1e-300 to 1 in a direction of the right half plane, and
        # a subnormal x, where -expm1(-x) / alpha kept only its few digits
        d = 0.01
        for size in [*10.0 ** -np.arange(0.0, 300.5, 0.5), 1e-315]:
            x = size * cmath.exp(2j * cmath.pi * turn)
            got = operators._cell_weights(x / d, d)
            for g, w in zip(got, self._series_weights(x, d)):
                assert abs(g - w) <= 4 * np.finfo(float).eps * abs(w)

    def test_nonpositive_real_part_rejected(self):
        g = GridDerivativeOperator(0.0, 1.0, 11)
        with pytest.raises(SingularResolventError):
            g.resolvent_solve(-1.0, np.zeros(11))
        with pytest.raises(SingularResolventError):
            g.resolvent_solve(2j, np.zeros(11))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            GridDerivativeOperator(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            GridDerivativeOperator(1.0, 1.0, 10)

    def test_grid_ends_near_the_float_range(self):
        # np.linspace's step times n - 1 overflowed, with a RuntimeWarning
        # (an error here), for an end it then sets to L itself
        g = GridDerivativeOperator(0.0, 1.7976931348623157e308, 4)
        assert g.t[-1] == 1.7976931348623157e308 and np.isfinite(g.t).all()
        with pytest.raises(InvalidInputError, match="float range"):
            GridDerivativeOperator(-1.7e308, 1.7e308, 4)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False),
           st.integers(3, 5000))
    @example(0.0, 1.7976931348623157e308, 4)
    @example(-1.7976931348623157e308, 1.7976931348623157e308, 4)
    @example(0.0, 5e-324, 3)  # the step underflows to 0
    @example(0.0, 1e-320, 7)
    @example(-1e-310, 1e-310, 5)
    @example(1e308, 1.7e308, 3)
    @example(-math.inf, 0.0, 3)
    @example(0.0, 10.0, 400)
    @settings(max_examples=500, deadline=None)
    def test_grid_step_is_linspace_s_own(self, t0, L, n):
        # dt comes from np.linspace's step arithmetic without the n points,
        # which are built on first use, as np.linspace builds them
        assume(L > t0)
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.linspace(t0, L, n)
        dt = float(t[1] - t[0])
        if not 0.0 < dt < math.inf:
            with pytest.raises(InvalidInputError, match="float range"):
                GridDerivativeOperator(t0, L, n)
            return
        g = GridDerivativeOperator(t0, L, n)
        assert type(g.dt) is float and g.dt == dt
        assert "t" not in vars(g)
        np.testing.assert_array_equal(_bits(g.t), _bits(t))


class TestPeriodicShiftOperator:
    def test_apply_shifts(self):
        A = PeriodicShiftOperator(4)
        assert np.allclose(A.apply([1, 2, 3, 4]), [2, 3, 4, 1])

    def test_resolvent_identity(self):
        rng = np.random.default_rng(6)
        A = PeriodicShiftOperator(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        alpha = 3 - 1j
        u = A.resolvent_solve(alpha, v)
        assert np.allclose(alpha * u - A.apply(u), v, atol=1e-12)

    def test_pole_at_root_of_unity_rejected(self):
        A = PeriodicShiftOperator(8)
        with pytest.raises(SingularResolventError):
            A.resolvent_solve(1.0, np.zeros(8))


class TestApplySeries:
    def test_diagonal_scalar_consistency(self):
        from resolvinv.series import evaluate

        s = ResolventSeries(((1, 5.0), (2, 7.0)))
        lam = np.array([1.0, 2.0, 3.0])
        A = MultiplierOperator(lam)
        v = np.ones(3, dtype=complex)
        got = apply_series(s, A, v)
        expect = np.array([evaluate(s, complex(x)) for x in lam])
        assert np.allclose(got, expect, atol=1e-12)

    def test_dense_assembly_oracle(self):
        rng = np.random.default_rng(8)
        s = random_theorem_series(rng, 2, 5)
        m = matrix_with_eigenvalues(rng, 5.0 + rng.uniform(0, 1, 4))
        A = DenseMatrixOperator(m)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = apply_series(s, A, v)
        assert np.allclose(got, assemble_series(s, m) @ v, atol=1e-11)

    def test_pole_near_spectrum_rejected(self):
        A = DenseMatrixOperator(np.diag([1.0, 2.0]))
        s = ResolventSeries(((1, 2.0),))
        with pytest.raises(SingularResolventError):
            apply_series(s, A, np.ones(2))

    @pytest.mark.parametrize("make", [
        lambda: MultiplierOperator([1.0, 2.0, 3.0]),
        lambda: DenseMatrixOperator(np.diag([1.0, 2.0, 3.0])),
    ], ids=["multiplier", "dense"])
    def test_zero_term_skipped_on_every_operator(self, make):
        # the zero term's pole 2 lies on the spectrum; like the plan
        # (invert_to_plan), every operator drops the term
        s = ResolventSeries(((1, 5.0), (0, 2.0)))
        got = apply_series(s, make(), np.ones(3))
        np.testing.assert_allclose(got, [0.25, 1 / 3, 0.5], rtol=1e-15)

    def test_dense_pole_check_matches_point_spectrum_loop(self):
        # the check on the cached eigenvalues, made when a pole is first
        # factored, takes the same decision as PointSpectrum.distance_to
        rng = np.random.default_rng(20)
        for _ in range(50):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            A = DenseMatrixOperator(m)
            eig = A.eigenvalues()
            poles = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            k = rng.integers(8)
            poles[0] = eig[k] * (1 + rng.choice([1e-11, 1e-9])
                                 * np.exp(2j * np.pi * rng.uniform()))
            spec = A.spectrum()
            expect = any(tolerance.negligible(
                spec.distance_to(complex(p)), p,
                rtol=tolerance.SPECTRUM_EPS) for p in poles)
            try:
                apply_series(ResolventSeries(tuple((1, p) for p in poles)),
                             A, np.ones(8))
                got = False
            except SingularResolventError:
                got = True
            assert got == expect


class TestApplyPlan:
    def test_trivial_single_pole(self):
        # f(z) = 1/(alpha - z)  =>  inverse is alpha - z exactly
        plan = invert_to_plan(ResolventSeries(((1, 3.0),)))
        A = DenseMatrixOperator(np.diag([1.0, 2.0]))
        v = np.array([1.0, 1.0], dtype=complex)
        assert np.allclose(apply_plan(plan, A, v), [2.0, 1.0], atol=1e-14)

    def test_no_remainder_poles_skip_the_eigenvalues(self, monkeypatch):
        def no_eigenvalues(self):
            raise AssertionError("eigenvalues computed without a pole")

        monkeypatch.setattr(DenseMatrixOperator, "eigenvalues",
                            no_eigenvalues)
        plan = invert_to_plan(ResolventSeries(((1, 3.0),)))
        A = DenseMatrixOperator(np.diag([1.0, 2.0]))
        assert np.allclose(apply_plan(plan, A, np.ones(2)), [2.0, 1.0])

    def test_dense_assembly_oracle(self):
        rng = np.random.default_rng(10)
        s = random_theorem_series(rng, 3, 6)
        plan = invert_to_plan(s)
        m = matrix_with_eigenvalues(rng, 4.0 + rng.uniform(0, 2, 6))
        A = DenseMatrixOperator(m)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(apply_plan(plan, A, v),
                           assemble_plan(plan, m) @ v, atol=1e-10)

    def test_round_trip_inverts_series(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            s = random_theorem_series(rng, 2, 6)
            plan = invert_to_plan(s)
            eig = 4.0 + rng.uniform(0, 2, 8) + 1j * rng.uniform(-1, 1, 8)
            m = matrix_with_eigenvalues(rng, eig)
            A = DenseMatrixOperator(m)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            back = apply_plan(plan, A, apply_series(s, A, v))
            assert np.linalg.norm(back - v) <= 1e-9 * np.linalg.norm(v)


class TestPlantedNullVector:
    def test_eigvector_of_planted_zero_is_annihilated(self):
        # build f with a zero at a planted eigenvalue lambda; then
        # f(A) x = f(lambda) x = 0 for the corresponding eigenvector
        rng = np.random.default_rng(14)
        poles = [1 + 0j, 2 + 1j, 1.5 - 1j]
        lam = (poles[0] + poles[1] + poles[2]) / 3
        s = caratheodory_zero_series(poles, lam)
        others = np.array([10.0, 11.0, 12.0])
        q = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
        m = q @ np.diag(np.concatenate(([lam], others))) @ np.linalg.inv(q)
        A = DenseMatrixOperator(m)
        x = q[:, 0].astype(complex)
        fx = apply_series(s, A, x)
        assert np.linalg.norm(fx) <= 1e-10 * np.linalg.norm(x)


# --- one application path ----------------------------------------------------
# Every backend has one ``apply_plan``; a series is the plan gamma = beta = 0.
# The reference is the per-term loop every application used to run: one
# resolvent solve per pole, accumulated term by term.

N = 12
# the drawn poles lie in Re [1.5, 4], Im [-2, 2]: off the imaginary axis,
# outside the unit circle, and away from these eigenvalues and symbol
BACKENDS = {
    "dense": lambda: DenseMatrixOperator(
        np.diag(-1.0 - np.arange(N) / N) + np.diag(0.1 * np.ones(N - 1), 1)),
    "multiplier": lambda: MultiplierOperator(
        -1.0 - np.arange(N) / N + 0.5j * np.sin(np.arange(N))),
    "grid": lambda: GridDerivativeOperator(0.0, 2.0, N),
    "shift": lambda: PeriodicShiftOperator(N),
}


def _loop_apply(gamma, beta, poles, residues, A, v):
    """gamma v + beta A v + sum_k c_k (p_k - A)^{-1} v, term by term, and
    the sum of the terms' norms, the scale of any summation's rounding."""
    out = gamma * v
    scale = np.linalg.norm(out)
    if beta != 0:
        out = out + beta * A.apply(v)
        scale += np.linalg.norm(beta * A.apply(v))
    for c, p in zip(residues, poles):
        if c != 0:
            term = c * A.resolvent_solve(p, v)
            out = out + term
            scale += np.linalg.norm(term)
    return out, scale


theorem_series = st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
              st.floats(1.5, 4.0), st.floats(-2.0, 2.0)),
    min_size=1, max_size=5)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@given(terms=theorem_series, seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_series_and_plan_match_the_term_loop(backend, terms, seed):
    poles = [complex(re, im) for _, re, im in terms]
    assume(all(abs(p - q) > 0.2 for i, p in enumerate(poles)
               for q in poles[i + 1:]))
    assume(sum(a for a, _, _ in terms) > 0)
    series = ResolventSeries(tuple(zip((a for a, _, _ in terms), poles)))
    plan = invert_to_plan(series)
    A = BACKENDS[backend]()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)

    want, scale = _loop_apply(0.0, 0.0, series.poles, series.coefficients,
                              A, v)
    assert np.linalg.norm(apply_series(series, A, v) - want) <= 1e-12 * scale
    want, scale = _loop_apply(plan.gamma, plan.beta, plan.zeros,
                              plan.residues, A, v)
    assert np.linalg.norm(apply_plan(plan, A, v) - want) <= 1e-12 * scale


def test_volterra_solve_keeps_its_second_order_derivative():
    # the Volterra solve used np.gradient for y' before it became the grid's
    # apply_plan: the same expression, bit for bit
    g = GridDerivativeOperator(0.0, 3.0, 50)
    plan = invert_to_plan(ResolventSeries(((1.0, 1.0), (2.0, 2.5 + 1j))))
    y = np.exp(-g.t) * np.cos(3 * g.t) + 1j * g.t
    want = plan.gamma * y + plan.beta * np.gradient(y, g.dt, edge_order=2)
    for zk, ck in zip(plan.zeros, plan.residues):
        want[:-1] += _whole_array_resolvent(g, zk, y, ck)
    np.testing.assert_array_equal(apply_plan(plan, g, y), want)


def test_series_never_applies_the_operator(monkeypatch):
    # beta = 0 for a series: no derivative pass on a grid, and no 0 * inf
    def no_apply(self, v):
        raise AssertionError("A applied for a zero beta")

    monkeypatch.setattr(GridDerivativeOperator, "apply", no_apply)
    g = GridDerivativeOperator(0.0, 1.0, 8)
    got = apply_series(ResolventSeries(((1.0, 2.0),)), g, np.ones(8))
    np.testing.assert_allclose(got, g.resolvent_solve(2.0, np.ones(8)))


def test_shift_acts_on_each_signal_of_a_block():
    # checked_vector takes the n samples on the last axis, so A and the plan
    # act row by row; a roll of the flattened block would mix the rows
    T = PeriodicShiftOperator(3)
    v = np.arange(6.0).reshape(2, 3)
    plan = invert_to_plan(ResolventSeries(((1.0, 3.0), (1.0, 4.0))))
    for apply in (T.apply, lambda w: T.apply_plan(plan, w)):
        np.testing.assert_array_equal(apply(v), [apply(v[0]), apply(v[1])])


@pytest.mark.parametrize("n", [1, 16])
def test_shift_spectrum_is_the_unit_circle(n):
    # the unit circle holds the n roots of unity; the solves check each
    # pole against its nearest root instead
    assert PeriodicShiftOperator(n).spectrum() == UnitCircle()


def test_one_sample_shift():
    # a 1-sample signal is its own shift: f(T) = f(1) and the filter solve
    # is the scalar 1/f(1) times -y
    with pytest.raises(InvalidInputError):
        PeriodicShiftOperator(0)
    T = PeriodicShiftOperator(1)
    np.testing.assert_array_equal(T.apply([3.0]), [3.0])
    plan = invert_to_plan(ResolventSeries(((1.0, 2.0),)))
    np.testing.assert_allclose(solve_filter(plan, [4.0]), [-4.0], rtol=1e-15)


# --- the blocked Fourier-diagonal pass ---------------------------------------
# A multiplier and the convolution multiply (1/f)(symbol) into the vector
# in blocks of operators._BLOCK samples.  The references below are the
# whole-array expressions the two used before: ``r **= -1`` in the plan's
# evaluation and one product over every sample.

# 4097 and 8193 end in a one-sample remainder, which numpy would round
# differently in place (in about a third of draws, so each size takes 20)
BLOCK_SIZES = [1, 4095, 4096, 4097, 8193, 3 * 4096 + 17]
EPS = np.finfo(float).eps


def _whole_array_product(plan, symbol, v):
    g = plan.gamma + plan.beta * symbol
    for zk, ck in zip(plan.zeros, plan.residues):
        r = zk - symbol
        r **= -1
        r *= ck
        g += r
    return g * v


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def _plan_for_blocks():
    series = ResolventSeries(((1.0, 2.0 + 0.5j), (0.5, 3.0 - 1j),
                              (2.0, 2.5 + 2j)))
    return invert_to_plan(series)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_product_matches_the_whole_array_bit_for_bit(n):
    rng = np.random.default_rng(n)
    plan = _plan_for_blocks()
    for _ in range(20):
        symbol = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = _bits(_whole_array_product(plan, symbol, v))
        np.testing.assert_array_equal(
            _bits(MultiplierOperator(symbol).apply_plan(plan, v)), want)


def test_blocked_product_broadcasts_over_leading_axes():
    rng = np.random.default_rng(3)
    plan = _plan_for_blocks()
    symbol = rng.standard_normal(4097) + 1j * rng.standard_normal(4097)
    v = rng.standard_normal((2, 4097)) + 1j * rng.standard_normal((2, 4097))
    np.testing.assert_array_equal(
        _bits(MultiplierOperator(symbol).apply_plan(plan, v)),
        _bits(_whole_array_product(plan, symbol, v)))


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300, 1e-160, 1e160])
@pytest.mark.parametrize("n", [1, 5000])
def test_reciprocal_is_the_inverse_power_bit_for_bit(scale, n):
    # in place, as the plan's evaluation takes it
    rng = np.random.default_rng(7)
    z = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    z[:4] = [scale, -scale, 1j * scale, -1j * scale][:n]
    want = z.copy()
    want **= -1
    np.reciprocal(z, out=z)
    np.testing.assert_array_equal(_bits(z), _bits(want))


def test_plan_evaluates_a_scalar_as_the_array_does():
    plan = _plan_for_blocks()
    pts = np.array([0.3 + 0.1j, -2.0, 5j])
    np.testing.assert_array_equal(
        _bits([plan.evaluate_scalar(complex(p)) for p in pts]),
        _bits(plan.evaluate_scalar(pts)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("n", [4097, 6143, 8191, 3 * 4096 + 17, 2 ** 16,
                               2 ** 20])
def test_nearest_unit_roots_past_one_block_are_within_8_eps(n):
    # the exact roots, from the angles 2 pi k / n in extended precision;
    # np.exp's roots are up to 7.44 eps off them (at n = 12305), since its
    # angle 2 pi k / n carries two roundings of up to 2 pi eps
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    theta = two_pi * np.arange(n, dtype=np.longdouble) / n
    exact_re, exact_im = np.cos(theta), np.sin(theta)
    got = operators._nearest_unit_roots(
        1.5 * np.exp(2j * np.pi * np.arange(n) / n), n)
    err = np.hypot((got.real - exact_re).astype(float),
                   (got.imag - exact_im).astype(float))
    assert err.max() <= 8 * EPS


def _parent_filter_solve(plan, y):
    n = y.size
    symbol = np.exp(2j * np.pi * np.arange(n) / n)
    return np.fft.ifft(_whole_array_product(
        plan, symbol, np.fft.fft(-np.roll(y, 1))))


def _plans_for_the_shift():
    # zeros 2.43 and 2.94 in modulus, then 0.26 and 1.55: both passes
    inside = ResolventSeries(((1.0, 0.5 + 0.2j), (0.5, -0.3 - 0.4j),
                              (2.0, 2.5 + 2j)))
    return [_plan_for_blocks(), invert_to_plan(inside)]


@pytest.mark.parametrize("n", [1, 64, 4095, 4096, 4097, 3 * 4096 + 17,
                               2 ** 16])
def test_filter_solve_matches_the_fft_solve(n):
    # the scan against the FFT pair it replaced, to 64 kappa eps with
    # kappa = max|1/f| / min|1/f| over the roots of unity
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for plan in _plans_for_the_shift():
        g = np.abs(plan.evaluate_scalar(roots))
        kappa = g.max() / g.min()
        want = _parent_filter_solve(plan, y)
        got = solve_filter(plan, y)
        assert (np.linalg.norm(got - want)
                <= 64 * kappa * EPS * np.linalg.norm(want))


def _shift_zero(kind, n, turn):
    """A zero of each hard kind for the shift on n samples: 0, 1e300 and
    1e-300 in modulus, 1e-9 off the unit circle on either side, and on it
    halfway between two roots of unity (opposite the one root at n = 1)."""
    phase = cmath.exp(2j * cmath.pi * turn)
    return {"zero": 0j, "huge": 1e300 * phase, "tiny": 1e-300 * phase,
            "outside": (1 + 1e-9) * phase, "inside": (1 - 1e-9) * phase,
            "between": cmath.exp(1j * cmath.pi * (2 * round(turn * n) + 1)
                                 / n)}[kind]


SHIFT_ZERO_KINDS = ["zero", "huge", "tiny", "outside", "inside", "between"]


def _backward_error(residual, w, rhs, weight):
    """The norm-wise backward error, in eps, of a first-order recurrence's
    solution w with right side rhs: ||residual|| against
    ||rhs|| + weight ||w||."""
    return np.linalg.norm(residual) / (
        EPS * (np.linalg.norm(rhs) + weight * np.linalg.norm(w)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 64), kind=st.sampled_from(SHIFT_ZERO_KINDS),
       turn=st.floats(-0.5, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_shift_resolvent_is_backward_stable(n, kind, turn, seed):
    z = _shift_zero(kind, n, turn)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    T = PeriodicShiftOperator(n)
    w = T.resolvent_solve(z, u)
    assert _backward_error(z * w - T.apply(w) - u, w, u, 1 + abs(z)) <= 8
    # and against the dense circulant z I - C, to its condition number
    shifted = z * np.eye(n) - np.roll(np.eye(n), 1, axis=1)
    want = np.linalg.solve(shifted, u)
    dist = np.abs(z - np.exp(2j * np.pi * np.arange(n) / n))
    kappa = dist.max() / dist.min()
    assert (np.linalg.norm(w - want)
            <= 64 * kappa * EPS * np.linalg.norm(want))


def _whole_signal_shift_resolvent(z, v):
    """(z - T)^{-1} v as one scan over the whole signal, segment by
    segment from its end, on the tables and periodic carry of the pass."""
    n = v.size
    scan = operators._ShiftScan(z, 1.0, n, np.empty((2, n), dtype=complex))
    # the cells of the pass: the signal, or for a forward pass sample
    # (n - 2 - k) mod n at cell k
    cells = np.roll(v[::-1], -1) if scan.forward else v
    carry = scan.periodic_carry(lambda lo, hi: cells[lo:hi])
    w = _scan_segments(scan, cells, n, carry, n % scan.p.size != 0)
    # added to gamma v = 0 v as in the plan
    return 0j * v + (w[::-1] if scan.forward else w)


@pytest.mark.parametrize("n", [1, 64, 4096, 4097, 2 * 4096 + 1,
                               3 * 4096 + 17, 2 ** 16])
@pytest.mark.parametrize("z", [0.5 + 0.2j, -0.9j, (1 - 1e-9) * 1j, 1.6 - 0.3j,
                               (1 + 1e-9) * cmath.exp(0.3j), 0j, 1e300])
def test_blocked_shift_pass_is_one_scan_over_the_signal(n, z):
    # blocks of operators._BLOCK samples and Jacobi carries give the bits
    # of one scan over the whole signal
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v[n // 3:n // 2] = 0
    np.testing.assert_array_equal(
        _bits(PeriodicShiftOperator(n).resolvent_solve(z, v)),
        _bits(_whole_signal_shift_resolvent(z, v)))


@pytest.mark.parametrize("z", [0.5 + 0.3j, 0.999j, 1.7, 1.0001])
def test_shift_solve_scales_exactly_with_a_residue_past_the_frame(z):
    # a residue of 2^1000 in the table of 1/p moves a power of two into p;
    # the carries, the tail segment's too, leave the frame out
    n = 3 * 4096 + 17
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    T = PeriodicShiftOperator(n)
    scan = operators._ShiftScan(z, 2.0 ** 1000, n,
                                np.empty((2, n), dtype=complex))
    assert scan.p[0] > 1
    want = T.resolvent_solve(z, v)
    big = operators.InversionPlan(0j, 0j, np.array([z], dtype=complex),
                                  np.array([2.0 ** 1000 + 0j]))
    got = T.apply_plan(big, v * 2.0 ** -990)
    np.testing.assert_array_equal(_bits(got * 2.0 ** -10), _bits(want))


def test_shift_solve_runs_each_signal_on_the_last_axis():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, 3, 4097)) + 1j * rng.standard_normal(
        (2, 3, 4097))
    T = PeriodicShiftOperator(4097)
    for plan in _plans_for_the_shift():
        got = T.apply_plan(plan, v)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(
                _bits(got[idx]), _bits(T.apply_plan(plan, v[idx])))


def test_forward_filter_round_trip_outside_the_circle():
    # characteristic roots 1.6 and 2.4i, equal residues: the plan's zero
    # 0.8 + 1.2i has modulus 1.44, so the shift runs its backward pass
    c = (3.84j, -1.6 - 2.4j, 1.0)
    spec = FilterSpec(c, (-1.6 - 2.4j, 2.0))
    plan = checked_plan(filter_to_series(spec), UnitCircle())
    np.testing.assert_allclose(plan.zeros, [0.8 + 1.2j], rtol=1e-14)
    rng = np.random.default_rng(9)
    for n in [1, 7, 4097, 2 ** 16]:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = invert_filter(spec, forward_filter(spec, x))
        assert np.linalg.norm(back - x) <= 1e-13 * np.linalg.norm(x)


def test_filter_solve_takes_a_block_of_signals_row_by_row():
    # a (2, n) block, n one past a block of the scan: each row has the bits
    # of its own solve, through solve_filter (both passes) and invert_filter
    n = 4097
    rng = np.random.default_rng(n)
    y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    spec = FilterSpec((3.84j, -1.6 - 2.4j, 1.0), (-1.6 - 2.4j, 2.0))
    solves = [functools.partial(solve_filter, plan)
              for plan in _plans_for_the_shift()]
    solves.append(functools.partial(invert_filter, spec))
    for solve in solves:
        got = solve(y)
        assert got.shape == y.shape
        for row, signal in zip(got, y):
            np.testing.assert_array_equal(_bits(row), _bits(solve(signal)))


def test_shift_solve_builds_no_root_table(monkeypatch):
    # the solve and the forward filter take only the root of unity nearest
    # each zero or characteristic root: the filter's two roots are checked
    # once, together, and then solved twice, in the cascade and in its
    # refinement
    sizes = []
    nearest = operators._nearest_unit_roots

    def counted(poles, n):
        sizes.append(np.size(poles))
        return nearest(poles, n)

    monkeypatch.setattr(operators, "_nearest_unit_roots", counted)
    n = 2 ** 12
    plan = _plan_for_blocks()
    PeriodicShiftOperator(n).apply_plan(plan, np.ones(n))
    assert sizes and max(sizes) <= plan.zeros.size
    sizes.clear()
    forward_filter(FilterSpec((0.06, -0.5, 1.0), (1.0, 0.5)), np.ones(n))
    assert sizes == [2]


@pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096, 4097, 3 * 4096 + 17,
                               2 ** 16, 2 ** 20])
def test_nearest_root_is_the_table_entry_bit_for_bit(n):
    # the pole check computes the m roots it needs; at the block edges and
    # the ends they are the entries of all n roots
    table = np.exp(2j * np.pi * np.arange(n) / n)
    edges = [k for b in range(0, n + 4096, 4096) for k in (b - 1, b, b + 1)]
    k = np.unique(np.array(edges + [n // 2, (n + 1) // 2]) % n)
    poles = 1.5 * np.exp(2j * np.pi * k / n)
    np.testing.assert_array_equal(
        _bits(operators._nearest_unit_roots(poles, n)), _bits(table[k]))


def _first_pole_off_the_samples(poles, samples):
    """The pole rule as one pass per pole: the message naming the first
    pole p with min_s |p - s| <= SPECTRUM_EPS * |p|, or None."""
    for p in poles:
        if tolerance.negligible(np.abs(p - samples).min(), p,
                                rtol=tolerance.SPECTRUM_EPS):
            return f"pole {p} lies on or too near the spectrum"
    return None


@st.composite
def planted_pole_sets(draw):
    """(poles, samples): 1 to 8 poles against the eigenvalues of a random
    matrix, the nearest roots of unity of the poles, or xi^2 of a DFT
    grid, with sample counts on both sides of _BLOCK poles times samples;
    some poles are planted on a sample or near it (the spectrum's own
    rounding), at the origin or past the rule's gap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["eigenvalues", "unit_roots", "xi2"]))
    bound = operators._BLOCK // m
    n = draw(st.sampled_from([1, 2, 16, bound, bound + 1, 3 * bound]))
    scale = 2.0 ** draw(st.integers(-80, 80))
    poles = scale * (rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m))
    if kind == "eigenvalues":
        samples = np.linalg.eigvals(
            scale * (rng.standard_normal((min(n, 40),) * 2) + 0j))
    elif kind == "unit_roots":
        poles /= scale
        samples = None  # each pole's nearest root, after the planting
    else:
        samples = operators._squared_frequencies(n, 8.0 * scale)
    for i in range(m):
        plant = draw(st.sampled_from(["none", "none", "on", "near",
                                      "outside", "origin"]))
        if plant == "origin":
            poles[i] = 0.0
        elif plant != "none":
            if kind == "unit_roots":
                target = np.exp(2j * np.pi * rng.integers(n) / max(n, 1))
            else:
                target = samples[rng.integers(samples.size)]
            rel = {"on": 0.0, "near": 0.5e-10, "outside": 2e-10}[plant]
            poles[i] = target * (1.0 + rel)
    if kind == "unit_roots":
        samples = operators._nearest_unit_roots(poles, max(n, 1))
    return poles, samples


@given(planted_pole_sets())
@settings(max_examples=300, deadline=None)
def test_symbol_gap_keeps_the_one_pole_rule(case):
    # the blocks of poles (all in one, several, or one pole each, by how
    # many samples the _BLOCK entries hold) raise as the rule applied
    # pole by pole, naming the same first pole
    poles, samples = case
    want = _first_pole_off_the_samples(poles, samples)
    for block in (operators._BLOCK, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "_BLOCK", block)
            if want is None:
                operators._check_symbol_gap(poles, samples)
            else:
                with pytest.raises(SingularResolventError) as err:
                    operators._check_symbol_gap(poles, samples)
                assert str(err.value) == want


@pytest.mark.parametrize("n", [64, 4096, 4097, 4098, 2 * 4096 + 1,
                               2 * 4096 + 2, 3 * 4096 + 17, 2 ** 16])
def test_convolution_and_volterra_solves_are_the_whole_array_expressions(n):
    rng = np.random.default_rng(n)
    plan = _plan_for_blocks()
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    period = 8.0
    xi = np.fft.fftfreq(n, d=period / (2.0 * np.pi * n))
    want = np.fft.ifft(_whole_array_product(plan, xi * xi, np.fft.fft(y)))
    np.testing.assert_array_equal(
        _bits(operators.solve_convolution(plan, y, period)), _bits(want))

    g = GridDerivativeOperator(0.0, 10.0, n)
    kernel = ResolventSeries(((1.0, 1.0), (0.5, 2.0 + 0.5j)))
    vplan = invert_to_plan(kernel)
    want = vplan.gamma * y + vplan.beta * np.gradient(y, g.dt, edge_order=2)
    for zk, ck in zip(vplan.zeros, vplan.residues):
        want[:-1] += _whole_array_resolvent(g, zk, y, ck)
    np.testing.assert_array_equal(_bits(apply_plan(vplan, g, y)), _bits(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4096, 4097, 8194])
def test_convolution_half_symbol_is_the_full_one_bit_for_bit(n):
    # the plan on the n // 2 + 1 distinct xi^2, mirrored to n - k, against
    # the whole-array product over all n of them; at n = 8194 the last block of
    # the half mirrors one sample
    rng = np.random.default_rng(n)
    plan = _plan_for_blocks()
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xi = np.fft.fftfreq(n, d=8.0 / (2.0 * np.pi * n))
    want = np.fft.ifft(_whole_array_product(plan, xi * xi, np.fft.fft(y)))
    np.testing.assert_array_equal(
        _bits(operators.solve_convolution(plan, y, 8.0)), _bits(want))


# --- the blocked backward pass of the grid ----------------------------------
# The grid scans its recurrences over blocks of operators._BLOCK samples,
# on segments that the grid fixes.  The references are whole-array
# expressions: one scan over the whole grid per zero, segment by segment
# with the pass's tables, and gamma v + beta v' + h on whole arrays.

GRID_SIZES = [3, 64, 4096, 4097, 4098, 2 * 4096 + 1, 2 * 4096 + 2,
              3 * 4096 + 2, 3 * 4096 + 17, 2 ** 16]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 9000), re=st.floats(-8.0, 1.0),
       im=st.floats(-4.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
@example(n=4097, re=-4.0, im=3.1, seed=0)
def test_grid_resolvent_is_backward_stable(n, re, im, seed):
    # x = alpha dt = 10^re + i im on [0, 10]; the recurrence
    # w_i = e w_i+1 + cell_i with e = exp(-x) and the cells of
    # _cell_weights.  Tables of exp(x j) with x j rounded gave 43 eps at the
    # example and hundreds of eps at |Im x| near 4
    g = GridDerivativeOperator(0.0, 10.0, n)
    alpha = complex(10.0 ** re, im) / g.dt
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = g.resolvent_solve(alpha, v)
    e = cmath.exp(-(alpha * g.dt))
    i0, i1_d = operators._cell_weights(alpha, g.dt)
    cells = v[:-1] * i0 + (v[1:] - v[:-1]) * i1_d
    assert _backward_error(w[:-1] - e * w[1:] - cells, w, cells, 1.0) <= 8


@settings(max_examples=200, deadline=None)
@given(re=st.one_of(st.just(0.0), st.just(math.inf),
                    st.floats(-12.0, 2.0).map(lambda u: 10.0 ** u)),
       im=st.floats(-math.pi, math.pi),
       cells=st.sampled_from([1, 2, 63, 64, 65, 100, 4095, 4096, 5000]),
       scale=st.floats(-100.0, 100.0), turn=st.floats(-0.5, 0.5))
def test_scan_tables_are_powers_of_one_e(re, im, cells, scale, turn):
    # p_j qi_j = i0, p_j+1 = e p_j and e_l = e p_L-1 for e = exp(-x), each
    # to 8 eps; x infinite is e = 0
    x = complex(re, im)
    i0 = 10.0 ** scale * cmath.exp(2j * cmath.pi * turn)
    scan = operators._ZeroScan(x, i0, 1.0, cells,
                               np.empty((2, operators._BLOCK + 1), complex))
    p, qi = scan.p, scan.qi
    e = cmath.exp(-x)
    assert np.abs(p * qi - i0).max() <= 8 * EPS * abs(i0)
    assert (np.abs(p[1:] - e * p[:-1]) <= 8 * EPS * np.abs(p[1:])).all()
    assert abs(scan.e_l - e * p[-1]) <= 8 * EPS * abs(scan.e_l)


def _scan_segments(scan, cells, n, carry, alone):
    """c w of ``scan`` on the whole array of cells, segment by segment from
    its end, with the pass's tables (c in the table of 1/p), entering with
    ``carry`` (None for w = 0 past the last cell).  A segment's carry joins
    its last cell before its cumsum where the pass has it at hand: the last
    segment, one ending at a block's end and the one before a last segment
    that its block runs ``alone``; elsewhere, between the full segments of
    one block, it is added after the cumsum."""
    L = scan.p.size
    ends = {s.start for s in operators._block_spans(n)} | {cells.size}
    last = (cells.size - 1) // L
    w = np.empty(cells.size, dtype=complex)
    for i in reversed(range(last + 1)):
        lo = i * L
        seg = cells[lo:lo + L]
        prod = seg * scan.p[:seg.size]
        folded = lo + seg.size in ends or (i == last - 1 and alone)
        if carry is not None and folded:
            # e^m for a segment of m cells: p_m over the frame's p_0
            p_m = scan.e_l if seg.size == L else scan.p[seg.size] / scan.p[0]
            prod[-1] += p_m * carry
        u = np.cumsum(prod[::-1])[::-1]
        if carry is not None and not folded:
            u = u + np.multiply([carry], scan.e_l)
        w[lo:lo + seg.size] = u * scan.qi[:seg.size]
        carry = u[0]
    return w


def _whole_array_resolvent(g, alpha, v, ck=1.0):
    """ck (alpha - d/dt)^{-1} v on the n - 1 cells, as one scan over the
    whole grid: the last segment runs alone in its block, from w = 0."""
    scan = operators._ZeroScan.grid(alpha, ck, g.dt, v.size - 1,
                                    np.empty((2, v.size), dtype=complex))
    y = (v[1:] - v[:-1]) * scan.rho + v[:-1]
    return _scan_segments(scan, y, v.size, None, True)


def _whole_array_grid_plan(plan, g, v):
    """(gamma v + beta v') + c_1 w_1 + ..., the zeros' terms on the cells."""
    out = plan.gamma * v
    if plan.beta != 0:
        out = out + plan.beta * np.gradient(v, g.dt, edge_order=2)
    for zk, ck in zip(plan.zeros, plan.residues):
        out[:-1] += _whole_array_resolvent(g, zk, v, ck)
    return out


GRID_PLANS = {
    # beta != 0 and two zeros
    "plan": invert_to_plan(ResolventSeries(((1.0, 1.0), (0.5, 2.0 + 0.5j),
                                            (0.7, 0.6 - 0.3j)))),
    # a series: beta = 0
    "series": operators._series_plan(
        ResolventSeries(((1.0, 1.0), (0.5, 2.0 + 0.5j)))),
    # one term: beta != 0 and no zeros
    "one term": invert_to_plan(ResolventSeries(((1.0, 1.5),))),
}


@pytest.mark.parametrize("n", GRID_SIZES)
def test_grid_resolvent_is_the_whole_grid_scan_bit_for_bit(n):
    rng = np.random.default_rng(n)
    g = GridDerivativeOperator(0.0, 10.0, n)
    # a product of one element rounds differently in place, which shows in
    # the output only in some draws: each size takes nine
    for alpha in np.repeat([0.8 + 0.4j, 2.0 - 1.0j, 0.05 + 3.0j], 3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v_before = v.copy()
        np.testing.assert_array_equal(
            _bits(g.resolvent_solve(alpha, v)),
            _bits(_whole_array_grid_plan(_one_zero_plan(alpha), g, v)))
        np.testing.assert_array_equal(v, v_before)


# Re(alpha dt) about 0.05, 1, 60 and 900: segments of 1024, 64 and one
# cell, the last with e = 0, several to a block; a run of zero samples
# leaves carries that only decay, the longest chains of Jacobi sweeps
@pytest.mark.parametrize("r", [0.05, 1.0, 60.0, 900.0])
@pytest.mark.parametrize("n", [4098, 2 * 4096 + 1, 3 * 4096 + 17])
def test_short_segments_are_the_whole_grid_scan_bit_for_bit(n, r):
    rng = np.random.default_rng(n)
    g = GridDerivativeOperator(0.0, 10.0, n)
    alpha = r * (1.0 + 0.5j) / g.dt
    for _ in range(2):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[1000:3000] = 0
        np.testing.assert_array_equal(
            _bits(g.resolvent_solve(alpha, v)),
            _bits(_whole_array_grid_plan(_one_zero_plan(alpha), g, v)))


@pytest.mark.parametrize("kind", sorted(GRID_PLANS))
@pytest.mark.parametrize("n", GRID_SIZES)
def test_grid_plan_is_the_whole_array_expression_bit_for_bit(n, kind):
    plan = GRID_PLANS[kind]
    if kind == "series":
        assert plan.beta == 0
    if kind == "one term":
        assert plan.zeros.size == 0 and plan.beta != 0
    rng = np.random.default_rng(n)
    g = GridDerivativeOperator(0.0, 10.0, n)
    for _ in range(3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_array_equal(
            _bits(g.apply_plan(plan, v)),
            _bits(_whole_array_grid_plan(plan, g, v)))


@pytest.mark.parametrize("solve", ["apply_plan", "resolvent_solve"])
def test_grid_pass_holds_one_output_and_cache_sized_temporaries(solve):
    # the whole-array solves peaked at 4 (plan) and 3 (resolvent) arrays of
    # n complex samples; the blocked pass at the output and its blocks
    import tracemalloc
    n = 2 ** 18
    g = GridDerivativeOperator(0.0, 10.0, n)
    v = np.exp(-g.t) + 1j * np.cos(g.t)
    plan = GRID_PLANS["plan"]
    run = {"apply_plan": lambda: g.apply_plan(plan, v),
           "resolvent_solve": lambda: g.resolvent_solve(1.0 + 1.0j, v)}[solve]
    run()  # first-call set-up is not the solve's memory
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * n


def test_filter_solve_holds_one_output_and_cache_sized_temporaries():
    # the signal read as T^-1 y through the cells' indexing: no rolled copy
    # of n samples beside the output (2.13 arrays of n with it)
    import tracemalloc
    n = 2 ** 18
    plan = _plans_for_the_shift()[1]
    assert plan.zeros.size == 2
    y = np.exp(-np.arange(n) / n) + 1j * np.cos(np.arange(n) / 7.0)
    solve_filter(plan, y)  # first-call set-up is not the solve's memory
    tracemalloc.start()
    try:
        solve_filter(plan, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * n


def test_grid_pass_raises_when_the_solution_leaves_the_float_range():
    # only the first block overflows, and the backward pass reaches it last
    n = 3 * 4096 + 17
    g = GridDerivativeOperator(0.0, 10.0, n)
    v = np.ones(n, dtype=complex)
    v[:10] = 1e308
    plan = operators.InversionPlan(10.0 + 0j, 0j, np.array([1.0 + 0j]),
                                   np.array([1.0 + 0j]))
    with pytest.raises(ConditioningError, match="float range"):
        g.apply_plan(plan, v)
    v[:10] = 1.0
    assert np.isfinite(g.apply_plan(plan, v)).all()


def test_solves_past_the_float_range_raise_without_a_warning():
    # one pole at 0 with a = 1/1.12e307: beta = -1.12e307 takes the demo
    # filter output, up to 1.00002 in modulus, to 1.12e307 and 32 times
    # that output past the float range; RuntimeWarnings are errors here
    xf = np.zeros(16, dtype=complex)
    xf[0] = 1.0
    y = forward_filter(FilterSpec((-0.5, 1.0), (1.0,)), xf)
    spec = FilterSpec((0, 1.1235410651512325e307j), (1j,))
    assert np.isfinite(invert_filter(spec, y)).all()
    with pytest.raises(ConditioningError, match="float range"):
        invert_filter(spec, 32.0 * y)

    big = operators.InversionPlan(1e308 + 0j, 0j, np.array([3.0 + 0j]),
                                  np.array([1e308 + 0j]))
    with pytest.raises(ConditioningError, match="float range"):
        solve_convolution(big, 1e10 * np.ones(8), 8.0)
    A = DenseMatrixOperator(np.diag([-1.0, -2.0]))
    with pytest.raises(ConditioningError, match="float range"):
        apply_plan(big, A, [1e10, 1.0])


def test_dense_plan_checks_its_vector_once(monkeypatch):
    A = DenseMatrixOperator(np.diag([-1.0, -2.0, -3.0]))
    plan = invert_to_plan(ResolventSeries(((1.0, 1.0), (1.0, 2.0 + 1j))))
    assert plan.beta != 0
    calls = []
    check = DenseMatrixOperator.checked_vector

    def counted(self, v):
        calls.append(v)
        return check(self, v)

    monkeypatch.setattr(DenseMatrixOperator, "checked_vector", counted)
    apply_plan(plan, A, [1.0, 2.0, 3.0])
    assert len(calls) == 1


# --- one checked solve path -------------------------------------------------


def test_checked_solvers_are_their_plan_only_expressions_bit_for_bit():
    rng = np.random.default_rng(17)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)

    # characteristic roots 0.5 and -0.3, both transfer residues 1
    spec = FilterSpec((-0.15, -0.2, 1.0), (-0.2, 2.0))
    plan = checked_plan(filter_to_series(spec), UnitCircle())
    np.testing.assert_array_equal(_bits(invert_filter(spec, y)),
                                  _bits(solve_filter(plan, y)))

    terms = [(-0.5, -1j), (0.25j / (1.5 - 0.5j), 1.5 - 0.5j)]
    plan = checked_plan(convolution_series(terms), PositiveHalfLine())
    np.testing.assert_array_equal(
        _bits(solve_even_convolution(terms, y, 8.0)),
        _bits(solve_convolution(plan, y, 8.0)))

    grid = GridDerivativeOperator(0.0, 10.0, 64)
    kernel = ResolventSeries(((1.0, 1.0), (0.5, 2.0 + 0.5j)))
    plan = checked_plan(kernel, ImaginaryAxis())
    x, boundary = solve_exponential_volterra(kernel, y, grid)
    np.testing.assert_array_equal(_bits(x), _bits(apply_plan(plan, grid, y)))
    assert boundary == abs(y[-1])


def test_forward_convolution_is_the_series_applied_to_the_spectrum():
    # the forward map is solve_convolution of the series as a plan: the
    # bits of the multiplier's apply_series between an FFT pair
    terms = [(-0.5, -1j), (0.25j / (1.5 - 0.5j), 1.5 - 0.5j)]
    x = np.cos(np.arange(100) / 7.0) + 0.5j * np.sin(np.arange(100) / 3.0)
    xi = np.fft.fftfreq(100, d=8.0 / (2.0 * np.pi * 100))
    want = np.fft.ifft(apply_series(convolution_series(terms),
                                    MultiplierOperator(xi * xi),
                                    np.fft.fft(x)))
    np.testing.assert_array_equal(_bits(forward_even_convolution(terms, x,
                                                                 8.0)),
                                  _bits(want))


def _shift_solve(A, zk, v):
    """(zk I - A)^{-1} v on its own: up to the batched path's rows one
    ``np.linalg.solve`` of -A with zk added on its diagonal, above it
    ``zgetrs`` on the cached LU."""
    if A.dim > operators._BATCHED_DIM:
        return A._solve(zk, v)
    shifted = -A.matrix
    shifted[np.diag_indices(A.dim)] += zk
    return np.linalg.solve(shifted, v)


@pytest.mark.parametrize("n", [operators._BATCHED_DIM,
                               operators._BATCHED_DIM + 1])
@pytest.mark.parametrize("k", [0, 3])
def test_dense_apply_plan_is_the_sum_of_per_shift_solves(n, k):
    rng = np.random.default_rng(k)
    A = DenseMatrixOperator(matrix_with_eigenvalues(
        rng, -1.0 - np.arange(n) / n))
    plan = invert_to_plan(ResolventSeries(((1.0, 2.0), (0.5, 3.0 + 1j),
                                           (2.0, 4.0 - 0.5j))))
    shape = (n, k) if k else (n,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = np.zeros_like(v)
    for zk, ck in zip(plan.zeros, plan.residues):
        h += ck * _shift_solve(A, zk, v)
    want = plan.gamma * v + plan.beta * (A.matrix @ v) + h
    np.testing.assert_array_equal(_bits(apply_plan(plan, A, v)), _bits(want))


# --- one solve path per operator --------------------------------------------
# A resolvent solve is the plan with gamma = beta = 0, one zero alpha and
# residue 1, applied by the operator's apply_plan; every operator takes its
# vector by one input rule and raises past the float range.

ONE_PATH_SERIES = ResolventSeries(((1.0, 2.0), (0.5, 3.0 + 1j)))
ONE_PATH_CALLS = {
    "apply_plan": lambda A, v: A.apply_plan(invert_to_plan(ONE_PATH_SERIES),
                                            v),
    "resolvent_solve": lambda A, v: A.resolvent_solve(3.0 + 1j, v),
    "apply_series": lambda A, v: apply_series(ONE_PATH_SERIES, A, v),
}


def _one_zero_plan(alpha):
    return operators.InversionPlan(0j, 0j, np.array([alpha], dtype=complex),
                                   np.ones(1, dtype=complex))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_resolvent_solve_is_the_inherited_one_zero_plan(backend):
    A = BACKENDS[backend]()
    assert vars(type(A))["resolvent_solve"] is OperatorHandle.resolvent_solve
    rng = np.random.default_rng(19)
    shapes = {"dense": [(N,), (N, 3)], "multiplier": [(N,), (3, N)],
              "shift": [(N,), (3, N)], "grid": [(N,)]}[backend]
    for shape in shapes:
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for alpha in (2.0, 3.0 + 1j):
            np.testing.assert_array_equal(
                _bits(A.resolvent_solve(alpha, v)),
                _bits(A.apply_plan(_one_zero_plan(alpha), v)))


def test_only_the_dense_matrix_has_solve_and_apply_helpers():
    for name in ("_solve", "_apply"):
        assert not hasattr(OperatorHandle, name)
        assert name in vars(DenseMatrixOperator)


@pytest.mark.parametrize("A", [
    PeriodicShiftOperator(8),
    MultiplierOperator(np.exp(2j * np.pi * np.arange(8) / 8)),
], ids=["shift", "multiplier"])
def test_resolvent_solve_past_the_float_range_raises_without_a_warning(A):
    # RuntimeWarnings are errors in this suite: the division by
    # alpha - 1 = 1e-9 must not warn on its way to the typed error
    with pytest.raises(ConditioningError, match="float range"):
        A.resolvent_solve(1.0 + 1e-9, np.full(8, 1e305))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf),
                                 complex(np.nan, 1.0)])
@pytest.mark.parametrize("call", sorted(ONE_PATH_CALLS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_nonfinite_vector_is_an_invalid_input_on_every_operator(backend,
                                                                call, bad):
    A = BACKENDS[backend]()
    v = np.ones(N, dtype=complex)
    v[3] = bad
    with pytest.raises(InvalidInputError, match="NaN or infinite"):
        ONE_PATH_CALLS[call](A, v)


@pytest.mark.parametrize("call", sorted(ONE_PATH_CALLS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_strided_vector_is_accepted_on_every_operator(backend, call):
    A = BACKENDS[backend]()
    v = (np.arange(2.0 * N) + 1j)[::2]
    assert not v.flags.c_contiguous
    got = ONE_PATH_CALLS[call](A, v)
    want = ONE_PATH_CALLS[call](A, v.copy())
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_forward_filter_rejects_a_nonfinite_input_and_an_overflow():
    spec = FilterSpec((-0.5, 1.0), (1.0,))
    x = np.ones(16, dtype=complex)
    x[2] = np.nan
    with pytest.raises(InvalidInputError, match="NaN or infinite"):
        forward_filter(spec, x)
    # the solve of a finite x overflows: a typed error, without a warning
    with pytest.raises(ConditioningError, match="float range"):
        forward_filter(spec, np.full(16, 1e308))


def test_convolution_checks_its_signal_before_the_fft():
    terms = [(-0.5, -1j), (0.25j / (1.5 - 0.5j), 1.5 - 0.5j)]
    plan = operators._series_plan(convolution_series(terms))
    y = np.ones(16, dtype=complex)
    y[5] = np.inf
    with pytest.raises(InvalidInputError, match="NaN or infinite"):
        solve_convolution(plan, y, 8.0)
    with pytest.raises(InvalidInputError, match="NaN or infinite"):
        forward_even_convolution(terms, y, 8.0)
    # a finite y whose FFT overflows is past the float range instead
    with pytest.raises(ConditioningError, match="float range"):
        solve_convolution(plan, np.full(16, 1e308), 8.0)
