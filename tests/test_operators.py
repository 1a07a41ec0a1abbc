import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
        d = g.dt
        e = cmath.exp(-alpha * d)
        i0 = (1.0 - e) / alpha
        i1 = (1.0 - (1.0 + alpha * d) * e) / (alpha * alpha)
        v = v.tolist()
        w = [0j] * len(v)
        for i in range(len(v) - 2, -1, -1):
            cell = (v[i + 1] - v[i]) * (i1 / d) + v[i] * i0
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
        # the zero term's pole 2 lies on the spectrum; like
        # ResolventSeries.pruned, every operator drops the term
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
        want += ck * g.resolvent_solve(zk, y)
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
# A multiplier and the shift multiply (1/f)(symbol) into the vector in blocks
# of operators._BLOCK samples.  The references below are the whole-array
# expressions the two used before: ``r **= -1`` in the plan's evaluation and
# one product over every sample.

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
        # in place, as the shift runs it on its spectrum
        operators._plan_product(plan, symbol, v, v)
        np.testing.assert_array_equal(_bits(v), want)


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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 4095, 4096])
def test_unit_roots_up_to_one_block_are_np_exp(n):
    np.testing.assert_array_equal(
        _bits(PeriodicShiftOperator(n).symbol),
        _bits(np.exp(2j * np.pi * np.arange(n) / n)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("n", [4097, 6143, 8191, 3 * 4096 + 17, 2 ** 16,
                               2 ** 20])
def test_unit_roots_past_one_block_are_within_4_eps(n):
    # the exact roots, from the angles 2 pi k / n in extended precision;
    # np.exp's own roots are up to 7.4 eps off them (at n = 12305), since
    # its angle 2 pi k * (1/n) carries two roundings of up to 2 pi eps
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    theta = two_pi * np.arange(n, dtype=np.longdouble) / n
    exact_re, exact_im = np.cos(theta), np.sin(theta)
    got = PeriodicShiftOperator(n).symbol
    err = np.hypot((got.real - exact_re).astype(float),
                   (got.imag - exact_im).astype(float))
    assert err.max() <= 4 * EPS
    ref = np.exp(2j * np.pi * np.arange(n) / n)
    assert np.abs(got - ref).max() <= 12 * EPS


def _parent_filter_solve(plan, y):
    n = y.size
    symbol = np.exp(2j * np.pi * np.arange(n) / n)
    return np.fft.ifft(_whole_array_product(
        plan, symbol, np.fft.fft(-np.roll(y, 1))))


@pytest.mark.parametrize("n", [1, 64, 4095, 4096, 4097, 3 * 4096 + 17,
                               2 ** 16])
def test_filter_solve_matches_the_whole_array_expression(n):
    # bit for bit while the roots are np.exp's (n <= 4096), and to the
    # rounding of the table's roots beyond
    rng = np.random.default_rng(n)
    plan = _plan_for_blocks()
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = solve_filter(plan, y)
    want = _parent_filter_solve(plan, y)
    if n <= 4096:
        np.testing.assert_array_equal(_bits(got), _bits(want))
    else:
        assert (np.linalg.norm(got - want)
                <= 1e-15 * np.linalg.norm(want))


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
        want += ck * g.resolvent_solve(zk, y)
    np.testing.assert_array_equal(_bits(apply_plan(vplan, g, y)), _bits(want))


# --- the blocked backward pass of the grid ----------------------------------
# The grid solves its recurrences over blocks of operators._BLOCK samples,
# each block's band system one sample longer than the block for the carry.
# The references are the whole-array expressions it used before: one band
# solve over the grid per zero, and gamma v + beta v' + h on whole arrays.

GRID_SIZES = [3, 64, 4096, 4097, 4098, 2 * 4096 + 1, 2 * 4096 + 2,
              3 * 4096 + 2, 3 * 4096 + 17, 2 ** 16]


def _whole_array_resolvent(g, alpha, v):
    """(alpha - d/dt)^{-1} v as one (2, n - 1) band solve over the grid."""
    from scipy.linalg.lapack import ztbtrs
    alpha = complex(alpha)
    d = g.dt
    e = np.exp(-alpha * d)
    i0 = (1.0 - e) / alpha
    i1 = (1.0 - (1.0 + alpha * d) * e) / (alpha * alpha)
    out = np.empty(v.size, dtype=complex)
    cells = out[:-1]
    np.subtract(v[1:], v[:-1], out=cells)
    cells *= i1 / d
    cells += v[:-1] * i0
    out[-1] = 0.0
    band = np.zeros((2, cells.size), dtype=complex, order="F")
    band[0, 1:] = -e
    _, info = ztbtrs(band, cells, uplo="U", diag="U", overwrite_b=True)
    assert info == 0
    return out


def _whole_array_grid_plan(plan, g, v):
    h = np.zeros_like(v)
    for zk, ck in zip(plan.zeros, plan.residues):
        h += ck * _whole_array_resolvent(g, zk, v)
    out = plan.gamma * v
    if plan.beta != 0:
        out = out + plan.beta * np.gradient(v, g.dt, edge_order=2)
    return out + h


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
def test_grid_resolvent_is_the_whole_array_band_solve_bit_for_bit(n):
    rng = np.random.default_rng(n)
    g = GridDerivativeOperator(0.0, 10.0, n)
    # a product of one element rounds differently in place, which shows in
    # the output only in some draws: each size takes nine
    for alpha in np.repeat([0.8 + 0.4j, 2.0 - 1.0j, 0.05 + 3.0j], 3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v_before = v.copy()
        np.testing.assert_array_equal(
            _bits(g.resolvent_solve(alpha, v)),
            _bits(_whole_array_resolvent(g, alpha, v)))
        np.testing.assert_array_equal(v, v_before)


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
    run()  # scipy's import inside the solve is not the solve's memory
    tracemalloc.start()
    try:
        run()
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
    # filter output past the float range; RuntimeWarnings are errors here
    xf = np.zeros(16, dtype=complex)
    xf[0] = 1.0
    y = forward_filter(FilterSpec((-0.5, 1.0), (1.0,)), xf)
    with pytest.raises(ConditioningError, match="float range"):
        invert_filter(FilterSpec((0, 1.1235410651512325e307j), (1j,)), y)

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


@pytest.mark.parametrize("k", [0, 3])
def test_dense_apply_plan_is_the_inherited_method(k):
    assert "apply_plan" not in vars(DenseMatrixOperator)
    assert DenseMatrixOperator.apply_plan is OperatorHandle.apply_plan
    n = 9
    rng = np.random.default_rng(k)
    A = DenseMatrixOperator(matrix_with_eigenvalues(
        rng, -1.0 - np.arange(n) / n))
    plan = invert_to_plan(ResolventSeries(((1.0, 2.0), (0.5, 3.0 + 1j),
                                           (2.0, 4.0 - 0.5j))))
    shape = (n, k) if k else (n,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # the expression of the method DenseMatrixOperator defined before
    h = np.zeros_like(v)
    for zk, ck in zip(plan.zeros, plan.residues):
        h += ck * A._solve(zk, v)
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
    MultiplierOperator(PeriodicShiftOperator(8).symbol),
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
    # the FFT of a finite x overflows: a typed error, without a warning
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
