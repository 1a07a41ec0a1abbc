import cmath

import numpy as np
import pytest

from conftest import (
    assemble_plan,
    assemble_series,
    matrix_with_eigenvalues,
    random_theorem_series,
)
from resolvinv import operators
from resolvinv.errors import SingularResolventError
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    MultiplierOperator,
    PeriodicShiftOperator,
    apply_plan,
    apply_series,
)
from resolvinv.rational import invert_to_plan
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
