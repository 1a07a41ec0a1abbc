from collections import Counter

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_with_eigenvalues, random_theorem_series
from resolvinv import operators
from resolvinv.errors import (
    ConditioningError,
    InvalidInputError,
    SingularOperatorError,
    SingularResolventError,
)
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    MultiplierOperator,
    PeriodicShiftOperator,
    apply_plan,
    apply_series,
    forward_exponential_volterra,
)
from resolvinv.rational import InversionPlan, invert_to_plan
from resolvinv.regularize import (
    RegularizerConfig,
    convergence_sweep,
    regularized_apply,
    tikhonov_apply,
)
from resolvinv.series import ResolventSeries


class TestTikhonovApply:
    def test_identity_halves(self):
        # K = I, alpha = 1: (I + I) x = y  =>  x = y / 2
        y = np.array([1.0, 0.0, 0.0])
        x = tikhonov_apply(np.eye(3), 1.0, y)
        assert np.allclose(x, y / 2)

    def test_diagonal_filter_factors(self):
        # for K = diag(sigma): x_i = conj(sigma_i) y_i / (alpha + |sigma_i|^2)
        sigma = np.array([2.0, 0.5, 1j])
        y = np.array([1.0, 1.0, 1.0], dtype=complex)
        alpha = 0.3
        x = tikhonov_apply(np.diag(sigma), alpha, y)
        expect = np.conj(sigma) * y / (alpha + np.abs(sigma) ** 2)
        assert np.allclose(x, expect, atol=1e-13)

    def test_small_alpha_near_inverse(self):
        rng = np.random.default_rng(2)
        K = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        y = rng.standard_normal(4)
        x = tikhonov_apply(K, 1e-10, y)
        assert np.allclose(x, np.linalg.solve(K, y.astype(complex)),
                           atol=1e-6)

    def test_normal_equations_positive_definite(self):
        rng = np.random.default_rng(4)
        K = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        alpha = 0.7
        lhs = alpha * np.eye(5) + K.conj().T @ K
        eigs = np.linalg.eigvalsh(lhs)
        assert np.min(eigs) >= alpha - 1e-12

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            tikhonov_apply(np.eye(2), 0.0, np.ones(2))

    def test_rank_deficient_and_rectangular(self):
        # a zero singular value of K gets the filter factor 0
        x = tikhonov_apply(np.diag([2.0, 0.0]), 0.5, np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [2.0 / 4.5, 0.0], atol=1e-15)
        rng = np.random.default_rng(3)
        K = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        expect = np.linalg.solve(0.1 * np.eye(4) + K.T @ K, K.T @ y)
        np.testing.assert_allclose(tikhonov_apply(K, 0.1, y), expect,
                                   rtol=1e-12)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_svd(rng, sigma):
    """(A, U0, V0) with A = U0 diag(sigma) V0^H for random unitary U0, V0."""
    n = len(sigma)
    u0, v0 = random_unitary(rng, n), random_unitary(rng, n)
    return (u0 * sigma) @ v0.conj().T, u0, v0


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class TestRegularizedApply:
    def test_limit_matches_plan(self):
        rng = np.random.default_rng(6)
        s = random_theorem_series(rng, 2, 5)
        plan = invert_to_plan(s)
        m = matrix_with_eigenvalues(rng, 4.0 + rng.uniform(0, 2, 6))
        A = DenseMatrixOperator(m)
        y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        exact = apply_plan(plan, A, y)
        approx = regularized_apply(plan, A, 1e-12, y)
        assert np.linalg.norm(approx - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_round_trip_small_alpha(self):
        rng = np.random.default_rng(8)
        s = random_theorem_series(rng, 2, 4)
        plan = invert_to_plan(s)
        m = matrix_with_eigenvalues(rng, 5.0 + rng.uniform(0, 1, 5))
        A = DenseMatrixOperator(m)
        x = rng.standard_normal(5)
        y = apply_series(s, A, x)
        x_rec = regularized_apply(plan, A, 1e-10, y)
        assert np.linalg.norm(x_rec - x) <= 1e-6 * np.linalg.norm(x)

    def test_zero_data(self):
        s = random_theorem_series(np.random.default_rng(10), 2, 3)
        plan = invert_to_plan(s)
        A = DenseMatrixOperator(np.diag([5.0, 6.0, 7.0]))
        assert np.allclose(regularized_apply(plan, A, 0.1, np.zeros(3)), 0.0)

    def test_regularized_term_past_the_float_range(self):
        # beta R_alpha y = 1e308 * 1e308 / (1 + 1e-300) leaves the float
        # range, though beta and y are taken in their frames
        plan = InversionPlan(0j, 1e308 + 0j, np.empty(0, complex),
                             np.empty(0, complex))
        A = DenseMatrixOperator(np.eye(3))
        with pytest.raises(ConditioningError, match="float range"):
            regularized_apply(plan, A, 1e-300, np.full(3, 1e308))

    def test_singular_operator_rejected(self):
        s = random_theorem_series(np.random.default_rng(12), 2, 3)
        plan = invert_to_plan(s)
        A = DenseMatrixOperator(np.diag([5.0, 6.0, 0.0]))
        with pytest.raises(SingularOperatorError):
            regularized_apply(plan, A, 0.1, np.ones(3))

    @pytest.mark.parametrize("alpha", [1e-2, 1e-6, 1e-10])
    def test_filter_factors_on_planted_svd(self, alpha):
        # sigma over [1, 1e6]: K^H K would square cond(K) = 1e6, the filter
        # factors on one SVD lose rounding only
        rng = np.random.default_rng(30)
        sigma = np.logspace(0, 6, 100)
        m, u0, v0 = planted_svd(rng, sigma)
        y = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        beta = -1.5
        plan = InversionPlan(0.0, beta, np.empty(0, complex),
                             np.empty(0, complex))
        got = regularized_apply(plan, DenseMatrixOperator(m), alpha, y)
        want = beta * u0 @ (sigma / (1 + alpha * sigma ** 2)
                            * (v0.conj().T @ y))
        assert _rel(got, want) <= 1e-10


def singular_cases():
    rng = np.random.default_rng(32)
    near, _, _ = planted_svd(rng, np.logspace(0, -14, 6))
    return {"sigma_ratio_1e-14": near}


class TestSingularRule:
    @pytest.mark.parametrize("case", ["sigma_ratio_1e-14"])
    def test_both_entry_points_raise(self, case):
        m = singular_cases()[case]
        s = ResolventSeries(((1.0, 1.0), (0.5, 2.0 + 1j)))
        plan = invert_to_plan(s)
        with pytest.raises(SingularOperatorError):
            regularized_apply(plan, DenseMatrixOperator(m), 1e-3, np.ones(6))
        with pytest.raises(SingularOperatorError):
            convergence_sweep(s, plan, DenseMatrixOperator(m), np.ones(6),
                              RegularizerConfig((1e-2, 1e-4)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_ratio=st.sampled_from([-16, -14, -13, -11, -9, -6, 0]),
           k=st.integers(-12, 12))
    def test_decision_does_not_change_under_rescaling(self, seed, log_ratio,
                                                      k):
        rng = np.random.default_rng(seed)
        m, _, _ = planted_svd(rng, np.logspace(0, log_ratio, 5))
        plan = InversionPlan(0.0, 1.0, np.empty(0, complex),
                             np.empty(0, complex))

        def singular(c):
            try:
                regularized_apply(plan, DenseMatrixOperator(c * m), 1e-3,
                                  np.ones(5))
            except SingularOperatorError:
                return True
            return False

        assert singular(1.0) == (log_ratio <= -13)
        assert singular(10.0 ** k) == singular(1.0)


def test_plan_zero_on_spectrum_rejected():
    # f = 1/(1 - z) + 1/(3 - z) vanishes at 2, an eigenvalue of A, so the
    # remainder's resolvent at 2 is singular
    s = ResolventSeries(((1.0, 1.0), (1.0, 3.0)))
    plan = invert_to_plan(s)
    assert plan.zeros == pytest.approx([2.0])
    A = DenseMatrixOperator(np.diag([2.0, 6.0, 7.0]))
    with pytest.raises(SingularResolventError):
        regularized_apply(plan, A, 1e-3, np.ones(3))
    with pytest.raises(SingularResolventError):
        convergence_sweep(s, plan, A, np.ones(3),
                          RegularizerConfig((1e-2, 1e-4)))


GRID3 = GridDerivativeOperator(0.0, 1.0, 3)


@pytest.mark.parametrize("call", [
    lambda s, plan, A, v: apply_series(s, A, v),
    lambda s, plan, A, v: apply_plan(plan, A, v),
    lambda s, plan, A, v: regularized_apply(plan, A, 1e-3, v),
    lambda s, plan, A, v: convergence_sweep(s, plan, A, v,
                                            RegularizerConfig((1e-2, 1e-4))),
    # the other backends, each with 3 samples like A
    lambda s, plan, A, v: apply_series(s, GRID3, v),
    lambda s, plan, A, v: apply_plan(plan, GRID3, v),
    lambda s, plan, A, v: forward_exponential_volterra(s, v, GRID3),
    lambda s, plan, A, v: apply_series(s, MultiplierOperator([-1, -2, -3]),
                                       v),
    lambda s, plan, A, v: apply_plan(plan, MultiplierOperator([-1, -2, -3]),
                                     v),
    lambda s, plan, A, v: apply_plan(plan, PeriodicShiftOperator(3), v),
    lambda s, plan, A, v: PeriodicShiftOperator(3).resolvent_solve(3.0, v),
], ids=["apply_series", "apply_plan", "regularized_apply",
        "convergence_sweep", "grid-apply_series", "grid-apply_plan",
        "grid-forward_volterra", "multiplier-apply_series",
        "multiplier-apply_plan", "shift-apply_plan", "shift-resolvent_solve"])
def test_wrong_length_vector_is_a_typed_error(call):
    # regularized_apply reaches A's SVD before any resolvent solve, so the
    # length is checked on the operator, not in one solve; the grid, the
    # multiplier and the shift check it in their checked_vector
    s = ResolventSeries(((1.0, 1.0), (1.0, 3.0)))
    A = DenseMatrixOperator(np.diag([5.0, 6.0, 7.0]))
    with pytest.raises(InvalidInputError):
        call(s, invert_to_plan(s), A, np.ones(4))


class TestRegularizerConfig:
    def test_valid(self):
        cfg = RegularizerConfig((1e-2, 1e-4, 1e-6))
        assert cfg.alpha_grid == (1e-2, 1e-4, 1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RegularizerConfig(())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            RegularizerConfig((1e-2, -1e-4))

    def test_nondecreasing_rejected(self):
        with pytest.raises(ValueError):
            RegularizerConfig((1e-4, 1e-2))

    @pytest.mark.parametrize("grid", [(np.inf, 1e-2), (np.nan,)])
    def test_non_finite_rejected(self, grid):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            RegularizerConfig(grid)


class TestConvergenceSweep:
    def test_error_decreases_to_tolerance(self):
        rng = np.random.default_rng(14)
        s = random_theorem_series(rng, 2, 4)
        plan = invert_to_plan(s)
        m = matrix_with_eigenvalues(rng, 5.0 + np.arange(6.0), coupling=0.05)
        A = DenseMatrixOperator(m)
        x = np.sin(1.0 + np.arange(6.0))
        cfg = RegularizerConfig(tuple(10.0 ** (-k) for k in range(2, 11)))
        report = convergence_sweep(s, plan, A, x, cfg)
        assert report.improved
        errors = [r.error for r in report.records]
        assert errors[-1] < errors[0]
        assert errors[-1] <= 1e-6 * np.linalg.norm(x)

    def test_records_align_with_grid(self):
        rng = np.random.default_rng(16)
        s = random_theorem_series(rng, 2, 3)
        plan = invert_to_plan(s)
        A = DenseMatrixOperator(np.diag([5.0, 6.0, 7.0]))
        cfg = RegularizerConfig((1e-3, 1e-5))
        report = convergence_sweep(s, plan, A, np.ones(3), cfg)
        assert [r.alpha for r in report.records] == [1e-3, 1e-5]
        assert all(r.residual >= 0.0 for r in report.records)

    def test_zero_truth(self):
        rng = np.random.default_rng(18)
        s = random_theorem_series(rng, 2, 3)
        plan = invert_to_plan(s)
        A = DenseMatrixOperator(np.diag([5.0, 6.0, 7.0]))
        report = convergence_sweep(s, plan, A, np.zeros(3),
                                   RegularizerConfig((1e-4,)))
        assert report.records[0].error == pytest.approx(0.0, abs=1e-12)

    def test_records_equal_per_alpha_regularized_apply(self):
        rng = np.random.default_rng(34)
        s = random_theorem_series(rng, 3, 5)
        plan = invert_to_plan(s)
        m = matrix_with_eigenvalues(rng, 5.0 + rng.uniform(0, 3, 40)
                                    + 1j * rng.uniform(-1, 1, 40))
        A = DenseMatrixOperator(m)
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        grid = tuple(10.0 ** -k for k in range(1, 12))
        report = convergence_sweep(s, plan, A, x, RegularizerConfig(grid))
        y = apply_series(s, A, x)
        for rec in report.records:
            x_rec = regularized_apply(plan, A, rec.alpha, y)
            err = np.linalg.norm(x_rec - x)
            res = np.linalg.norm(apply_series(s, A, x_rec) - y)
            assert rec.error == pytest.approx(
                err, rel=1e-12, abs=1e-12 * np.linalg.norm(x))
            assert rec.residual == pytest.approx(
                res, rel=1e-12, abs=1e-12 * np.linalg.norm(y))


class TestSweepStructure:
    """What one sweep computes, counted at the numpy/LAPACK calls: one SVD,
    no inverse, per-pole solves that do not grow with the number of
    alphas, and one LU per pole and zero above the batched path's rows or
    no scipy LAPACK call up to them."""

    @staticmethod
    def install_counters(monkeypatch):
        counts = Counter()
        solved = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        solves = DenseMatrixOperator._solves

        def counted_solves(self, zeros, v):
            solved.update(complex(z) for z in zeros)
            return solves(self, zeros, v)

        monkeypatch.setattr(np.linalg, "svd",
                            counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for name in ("zgetrf", "zgetrs"):
            monkeypatch.setattr(scipy.linalg.lapack, name,
                                counted(name,
                                        getattr(scipy.linalg.lapack, name)))
        monkeypatch.setattr(DenseMatrixOperator, "_solves", counted_solves)
        return counts, solved

    @pytest.mark.parametrize("n", [operators._BATCHED_DIM, 30])
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_one_sweep(self, monkeypatch, k, n):
        rng = np.random.default_rng(36)
        s = random_theorem_series(rng, 4, 4)
        plan = invert_to_plan(s)
        m = matrix_with_eigenvalues(rng, 6.0 + rng.uniform(0, 2, n))
        A = DenseMatrixOperator(m)
        cfg = RegularizerConfig(tuple(10.0 ** -(2 + j) for j in range(k)))
        counts, solved = self.install_counters(monkeypatch)
        convergence_sweep(s, plan, A, np.ones(n), cfg)
        poles = [complex(p) for p in s.poles]
        zeros = [complex(z) for z in plan.zeros]
        assert counts["svd"] == 1
        if n > operators._BATCHED_DIM:
            assert counts["zgetrf"] == len(set(poles + zeros))
            assert counts["zgetrs"] == 2 * len(poles) + len(zeros)
        else:
            assert counts["zgetrf"] == counts["zgetrs"] == 0
        # y = f(A) x once, then every residual in one block solve per pole
        assert solved == Counter({**{p: 2 for p in poles},
                                  **{z: 1 for z in zeros}})
        convergence_sweep(s, plan, A, np.ones(n), cfg)
        assert counts["svd"] == 1  # cached on the operator
