import numpy as np
import pytest

from conftest import matrix_with_eigenvalues, random_theorem_series
from resolvinv.errors import InvalidInputError, SingularOperatorError
from resolvinv.operators import DenseMatrixOperator, apply_plan, apply_series
from resolvinv.rational import invert_to_plan
from resolvinv.regularize import (
    RegularizerConfig,
    convergence_sweep,
    regularized_apply,
    tikhonov_apply,
)


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

    def test_singular_operator_rejected(self):
        s = random_theorem_series(np.random.default_rng(12), 2, 3)
        plan = invert_to_plan(s)
        A = DenseMatrixOperator(np.diag([5.0, 6.0, 0.0]))
        with pytest.raises(SingularOperatorError):
            regularized_apply(plan, A, 0.1, np.ones(3))


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
