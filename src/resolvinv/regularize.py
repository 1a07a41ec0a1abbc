"""Tikhonov regularization and its composition with an inversion plan.

The ill-posedness of f(A) x = y sits entirely in the beta*A term of the
inverse, so replacing A = K^{-1} by the Tikhonov regularizer of K yields a
regularizing family gamma + beta*R_alpha + h(A) for the full problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularOperatorError
from .operators import DenseMatrixOperator, _apply_remainder, apply_series
from .rational import InversionPlan
from .series import ResolventSeries

__all__ = [
    "RegularizerConfig",
    "SweepRecord",
    "SweepReport",
    "tikhonov_apply",
    "regularized_apply",
    "convergence_sweep",
]


@dataclass(frozen=True)
class RegularizerConfig:
    """Descending grid of positive regularization parameters."""

    alpha_grid: tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(a) for a in self.alpha_grid)
        if not grid:
            raise InvalidInputError("alpha grid must be nonempty")
        if any(not 0.0 < a < np.inf for a in grid):
            raise InvalidInputError("alpha values must be positive and finite")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError("alpha grid must be strictly decreasing")
        object.__setattr__(self, "alpha_grid", grid)


def tikhonov_apply(K: np.ndarray, alpha: float, y: np.ndarray) -> np.ndarray:
    """Minimizer of ||K x - y||^2 + alpha ||x||^2.

    Solves (alpha I + K^H K) x = K^H y; the system matrix is positive
    definite for alpha > 0, so the solution is unique.
    """
    if alpha <= 0.0:
        raise InvalidInputError("regularization parameter must be positive")
    K = np.asarray(K, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = K.shape[1]
    lhs = alpha * np.eye(n, dtype=complex) + K.conj().T @ K
    return np.linalg.solve(lhs, K.conj().T @ y)


def regularized_apply(plan: InversionPlan, A: DenseMatrixOperator,
                      alpha: float, y: np.ndarray) -> np.ndarray:
    """gamma*y + beta*R_alpha y + h(A) y with R_alpha the Tikhonov
    regularizer of K = A^{-1}.

    A must be invertible; the remainder term reuses the resolvent path of
    the plan application.
    """
    y = np.asarray(y, dtype=complex)
    try:
        K = np.linalg.inv(A.matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("operator matrix is singular") from exc
    if not np.all(np.isfinite(K)):
        raise SingularOperatorError("operator matrix is singular")
    reg = tikhonov_apply(K, alpha, y)
    return plan.gamma * y + plan.beta * reg + _apply_remainder(plan, A, y)


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    error: float
    residual: float


@dataclass(frozen=True)
class SweepReport:
    records: tuple[SweepRecord, ...]
    improved: bool  # error decreased from the first alpha to the last


def convergence_sweep(series: ResolventSeries, plan: InversionPlan,
                      A: DenseMatrixOperator, x_true: np.ndarray,
                      config: RegularizerConfig) -> SweepReport:
    """Reconstruction-error sweep over the alpha grid with exact data.

    Forms y = f(A) x_true once, then records the error
    ||regularized_apply(..., alpha, y) - x_true|| and the data residual
    ||f(A) x_rec - y|| for each alpha, largest first.
    """
    x_true = np.asarray(x_true, dtype=complex)
    y = apply_series(series, A, x_true)
    records = []
    for alpha in config.alpha_grid:
        x_rec = regularized_apply(plan, A, alpha, y)
        err = float(np.linalg.norm(x_rec - x_true))
        res = float(np.linalg.norm(apply_series(series, A, x_rec) - y))
        records.append(SweepRecord(alpha, err, res))
    improved = records[-1].error <= records[0].error
    return SweepReport(tuple(records), improved)
