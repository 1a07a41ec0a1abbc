"""Tikhonov regularization and its composition with an inversion plan.

The ill-posedness of f(A) x = y sits entirely in the beta*A term of the
inverse gamma + beta*A + h(A), so replacing A = K^{-1} by the Tikhonov
regularizer R_alpha = (alpha I + K^H K)^{-1} K^H of K yields a regularizing
family gamma + beta*R_alpha + h(A) for the full problem.

R_alpha is applied as filter factors on one singular value decomposition
(Hansen, *Rank-Deficient and Discrete Ill-Posed Problems*, SIAM 1998):
with A = U diag(s) V^H, K = V diag(1/s) U^H and

    R_alpha = U diag(s / (1 + alpha s^2)) V^H,

computed as t / (t^2 + alpha) on the singular values t = 1/s of K.  Nothing
inverts A or forms K^H K, which would square cond(K).  The SVD is cached on
the operator, so a sweep costs one SVD and then O(n^2) per alpha.

A counts as singular, by the package's tolerance rule
(:mod:`resolvinv.tolerance`), when s_min <= EPS * s_max or a singular
value is not finite (an SVD that does not converge, as on a matrix
holding a NaN, counts the same); the decision does not change when A is
rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConditioningError,
    InvalidInputError,
    SingularOperatorError,
)
from .operators import DenseMatrixOperator, apply_series
from .rational import InversionPlan
from .series import ResolventSeries
from .tolerance import ldexp, negligible, unit_frame

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


def _tikhonov_columns(u, t, vh, alphas, y) -> np.ndarray:
    """Columns u diag(t / (t^2 + alpha)) vh y, one per alpha: the Tikhonov
    solutions of K x = y for K = vh^H diag(t) u^H, as an (n, k) block."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.all(alphas > 0.0):
        raise InvalidInputError("regularization parameter must be positive")
    t = t[:, None]
    factors = t / (t * t + alphas)
    return u @ (factors * (vh @ y)[:, None])


def _scaled_tikhonov_columns(beta, u, t, vh, alphas, y) -> np.ndarray:
    """beta times :func:`_tikhonov_columns`, taken on beta and y in their
    frames of :func:`~resolvinv.tolerance.unit_frame` and scaled back
    once: the same bits in the float range, and no overflow on the way
    when y is near its end and beta small (y = f(A) x for coefficients
    near 1e308); a result past it raises :class:`ConditioningError`."""
    yf, ky = unit_frame(y)
    (bf,), kb = unit_frame([beta])
    cols = ldexp(bf * _tikhonov_columns(u, t, vh, alphas, yf), kb + ky)
    if not np.isfinite(cols).all():
        raise ConditioningError("regularized solution exceeds the float range")
    return cols


def tikhonov_apply(K: np.ndarray, alpha: float, y: np.ndarray) -> np.ndarray:
    """Minimizer of ||K x - y||^2 + alpha ||x||^2.

    Unique for alpha > 0; with K = P diag(t) Q^H it is
    Q diag(t / (t^2 + alpha)) P^H y.  No package code calls it: the
    benchmark's span tracer (``perfbench/spans.py``) wraps it by name,
    which keeps it here.
    """
    p, t, qh = np.linalg.svd(np.asarray(K, dtype=complex),
                             full_matrices=False)
    y = np.asarray(y, dtype=complex)
    return _tikhonov_columns(qh.conj().T, t, p.conj().T, (alpha,), y)[:, 0]


def _invertible_svd(A: DenseMatrixOperator):
    """A's cached SVD (U, 1/s, Vh), or SingularOperatorError when A is
    singular by the rule of the module docstring."""
    try:
        u, s, vh = A.svd()
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError("operator matrix is singular") from exc
    if not np.all(np.isfinite(s)) or negligible(s[-1], s[0]):
        raise SingularOperatorError("operator matrix is singular")
    return u, 1.0 / s, vh


def regularized_apply(plan: InversionPlan, A: DenseMatrixOperator,
                      alpha: float, y: np.ndarray) -> np.ndarray:
    """gamma*y + beta*R_alpha y + h(A) y with R_alpha the Tikhonov
    regularizer of K = A^{-1}.

    A must be invertible and the plan's zeros off its spectrum; the
    remainder term reuses the resolvent path of the plan application,
    which checks each zero.
    """
    u, t, vh = _invertible_svd(A)
    y = A.checked_vector(y)
    reg = _scaled_tikhonov_columns(plan.beta, u, t, vh, (alpha,), y)[:, 0]
    return A.apply_plan(replace(plan, beta=0j), y) + reg


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of x, taken in x's frame of
    :func:`~resolvinv.tolerance.unit_frame` and scaled back: the same bits,
    and inf only for a norm past the float range."""
    xf, k = unit_frame(x)
    return ldexp(np.linalg.norm(xf, axis=0), k)


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

    Forms y = f(A) x_true once, then records the error ||x_alpha - x_true||
    of the regularized reconstruction x_alpha = regularized_apply(..., alpha,
    y) and the data residual ||f(A) x_alpha - y|| for each alpha, largest
    first.  The reconstructions are one (n, k) block on A's SVD, and their
    residuals one block resolvent solve per pole.
    """
    # the SVD comes before the pole LUs are factored: its LAPACK workspace
    # is freed by then, so the two memory peaks do not add up
    u, t, vh = _invertible_svd(A)
    x_true = A.checked_vector(x_true)
    y = apply_series(series, A, x_true)
    alphas = config.alpha_grid
    fixed = A.apply_plan(replace(plan, beta=0j), y)
    x_rec = fixed[:, None] + _scaled_tikhonov_columns(plan.beta, u, t, vh,
                                                      alphas, y)
    errors = _column_norms(x_rec - x_true[:, None])
    residuals = _column_norms(apply_series(series, A, x_rec) - y[:, None])
    records = tuple(SweepRecord(alpha, float(e), float(r))
                    for alpha, e, r in zip(alphas, errors, residuals))
    improved = records[-1].error <= records[0].error
    return SweepReport(records, improved)
