"""Inversion plans, and the partial fractions of a filter, on arrays.

The plan for 1/f is built without polynomials: the zeros of f come from
one small eigenvalue solve (:func:`resolvinv.series.secular_zeros`) and
the residues of 1/f from the closed form -1/f'(z_k).  Every zero is
simple (a repeated one raises), so the plan is two arrays.

A filter's transfer function is the one quotient of polynomials in the
package.  :func:`poly_roots` finds the roots of its characteristic
polynomial with ``numpy.roots`` and :func:`partial_fractions` takes the
residues at them in closed form, num(z_k)/den'(z_k); every root is
simple here too.  Coefficients are ascending.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import (
    ConditioningError,
    HypothesisError,
    InvalidInputError,
    MalformedSpecError,
    RepeatedRootError,
)
from .series import (
    ResolventSeries,
    gamma_beta,
    require_admissible,
    secular_zeros,
    theorem_mode,
)
from .tolerance import (
    DEFAULT_ROOT_TOL,
    DERIVED_EPS,
    EPS,
    magnitude,
    min_gap,
)

__all__ = [
    "InversionPlan",
    "FilterSpec",
    "poly_roots",
    "partial_fractions",
    "invert_to_plan",
    "checked_plan",
    "filter_to_series",
]

log = logging.getLogger("resolvinv")


def _fit_sample_points(points) -> np.ndarray:
    """Deterministic sample points, 50 of them, on a circle around the
    points (the poles and zeros of a plan).

    The radius is twice their spread about the centre, plus the centre's
    modulus: every sample then lies at least spread + |centre| from every
    point, which keeps the rounding of z - point relative to the data, at
    any scale.  Points that all sit at the origin have no scale, and any
    circle serves; the unit one is used.
    """
    points = np.asarray(points, dtype=complex)
    center = points.mean() if points.size else 0j
    r = (2.0 * magnitude(points - center) + abs(center)) or 1.0
    return center + r * np.exp(2j * np.pi * (np.arange(50) + 0.37) / 50)


@dataclass(frozen=True, eq=False)
class InversionPlan:
    """Executable left inverse gamma + beta*A + h(A).

    h(z) = sum_k residues[k] / (zeros[k] - z) is strictly proper, with
    simple poles at the m - 1 zeros of f (two 1-d complex arrays).
    """

    gamma: complex
    beta: complex
    zeros: np.ndarray
    residues: np.ndarray

    def evaluate_scalar(self, z):
        """1/f at a scalar (or array) argument, via the plan, accumulated
        in place: two temporaries of an array's size for any m."""
        out = self.gamma + self.beta * z
        r = np.empty_like(out)
        for zk, ck in zip(self.zeros, self.residues):
            np.subtract(zk, z, out=r)
            np.reciprocal(r, out=r)
            r *= ck
            out += r
        return out


def invert_to_plan(series: ResolventSeries, tol: float = DEFAULT_ROOT_TOL
                   ) -> InversionPlan:
    """Build the left-inverse plan for a theorem-mode series.

    gamma and beta come from the closed formulas.  The zeros z_k of f
    come from one eigenvalue solve (:func:`secular_zeros`, in its sorted
    order) and the residues are c_k = -1/f'(z_k) with
    f'(z) = sum_j a_j / (alpha_j - z)^2.  Two zeros closer than
    ``max(tol, EPS) * max|alpha_j|`` (over the terms with a nonzero
    coefficient) raise :class:`RepeatedRootError`; 1/f then has a pole of
    higher order, which the plan does not represent.  The gap is relative
    to the poles, not to the zeros: the zeros lie in the pole hull, and a
    double zero near the origin splits into two computed zeros whose
    modulus says nothing about the size of the problem.  The identity
    f(z) * (gamma + beta z + h(z)) = 1 is verified at sample points on a
    circle around the poles and zeros before the plan is returned; residues
    that leave the float range raise :class:`ConditioningError`.
    ``tol`` must be finite and >= 0; every comparison is relative to the
    data, so rescaling poles and operator together by any factor leaves
    the decision unchanged (see :mod:`resolvinv.tolerance`).
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidInputError("tol must be nonnegative and finite")
    if not series.is_theorem_mode():
        raise HypothesisError(
            "series must have nonnegative real coefficients with positive sum")
    active = series.pruned()
    gamma, beta = gamma_beta(active)
    a = np.asarray(active.coefficients)
    alpha = np.asarray(active.poles)
    z = secular_zeros(a, alpha)
    if min_gap(z) <= magnitude(alpha, max(tol, EPS)):
        raise RepeatedRootError("f has a repeated zero")
    with np.errstate(all="ignore"):
        c = -1.0 / np.sum(a / (alpha - z[:, None]) ** 2, axis=1)
    if not np.isfinite(c).all():
        raise ConditioningError("residues of 1/f leave the float range")

    pts = _fit_sample_points(np.concatenate([series.poles, z]))
    fz = np.sum(a / (alpha - pts[:, None]), axis=1)
    hz = gamma + beta * pts + np.sum(c / (z - pts[:, None]), axis=1)
    worst = float(np.max(np.abs(fz * hz - 1.0)))
    if not worst <= 1e-8:
        raise ConditioningError(
            "inversion plan fails the identity check", residual=worst)
    return InversionPlan(gamma, beta, z, c)


def checked_plan(series: ResolventSeries, spectrum, margin: float = 0.0,
                 tol: float = DEFAULT_ROOT_TOL) -> InversionPlan:
    """The one way a solve gets its plan: :func:`require_admissible`
    against ``spectrum`` with ``margin``, then :func:`invert_to_plan`.  The
    separation distance and the number of zeros are logged at DEBUG."""
    gate = require_admissible(series, spectrum, margin)
    log.debug("separation distance %.6g", gate.separation_distance)
    plan = invert_to_plan(series, tol=tol)
    log.debug("plan zeros: %d", plan.zeros.size)
    return plan


@dataclass(frozen=True)
class FilterSpec:
    """Difference-equation coefficients c_0..c_N (output) and b_1..b_N
    (input) of a recursive filter of true order N >= 1: the characteristic
    polynomial is p(z) = sum c_k z^k, the input one q(z) = sum b_l z^l."""

    c: tuple[complex, ...]
    b: tuple[complex, ...]

    def __post_init__(self):
        c = tuple(complex(x) for x in self.c)
        b = tuple(complex(x) for x in self.b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        if len(c) < 2:
            raise MalformedSpecError("filter order must be at least 1")
        if len(b) != len(c) - 1:
            raise MalformedSpecError(
                f"expected {len(c) - 1} input coefficients, got {len(b)}")
        if c[-1] == 0:
            raise MalformedSpecError("top output coefficient c_N must be nonzero")

    @property
    def order(self) -> int:
        return len(self.c) - 1


def poly_roots(c, tol: float = DEFAULT_ROOT_TOL) -> np.ndarray:
    """Roots of p(z) = sum_k c_k z^k, all simple, sorted by (real, imag).

    ``numpy.roots`` (companion-matrix eigenvalues), then one Newton step,
    kept wherever it is finite and lowers |p|.  Two roots closer than
    ``max(tol, EPS) * max|root|`` raise :class:`RepeatedRootError`, and a
    ratio c_k / c_N past the float range :class:`ConditioningError`.  The
    top coefficient c_N must be nonzero, and ``tol`` finite and >= 0, as
    for :func:`invert_to_plan`.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidInputError("tol must be nonnegative and finite")
    c = np.asarray(c, dtype=complex)
    if not c.size or c[-1] == 0:
        raise InvalidInputError("top coefficient must be nonzero")
    with np.errstate(all="ignore"):
        if not np.isfinite(c / c[-1]).all():
            raise ConditioningError(
                "coefficients over the top one exceed the float range")
        z = np.roots(c[::-1])
        pz = npp.polyval(z, c)
        newton = z - pz / npp.polyval(z, npp.polyder(c))
        better = np.abs(npp.polyval(newton, c)) <= np.abs(pz)
    z = np.where(np.isfinite(newton) & better, newton, z)
    if min_gap(z) <= magnitude(z, max(tol, EPS)):
        raise RepeatedRootError(
            "characteristic polynomial has a repeated root")
    return z[np.lexsort((z.imag, z.real))]


def partial_fractions(num, den, tol: float = DEFAULT_ROOT_TOL
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Poles and residues of num/den, from ascending coefficient arrays.

    The poles are :func:`poly_roots` of den (with its checks and ``tol``),
    the residues num(z_k) / den'(z_k); :class:`ConditioningError` when
    either value leaves the float range.  When num has the lower degree,
    num(z)/den(z) = sum_k residues[k] / (z - poles[k]).
    """
    z = poly_roots(den, tol)
    with np.errstate(all="ignore"):
        parts = npp.polyval(z, num), npp.polyval(z, npp.polyder(den))
        residues = parts[0] / parts[1]
    if not np.isfinite([*parts, residues]).all():
        raise ConditioningError("residues leave the float range")
    return z, residues


def filter_to_series(spec: FilterSpec, tol: float = DEFAULT_ROOT_TOL
                     ) -> ResolventSeries:
    """Residue expansion of the filter transfer function.

    q(z)/z has the ascending coefficients b, since q has no constant term,
    so :func:`partial_fractions` of b over p gives the poles z_j (the roots
    of p) and a_j = (q(z)/z)|_{z_j} / p'(z_j), with q(z)/p(z) = -z f(z).
    When the a_j pass the theorem-mode test at :data:`DERIVED_EPS` the
    series keeps their real parts, as
    :func:`resolvinv.operators.convolution_series` does; otherwise they
    are kept as computed and the admissibility gate rejects them.
    """
    z, a = partial_fractions(spec.b, spec.c, tol)
    if theorem_mode(a, rtol=DERIVED_EPS):
        a = a.real  # drops the rounding residue that the test tolerates
    return ResolventSeries(tuple(zip(a, z)))
