"""Inversion plans, and the partial fractions of a filter, on arrays.

The plan for 1/f is built without polynomials: the zeros of f come from
one small eigenvalue solve (:func:`resolvinv.series.secular_zeros`) and
the residues of 1/f from the closed form -1/f'(z_k).  Every zero is
simple (a multiple one fails the identity check), so the plan is two arrays.

A filter's transfer function is the one quotient of polynomials in the
package.  :func:`poly_roots` finds the roots of its characteristic
polynomial with ``numpy.roots`` and :func:`partial_fractions` takes the
residues at them in closed form, num(z_k)/den'(z_k); every root is
simple here too.  Coefficients are ascending, and polynomials are
evaluated by Horner's rule in this module.
"""

from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    HypothesisError,
    InvalidInputError,
    MalformedSpecError,
    RepeatedRootError,
)
from .series import (
    ResolventSeries,
    framed_gamma_beta,
    framed_secular_zeros,
    require_admissible,
    theorem_mode,
)
from .tolerance import (
    DERIVED_EPS,
    ROOT_TOL,
    ldexp,
    magnitude,
    min_gap,
    unit_frame,
)

__all__ = [
    "InversionPlan",
    "FilterSpec",
    "poly_roots",
    "partial_fractions",
    "invert_to_plan",
    "checked_plan",
    "filter_to_series",
    "derived_series",
]

log = logging.getLogger("resolvinv")


# the directions of the identity check's 50 sample points
_SAMPLE_DIRECTIONS = np.exp(2j * np.pi * (np.arange(50) + 0.37) / 50)


def _fit_sample_points(points) -> np.ndarray:
    """Deterministic sample points, 50 of them, on a circle around the
    points (the poles and zeros of a plan).

    The circle is centred on their mean and its radius is twice their
    spread about it, so every sample lies at least one spread from every
    point, and translating the points moves the circle with them: the
    check it carries decides alike wherever the origin is.  One point has
    no spread; its circle has the radius |point|, or 1 at the origin.
    """
    points = np.asarray(points, dtype=complex)
    center = points.mean() if points.size else 0j
    r = 2.0 * magnitude(points - center) or abs(center) or 1.0
    return center + r * _SAMPLE_DIRECTIONS


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


def invert_to_plan(series: ResolventSeries) -> InversionPlan:
    """Build the left-inverse plan for a theorem-mode series.

    gamma and beta come from the closed formulas.  The zeros z_k of f
    come from one eigenvalue solve (:func:`secular_zeros`, in its sorted
    order) and the residues are c_k = -1/f'(z_k) with
    f'(z) = sum_j a_j / (alpha_j - z)^2.  The identity
    f(z) * (gamma + beta z + h(z)) = 1 is verified at sample points on a
    circle centred on the poles and zeros (:func:`_fit_sample_points`)
    before the plan is returned, and is the one verdict on it: a multiple
    zero of f, a pole of 1/f of higher order that the plan does not
    represent, fails it, as does a cluster of zeros too tight to resolve.
    Its residual max |f h - 1| counts, besides the computed one, what
    each residue's rounding (eps times the condition of f'(z_k)) moves
    f h by, so the huge residues of a multiple zero's two halves fail it
    even where their cancellation happens to be exact.
    A failed check, or a gamma, beta or residue that leaves the float
    range, raises :class:`ConditioningError`.  The check is relative to
    the data and centred on it, so rescaling poles and operator together
    by any factor, or translating them together, leaves the decision
    unchanged (see :mod:`resolvinv.tolerance`).
    """
    if not series.is_theorem_mode():
        raise HypothesisError(
            "series must have nonnegative real coefficients with positive sum")
    # the terms with a nonzero coefficient, of which theorem mode leaves one
    # at least; their poles stay distinct, since the gap floor only shrinks
    kept = series.coefficients != 0
    active = series.poles[kept]
    # gamma, beta, the residues and f h = 1 are taken on 2^-ka a_j and on
    # the poles and zeros in one frame 2^-kp, where nothing overflows: f, f'
    # and h are 2^(kp-ka), 2^(2kp-ka) and 2^(ka-kp) times theirs there
    m = active.size
    a, ka = unit_frame(series.coefficients[kept])
    z = framed_secular_zeros(a, ka, active)
    framed, kp = unit_frame(np.concatenate([active, z]))
    alpha, zf = framed[:m], framed[m:]
    gamma, beta = framed_gamma_beta(a, alpha.tolist())
    pts = _fit_sample_points(framed)
    with np.errstate(all="ignore"):  # a value past the float range fails
        terms = a / (alpha - zf[:, None]) ** 2
        c = -1.0 / terms.sum(axis=1)
        # the identity's two sums as products with the tables of 1/(x - z)
        fz = np.reciprocal(alpha - pts[:, None]) @ a
        near = np.reciprocal(zf - pts[:, None])
        hz = gamma + beta * pts + near @ c
        # each residue's rounding, eps * sum_j |a_j / (alpha_j - z_k)^2|
        # * |c_k|^2, carried to f h: the halves of a multiple zero carry
        # huge residues whose cancellation can meet the bar by luck
        slack = abs(near) @ (np.finfo(float).eps * abs(terms).sum(axis=1)
                             * abs(c) ** 2)
        worst = float((abs(fz * hz - 1.0) + abs(fz) * slack).max())
    gamma, beta = ldexp(gamma, kp - ka), ldexp(beta, -ka)
    c = ldexp(c, 2 * kp - ka)
    if not (cmath.isfinite(gamma) and cmath.isfinite(beta)
            and np.isfinite(c).all()):
        raise ConditioningError("plan of 1/f leaves the float range")
    if not worst <= 1e-8:
        raise ConditioningError(
            "inversion plan fails the identity check: "
            f"max |f h - 1| = {worst:.3g} > 1e-08", residual=worst)
    return InversionPlan(gamma, beta, z, c)


def checked_plan(series: ResolventSeries, spectrum,
                 margin: float = 0.0) -> InversionPlan:
    """The one way a solve gets its plan: :func:`require_admissible`
    against ``spectrum`` with ``margin``, then :func:`invert_to_plan`.  The
    separation distance and the number of zeros are logged at DEBUG."""
    gate = require_admissible(series, spectrum, margin)
    log.debug("separation distance %.6g", gate.separation_distance)
    plan = invert_to_plan(series)
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


def _polyval(x, c: np.ndarray):
    """sum_k c_k x^k for the ascending coefficient array c, by Horner's
    rule in the operations and order of ``numpy.polynomial``'s
    ``polyval``, bit for bit."""
    out = c[-1] + x * 0
    for ck in c[-2::-1]:
        out = ck + out * x
    return out


def _polyder(c: np.ndarray) -> np.ndarray:
    """The ascending coefficients j c_j of the derivative ([0] for a
    constant), as ``numpy.polynomial``'s ``polyder`` forms them, down to
    the sign of a zero part: it scales c by 1 first."""
    if c.size < 2:
        return c[:1] * 0
    return c[1:] * 1 * np.arange(1, c.size)


def poly_roots(c) -> np.ndarray:
    """Roots of p(z) = sum_k c_k z^k, all simple, sorted by (real, imag).

    ``numpy.roots`` (companion-matrix eigenvalues), then one Newton step,
    kept wherever it is finite and lowers |p|.  Two roots closer than
    ``ROOT_TOL * max|root|`` (1e-6 relative, wider than the
    sqrt(machine epsilon) split of a computed double root) raise
    :class:`RepeatedRootError`, and a ratio c_k / c_N past the float range
    :class:`ConditioningError`.  The top coefficient c_N must be nonzero.
    """
    c = np.asarray(c, dtype=complex)
    if not c.size or c[-1] == 0:
        raise InvalidInputError("top coefficient must be nonzero")
    with np.errstate(all="ignore"):
        if not np.isfinite(c / c[-1]).all():
            raise ConditioningError(
                "coefficients over the top one exceed the float range")
        z = np.roots(c[::-1])
        pz = _polyval(z, c)
        newton = z - pz / _polyval(z, _polyder(c))
        better = np.abs(_polyval(newton, c)) <= np.abs(pz)
    z = np.where(np.isfinite(newton) & better, newton, z)
    if min_gap(z) <= magnitude(z, ROOT_TOL):
        raise RepeatedRootError(
            "characteristic polynomial has a repeated root")
    return z[np.lexsort((z.imag, z.real))]


def partial_fractions(num, den) -> tuple[np.ndarray, np.ndarray]:
    """Poles and residues of num/den, from ascending coefficient arrays.

    The poles are :func:`poly_roots` of den (with its checks and its root
    gap), the residues num(z_k) / den'(z_k); :class:`ConditioningError`
    when either value leaves the float range.  When num has the lower
    degree, num(z)/den(z) = sum_k residues[k] / (z - poles[k]).
    """
    z = poly_roots(den)
    with np.errstate(all="ignore"):
        parts = (_polyval(z, np.asarray(num, dtype=complex)),
                 _polyval(z, _polyder(np.asarray(den, dtype=complex))))
        residues = parts[0] / parts[1]
    if not np.isfinite([*parts, residues]).all():
        raise ConditioningError("residues leave the float range")
    return z, residues


def filter_to_series(spec: FilterSpec) -> ResolventSeries:
    """Residue expansion of the filter transfer function.

    q(z)/z has the ascending coefficients b, since q has no constant term,
    so :func:`partial_fractions` of b over p gives the poles z_j (the roots
    of p) and a_j = (q(z)/z)|_{z_j} / p'(z_j), with q(z)/p(z) = -z f(z);
    the series is their :func:`derived_series`.
    """
    z, a = partial_fractions(spec.b, spec.c)
    return derived_series(a, z)


def derived_series(a, poles) -> ResolventSeries:
    """The series of coefficients ``a`` derived from a problem's numbers
    (a filter's residues, a kernel's mapped weights) at ``poles``.

    When the a_j pass the theorem-mode test at :data:`DERIVED_EPS` the
    series keeps their real parts, which drops the rounding residue that
    the test tolerates; otherwise they are kept as computed, and the
    admissibility gate rejects them with its report.  A coefficient or
    pole that is not finite raises :class:`ConditioningError`: the
    derivation left the float range.
    """
    a = np.asarray(a, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(poles).all()):
        raise ConditioningError(
            "derived coefficients or poles leave the float range")
    if theorem_mode(a.tolist(), rtol=DERIVED_EPS):
        a = a.real
    return ResolventSeries.from_arrays(a, poles)
