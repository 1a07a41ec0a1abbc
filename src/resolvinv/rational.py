"""Inversion plans, filter-to-series conversion and polynomial helpers.

The plan for 1/f is built without polynomials: the zeros of f come from
one small eigenvalue solve (:func:`resolvinv.series.secular_zeros`) and
the residues of 1/f from the closed form -1/f'(z_k).  Every zero is
simple (a repeated one raises), so the plan is two arrays.  A filter's
characteristic roots come from ``numpy.roots`` on its coefficient array.

The polynomial and partial-fraction layer (``Polynomial`` to
``partial_fractions``) has no caller in the package: it is kept for
``perfbench/spans.py``, which looks its functions up by name, and as a
test oracle.  Coefficients are ascending, partial fractions in the
(pole - z)^k basis.
"""

from __future__ import annotations

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
    UnsupportedShapeError,
)
from .series import (
    ResolventSeries,
    gamma_beta,
    numerator_coefficients,
    secular_zeros,
)
from .tolerance import (
    DEFAULT_ROOT_TOL,
    DERIVED_EPS,
    EPS,
    magnitude,
    min_gap,
    require_distinct,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "PoleGroup",
    "PartialFractionForm",
    "InversionPlan",
    "FilterSpec",
    "FilterSeriesReport",
    "poly_roots",
    "series_to_rational",
    "partial_fractions",
    "invert_to_plan",
    "filter_to_series",
]


# --- polynomial and partial-fraction layer, no caller in the package ------


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial, ascending coefficients.

    The top coefficient is nonzero except for the zero polynomial, which
    is stored as (0,).
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        if not c:
            c = (0j,)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    def __call__(self, z):
        return npp.polyval(z, np.asarray(self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(npp.polyadd(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(npp.polysub(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial(tuple(npp.polymul(self.coeffs, other.coeffs)))
        return Polynomial(tuple(complex(other) * np.asarray(self.coeffs)))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(npp.polyder(np.asarray(self.coeffs))))

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = npp.polydiv(self.coeffs, other.coeffs)
        return Polynomial(tuple(q)), Polynomial(tuple(r))

    @staticmethod
    def from_roots(roots) -> "Polynomial":
        """Monic prod (z - r)."""
        return Polynomial(tuple(npp.polyfromroots(list(roots))))


def poly_roots(p: Polynomial, tol: float = DEFAULT_ROOT_TOL
               ) -> list[tuple[complex, int]]:
    """All roots with multiplicities.

    Companion-matrix eigenvalues (with balancing, via numpy.roots), a few
    Newton polish steps, then clustering at relative tolerance ``tol``.
    """
    if p.is_zero:
        raise ValueError("roots of the zero polynomial are undefined")
    if p.degree < 1:
        return []
    raw = [complex(r) for r in np.roots(np.asarray(p.coeffs)[::-1])]
    dp = p.derivative()
    polished = []
    for z in raw:
        for _ in range(3):
            d = complex(dp(z))
            if abs(d) < 1e-300:
                break
            step = complex(p(z)) / d
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            z2 = z - step
            if abs(complex(p(z2))) <= abs(complex(p(z))):
                z = z2
        polished.append(z)

    scale = max([1.0] + [abs(r) for r in polished])
    clusters: list[list[complex]] = []
    for z in sorted(polished, key=lambda w: (w.real, w.imag)):
        for c in clusters:
            center = sum(c) / len(c)
            if abs(z - center) <= tol * scale:
                c.append(z)
                break
        else:
            clusters.append([z])
    out = [(sum(c) / len(c), len(c)) for c in clusters]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials; no implicit cancellation."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("zero denominator")

    def __call__(self, z):
        return self.num(z) / self.den(z)


@dataclass(frozen=True)
class PoleGroup:
    """Coefficients c_1..c_m of c_k / (pole - z)^k."""

    pole: complex
    coeffs: tuple[complex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    def __call__(self, z):
        # Horner in r = 1/(pole - z); in place on the temporaries when z
        # is an array, which spares one allocation per step
        r = self.pole - z
        r **= -1
        out = self.coeffs[-1] * r
        for c in self.coeffs[-2::-1]:
            out += c
            out *= r
        return out


@dataclass(frozen=True)
class PartialFractionForm:
    """gamma + beta*z + sum_{j,k} c_{jk} / (pole_j - z)^k."""

    gamma: complex
    beta: complex
    groups: tuple[PoleGroup, ...]

    def __post_init__(self):
        require_distinct(self.poles)

    @property
    def poles(self) -> tuple[complex, ...]:
        return tuple(g.pole for g in self.groups)

    def __call__(self, z):
        out = self.gamma + self.beta * z
        for g in self.groups:
            out += g(z)
        return out


def series_to_rational(series: ResolventSeries) -> RationalFunction:
    """f as num/den with den = prod (alpha_j - z)."""
    den = np.array([1.0 + 0j])
    for alpha in series.poles:
        den = np.convolve(den, np.array([alpha, -1.0], dtype=complex))
    num = numerator_coefficients(series)
    return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


def _fit_sample_points(poles, count=100, radius_factor=2.0) -> np.ndarray:
    """Deterministic off-pole sample points on a circle around the poles.

    The radius is ``radius_factor`` times their spread about the centre,
    plus the centre's modulus: every sample then lies at least
    spread + |centre| from every pole, which keeps the rounding of
    z - pole relative to the data, at any scale.  Points that all sit at
    the origin have no scale, and any circle serves; the unit one is used.
    """
    poles = np.asarray(poles, dtype=complex)
    center = poles.mean() if poles.size else 0j
    r = (radius_factor * magnitude(poles - center) + abs(center)) or 1.0
    return center + r * np.exp(2j * np.pi * (np.arange(count) + 0.37) / count)



def partial_fractions(r: RationalFunction, tol: float = DEFAULT_ROOT_TOL
                      ) -> PartialFractionForm:
    """Expand num/den into affine part plus simple-fraction groups.

    The polynomial part must be affine or constant.  Coefficients are
    obtained from one linear solve against the monomial basis; the fit
    residual and condition number are checked.
    """
    q, rem = r.num.divmod(r.den)
    if q.degree > 1:
        raise UnsupportedShapeError(
            f"polynomial part has degree {q.degree} > 1")
    gamma = q.coeffs[0]
    beta = q.coeffs[1] if q.degree >= 1 else 0j

    if r.den.degree == 0:
        return PartialFractionForm(gamma, beta, ())

    roots = poly_roots(r.den, tol)
    M = r.den.degree
    # D(z) = prod (pole_j - z)^{m_j}; den = kappa * D
    D = Polynomial((1.0,))
    for pole, mult in roots:
        for _ in range(mult):
            D = D * Polynomial((pole, -1.0))
    kappa = r.den.coeffs[-1] / D.coeffs[-1]

    columns = []
    for idx, (pole, mult) in enumerate(roots):
        base = Polynomial((1.0,))
        for odx, (other, omult) in enumerate(roots):
            if odx == idx:
                continue
            for _ in range(omult):
                base = base * Polynomial((other, -1.0))
        # base * (pole - z)^{mult - k} for k = 1..mult
        for k in range(1, mult + 1):
            col = base
            for _ in range(mult - k):
                col = col * Polynomial((pole, -1.0))
            padded = np.zeros(M, dtype=complex)
            padded[: col.degree + 1] = col.coeffs
            columns.append(padded)

    rhs = np.zeros(M, dtype=complex)
    rhs[: rem.degree + 1] = np.asarray(rem.coeffs) / kappa
    A = np.column_stack(columns)
    sol, _, _, sv = np.linalg.lstsq(A, rhs, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    residual = np.linalg.norm(A @ sol - rhs) / (1.0 + np.linalg.norm(rhs))
    if not math.isfinite(cond) or residual > 1e-6:
        raise ConditioningError(
            "partial-fraction system is numerically defective",
            residual=float(residual), condition=float(cond))

    groups = []
    pos = 0
    for pole, mult in roots:
        groups.append(PoleGroup(pole, tuple(complex(c)
                                            for c in sol[pos:pos + mult])))
        pos += mult
    form = PartialFractionForm(gamma, beta, tuple(groups))

    # cross-check the expansion against the closed rational form
    pts = _fit_sample_points(list(form.poles), count=24)
    worst = 0.0
    for z in pts:
        dz = complex(r.den(z))
        if abs(dz) < 1e-12:
            continue
        ref = complex(r.num(z)) / dz
        got = complex(form(z))
        worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    if worst > 1e-7:
        raise ConditioningError(
            "partial-fraction reconstruction mismatch",
            residual=worst, condition=float(cond))
    return form


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
        for zk, ck in zip(self.zeros, self.residues):
            r = zk - z
            r **= -1
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
    circle around the poles and zeros before the plan is returned.
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
    if min_gap(z) <= max(tol, EPS) * magnitude(alpha):
        raise RepeatedRootError("f has a repeated zero")
    c = -1.0 / np.sum(a / (alpha - z[:, None]) ** 2, axis=1)

    pts = _fit_sample_points(np.concatenate([series.poles, z]), count=50)
    fz = np.sum(a / (alpha - pts[:, None]), axis=1)
    hz = gamma + beta * pts + np.sum(c / (z - pts[:, None]), axis=1)
    worst = float(np.max(np.abs(fz * hz - 1.0)))
    if not worst <= 1e-8:
        raise ConditioningError(
            "inversion plan fails the identity check", residual=worst)
    return InversionPlan(gamma, beta, z, c)


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


@dataclass(frozen=True)
class FilterSeriesReport:
    theorem_mode_ok: bool
    residues: tuple[complex, ...]
    poles: tuple[complex, ...]


def filter_to_series(spec: FilterSpec, tol: float = DEFAULT_ROOT_TOL
                     ) -> tuple[ResolventSeries, FilterSeriesReport]:
    """Residue expansion of the filter transfer function.

    Poles are the roots z_j of p by ``numpy.roots`` and one Newton step
    (kept where it lowers |p|); two closer than ``max(tol, EPS) * max|z_j|``
    raise :class:`RepeatedRootError`.  Coefficients are
    a_j = (q(z)/z)|_{z_j} / p'(z_j), so that q(z)/p(z) = -z f(z).
    ``tol`` must be finite and >= 0, as for :func:`invert_to_plan`.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidInputError("tol must be nonnegative and finite")
    c = np.asarray(spec.c)
    dc = npp.polyder(c)
    z = np.roots(c[::-1])
    pz = npp.polyval(z, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = z - pz / npp.polyval(z, dc)
        z = np.where(np.abs(npp.polyval(newton, c)) <= np.abs(pz), newton, z)
    if min_gap(z) <= max(tol, EPS) * magnitude(z):
        raise RepeatedRootError(
            "characteristic polynomial has a repeated root")
    z = z[np.lexsort((z.imag, z.real))]
    # q(z)/z has the ascending coefficients b, since q has no constant term
    a = npp.polyval(z, spec.b) / npp.polyval(z, dc)
    series = ResolventSeries(tuple(zip(a, z)))
    report = FilterSeriesReport(
        theorem_mode_ok=series.is_theorem_mode(rtol=DERIVED_EPS),
        residues=series.coefficients,
        poles=series.poles,
    )
    return series, report
