"""Finite resolvent series f(z) = sum_j a_j / (alpha_j - z).

The series object, its scalar evaluation, the affine part (gamma, beta) of
its reciprocal, admissibility diagnostics against a spectrum descriptor
and the one gate that raises on them, the zeros of f, and the
Caratheodory-type construction of a series vanishing at a prescribed
interior point of the pole hull.

Infinite series are represented by finite truncations; the summability
value reported by :func:`check_admissible` refers to the truncation and
tail control is the caller's responsibility.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    ConstructionError,
    DegenerateSeriesError,
    EmptyInputError,
    HypothesisError,
    InvalidInputError,
    PoleEvaluationError,
    ResolvinvError,
    SeparationError,
)
from .geometry import (
    HullPolygon,
    Spectrum,
    convex_hull,
    hull_separated_from,
)
from .tolerance import (
    EPS,
    SPECTRUM_EPS,
    magnitude,
    negligible,
    require_distinct,
)

__all__ = [
    "ResolventSeries",
    "AdmissibilityReport",
    "evaluate",
    "gamma_beta",
    "check_admissible",
    "require_admissible",
    "theorem_mode",
    "secular_zeros",
    "caratheodory_zero_series",
]


@dataclass(frozen=True)
class ResolventSeries:
    """Finite list of (coefficient a_j, pole alpha_j) pairs.

    Coefficients and poles must be finite and the poles pairwise distinct
    (see :mod:`resolvinv.tolerance`); zero coefficients are allowed and
    can be removed with :meth:`pruned`.
    """

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise EmptyInputError("series needs at least one term")
        terms = tuple((complex(a), complex(al)) for a, al in self.terms)
        object.__setattr__(self, "terms", terms)
        values = np.array(terms)
        if not np.isfinite(values).all():
            raise InvalidInputError(
                "series coefficients and poles must be finite")
        require_distinct(values[:, 1])

    @property
    def coefficients(self) -> tuple[complex, ...]:
        return tuple(a for a, _ in self.terms)

    @property
    def poles(self) -> tuple[complex, ...]:
        return tuple(al for _, al in self.terms)

    @property
    def scale(self) -> float:
        """max |alpha_j|, the scale of the pole tolerances."""
        return magnitude(self.poles)

    @property
    def coefficient_sum(self) -> complex:
        return complex(
            math.fsum(a.real for a in self.coefficients),
            math.fsum(a.imag for a in self.coefficients),
        )

    def is_theorem_mode(self, rtol: float = EPS) -> bool:
        """See :func:`theorem_mode`."""
        return theorem_mode(self.coefficients, rtol)

    def pruned(self) -> "ResolventSeries":
        """Drop the terms whose coefficient is zero."""
        kept = tuple(t for t in self.terms if t[0] != 0)
        if not kept:
            raise DegenerateSeriesError("all coefficients vanish")
        if len(kept) == len(self.terms):
            return self
        return ResolventSeries(kept)


def theorem_mode(coefficients, rtol: float = EPS) -> bool:
    """Nonnegative real coefficients with positive sum, up to
    ``rtol * max|a|``."""
    atol = rtol * magnitude(coefficients)
    return (all(abs(a.imag) <= atol and a.real >= -atol for a in coefficients)
            and math.fsum(a.real for a in coefficients) > atol)


def _fsum_complex(values) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals),
                   math.fsum(v.imag for v in vals))


def evaluate(series: ResolventSeries, z: complex) -> complex:
    """Value of f at z via compensated summation.

    Raises :class:`PoleEvaluationError` if z sits on a pole.
    """
    z = complex(z)
    tol = EPS * max(series.scale, abs(z))
    for _, alpha in series.terms:
        if abs(z - alpha) <= tol:
            raise PoleEvaluationError(alpha, z)
    return _fsum_complex(a / (alpha - z) for a, alpha in series.terms)


def gamma_beta(series: ResolventSeries) -> tuple[complex, complex]:
    """Affine part of 1/f at infinity.

    gamma = sum(a_j alpha_j) / (sum a_j)^2 and beta = -1 / sum(a_j).
    """
    s = series.coefficient_sum
    if negligible(s, *series.coefficients):
        raise DegenerateSeriesError("coefficient sum vanishes")
    weighted = _fsum_complex(a * al for a, al in series.terms)
    # two divisions: s * s underflows to 0 for sums below about 1e-154
    return weighted / s / s, -1.0 / s


@dataclass(frozen=True)
class TermDiagnostic:
    coefficient: complex
    pole: complex
    spectrum_distance: float
    summand: float  # |a_j| / dist(alpha_j, spectrum); inf on the spectrum


@dataclass(frozen=True)
class AdmissibilityReport:
    theorem_mode_ok: bool
    hull: HullPolygon
    separation_ok: bool
    separation_distance: float
    summability_value: float
    per_term: tuple[TermDiagnostic, ...]

    def rejection(self) -> ResolvinvError | None:
        """The error :func:`require_admissible` raises on this report:
        :class:`HypothesisError` unless the series is in theorem mode,
        then :class:`SeparationError` unless the pole hull is separated
        from the spectrum and the summability value is finite (no pole
        with a nonzero coefficient on the spectrum by the per-term rule);
        None when the hypotheses hold."""
        if not self.theorem_mode_ok:
            return HypothesisError("series coefficients must be nonnegative "
                                   "real with positive sum")
        if not self.separation_ok:
            return SeparationError(
                "pole hull is not separated from the spectrum")
        if self.summability_value == math.inf:
            return SeparationError("a pole lies on or too near the spectrum "
                                   "(infinite summability)")
        return None


def check_admissible(series: ResolventSeries, spectrum: Spectrum,
                     margin: float = 0.0) -> AdmissibilityReport:
    """Diagnostics for the inversion hypotheses; never raises.

    Reports theorem mode, the pole hull, its separation from the spectrum,
    and the summability value sum |a_j| / dist(alpha_j, spectrum).  A
    distance of at most max(EPS * max|alpha|, SPECTRUM_EPS * |alpha_j|)
    counts as 0: the hull's rule, or exactly every solve's pole rule, so a
    series that passes fails no solve's pole check at its own poles.  Both
    bounds come from :func:`magnitude`, finite for any finite poles.
    """
    hull = convex_hull(series.poles)
    separated, dist = hull_separated_from(hull, spectrum, margin)
    dists = np.array(spectrum.distance_to(np.array(series.poles)), float)
    hull_floor = magnitude(series.poles, EPS)
    diags = []
    for (a, alpha), d in zip(series.terms, dists.tolist()):
        if d <= max(hull_floor, magnitude((alpha,), SPECTRUM_EPS)):
            d = 0.0
        if d > 0.0:
            summand = abs(a) / d
        else:
            summand = math.inf if abs(a) > 0.0 else 0.0
        diags.append(TermDiagnostic(a, alpha, d, summand))
    total = math.fsum(t.summand for t in diags) if all(
        math.isfinite(t.summand) for t in diags) else math.inf
    return AdmissibilityReport(
        theorem_mode_ok=series.is_theorem_mode(),
        hull=hull,
        separation_ok=separated,
        separation_distance=dist,
        summability_value=total,
        per_term=tuple(diags),
    )


def require_admissible(series: ResolventSeries, spectrum: Spectrum,
                       margin: float = 0.0) -> AdmissibilityReport:
    """:func:`check_admissible` that raises its report's
    :meth:`~AdmissibilityReport.rejection`, the decision ``resolvinv
    check`` reports too."""
    report = check_admissible(series, spectrum, margin)
    error = report.rejection()
    if error is not None:
        raise error
    return report


def numerator_coefficients(series: ResolventSeries) -> np.ndarray:
    """Ascending coefficients of sum_j a_j * prod_{i != j} (alpha_i - z).

    No package code calls it: the benchmark's span tracer
    (``perfbench/spans.py``) wraps it by name, which keeps it here.  It is
    not used to find zeros (see :func:`secular_zeros`): the monomial basis
    loses accuracy quickly as the number of terms grows.
    """
    m = len(series.terms)
    total = np.zeros(m, dtype=complex)
    for j, (a, _) in enumerate(series.terms):
        prod = np.array([a], dtype=complex)
        for i, (_, alpha) in enumerate(series.terms):
            if i != j:
                prod = np.convolve(prod, np.array([alpha, -1.0], dtype=complex))
        total[: len(prod)] += prod
    return total


def secular_zeros(coefficients, poles) -> np.ndarray:
    """Zeros of sum_j a_j / (alpha_j - z), sorted by (real, imag).

    With a_j = u_j^2 the series is u^T (D - z)^{-1} u for D = diag(alpha),
    so its zeros are the eigenvalues of D compressed onto the complement
    of u (the secular equation of Golub, "Some modified matrix eigenvalue
    problems", SIAM Review 1973).  One reflector H = I - 2 w w^T with
    H u = -s e_1, s^2 = sum a_j, gives that compression as the trailing
    (m-1)x(m-1) block of H D H: one small eigenvalue solve, no polynomial.
    The bilinear (unconjugated) form keeps this valid for complex a_j.
    """
    a = np.asarray(coefficients, dtype=complex)
    alpha = np.asarray(poles, dtype=complex)
    if a.size < 2:
        return np.zeros(0, dtype=complex)
    s2 = a.sum()
    if negligible(s2, magnitude(a)):
        raise DegenerateSeriesError("coefficient sum vanishes")
    u = np.sqrt(a)
    s = np.sqrt(s2)
    if (s.conjugate() * u[0]).real < 0.0:
        s = -s  # keeps v^T v = 2 s (s + u_0) away from zero
    v = u.copy()
    v[0] += s
    w = v / np.sqrt(v @ v)
    shift = alpha.mean()  # eigenvalue errors scale with the block's norm
    d = (alpha - shift) * w
    w1, d1 = w[1:], d[1:]
    block = (np.diag(alpha[1:] - shift)
             + np.outer(w1, 4.0 * (w @ d) * w1 - 2.0 * d1)
             - 2.0 * np.outer(d1, w1))
    if not np.isfinite(block).all():
        raise ConditioningError("series terms overflow the zero solve")
    z = np.linalg.eigvals(block) + shift
    return z[np.lexsort((z.imag, z.real))]


def _barycentric_pair(lam, a0, a1):
    d = a1 - a0
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return None
    t = ((lam - a0).conjugate() * d).real / L2
    if t < -EPS or t > 1.0 + EPS:
        return None
    if not negligible(lam - (a0 + t * d), a0, a1, lam):
        return None
    t = min(1.0, max(0.0, t))
    return (1.0 - t, t)


def _barycentric_triple(lam, a0, a1, a2):
    d1 = a1 - a0
    d2 = a2 - a0
    det = d1.real * d2.imag - d2.real * d1.imag
    if det == 0.0:
        return None
    r = lam - a0
    k1 = (r.real * d2.imag - d2.real * r.imag) / det
    k2 = (d1.real * r.imag - r.real * d1.imag) / det
    return (1.0 - k1 - k2, k1, k2)


def caratheodory_zero_series(poles, target: complex) -> ResolventSeries:
    """Series with nonnegative coefficients vanishing at ``target``.

    ``target`` must lie strictly inside the convex hull of ``poles`` (or on
    a segment between two of them) and must not coincide with a pole.  At
    most three poles are used, with coefficients a_nu = k_nu |alpha_nu -
    target|^2 for barycentric weights k_nu summing to one.
    """
    poles = [complex(p) for p in poles]
    if not poles:
        raise EmptyInputError("no poles given")
    target = complex(target)
    scale = max(magnitude(poles), abs(target))
    for p in poles:
        if negligible(target - p, scale):
            raise ConstructionError(f"target {target} coincides with pole {p}")

    best = None  # (min weight, [(k, pole), ...])
    for i, j, k in itertools.combinations(range(len(poles)), 3):
        bc = _barycentric_triple(target, poles[i], poles[j], poles[k])
        if bc is None:
            continue
        if min(bc) < -EPS:
            continue
        cand = (min(bc), [(bc[0], poles[i]), (bc[1], poles[j]),
                          (bc[2], poles[k])])
        if best is None or cand[0] > best[0]:
            best = cand
    if best is None:
        for i, j in itertools.combinations(range(len(poles)), 2):
            bc = _barycentric_pair(target, poles[i], poles[j])
            if bc is None:
                continue
            cand = (min(bc), [(bc[0], poles[i]), (bc[1], poles[j])])
            if best is None or cand[0] > best[0]:
                best = cand
    if best is None:
        raise ConstructionError(
            f"target {target} lies outside the convex hull of the poles")

    terms = tuple((k * abs(p - target) ** 2, p)
                  for k, p in best[1] if k > 0.0)
    if not terms:
        raise ConstructionError("degenerate barycentric weights")
    return ResolventSeries(terms)
