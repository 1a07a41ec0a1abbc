"""Finite resolvent series f(z) = sum_j a_j / (alpha_j - z).

The series object, its scalar evaluation, the affine part (gamma, beta) of
its reciprocal, admissibility diagnostics against a spectrum descriptor
and the one gate that raises on them, the zeros of f, and the
Caratheodory-type construction of a series vanishing at a prescribed
interior point of the pole hull, both taken in power-of-two frames.

Infinite series are represented by finite truncations; the summability
value reported by :func:`check_admissible` refers to the truncation and
tail control is the caller's responsibility.
"""

from __future__ import annotations

import functools
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
    hull_distance,
    hull_separated_from,
)
from .tolerance import (
    EPS,
    SPECTRUM_EPS,
    distinct,
    fsum,
    ldexp,
    magnitude,
    negligible,
    require_distinct,
    unit_frame,
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


@dataclass(frozen=True, eq=False, init=False)
class ResolventSeries:
    """Finite list of (coefficient a_j, pole alpha_j) pairs, held as two
    read-only 1-d complex arrays of one length.

    Coefficients and poles must be finite and the poles pairwise distinct
    (see :mod:`resolvinv.tolerance`); zero coefficients are allowed, and
    the plan and every operator skip their terms.  Two series are equal
    when their :attr:`terms` are.
    """

    coefficients: np.ndarray
    poles: np.ndarray

    def __init__(self, terms):
        pairs = [(complex(a), complex(al)) for a, al in terms]
        if not pairs:
            raise EmptyInputError("series needs at least one term")
        a, alpha = np.array(pairs).T.copy()
        if not (np.isfinite(a).all() and np.isfinite(alpha).all()):
            raise InvalidInputError(
                "series coefficients and poles must be finite")
        require_distinct(alpha)
        a.flags.writeable = alpha.flags.writeable = False
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "poles", alpha)

    @classmethod
    def from_arrays(cls, coefficients, poles) -> "ResolventSeries":
        """The series of the coefficients a_j at the poles alpha_j, two
        sequences of one length (else ValueError)."""
        return cls(zip(coefficients, poles, strict=True))

    @property
    def terms(self) -> tuple[tuple[complex, complex], ...]:
        return tuple(zip(self.coefficients.tolist(), self.poles.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ResolventSeries):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def is_theorem_mode(self) -> bool:
        """See :func:`theorem_mode`.  Decided once per series, which is
        immutable, so the gate and the plan read one answer."""
        return self._theorem_mode

    @functools.cached_property
    def _theorem_mode(self) -> bool:
        return theorem_mode(self.coefficients.tolist())


def theorem_mode(coefficients, rtol: float = EPS) -> bool:
    """Nonnegative real coefficients with positive sum, up to
    ``rtol * max|a|``; the sum may pass the float range."""
    atol = rtol * magnitude(coefficients)
    return (all(abs(a.imag) <= atol and a.real >= -atol for a in coefficients)
            and fsum(a.real for a in coefficients) > atol)


def _fsum_complex(values) -> complex:
    """The :func:`~resolvinv.tolerance.fsum` of each part."""
    vals = list(values)
    return complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))


def evaluate(series: ResolventSeries, z: complex) -> complex:
    """Value of f at z via compensated summation.

    Raises :class:`PoleEvaluationError` within ``EPS * max(|alpha|, |z|)``
    of a pole.  Coefficients, and poles with z, are taken in their own
    :func:`~resolvinv.tolerance.unit_frame`: inf only past the float range.
    """
    z = complex(z)
    framed, k = unit_frame(np.append(series.poles, z))
    *alphas, zf = framed.tolist()
    tol = magnitude(framed, EPS)
    for alpha, pole in zip(alphas, series.poles.tolist()):
        if abs(zf - alpha) <= tol:
            raise PoleEvaluationError(pole, z)
    a, ka = unit_frame(series.coefficients)
    return ldexp(_fsum_complex(x / (alpha - zf)
                               for x, alpha in zip(a.tolist(), alphas)),
                 ka - k)


def gamma_beta(series: ResolventSeries) -> tuple[complex, complex]:
    """Affine part of 1/f at infinity.

    gamma = sum(a_j alpha_j) / (sum a_j)^2 and beta = -1 / sum(a_j), taken
    on the coefficients and the poles each in their
    :func:`~resolvinv.tolerance.unit_frame`, where no sum or product
    overflows, and scaled back.
    """
    a, k = unit_frame(series.coefficients)
    alpha, kp = unit_frame(series.poles)
    gamma, beta = framed_gamma_beta(a, alpha.tolist())
    return ldexp(gamma, kp - k), ldexp(beta, -k)


def framed_gamma_beta(a, poles) -> tuple[complex, complex]:
    """:func:`gamma_beta` for the coefficients a already in their frame,
    2^-k a_j, and poles scaled by any 2^-kp: 2^(k-kp) gamma and 2^k beta."""
    a = a.tolist()
    s = _fsum_complex(a)
    if negligible(s, *a):
        raise DegenerateSeriesError("coefficient sum vanishes")
    weighted = _fsum_complex(x * al for x, al in zip(a, poles))
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
        from the spectrum and no term with a nonzero coefficient has its
        pole at distance 0 (the per-term rule); None when the hypotheses
        hold.  A summability value past the float range is inf and
        rejects nothing by itself."""
        if not self.theorem_mode_ok:
            return HypothesisError("series coefficients must be nonnegative "
                                   "real with positive sum")
        if not self.separation_ok:
            return SeparationError(
                "pole hull is not separated from the spectrum")
        if any(t.spectrum_distance == 0.0 and t.coefficient != 0
               for t in self.per_term):
            return SeparationError("a pole lies on or too near the spectrum "
                                   "(infinite summability)")
        return None


def check_admissible(series: ResolventSeries, spectrum: Spectrum,
                     margin: float = 0.0) -> AdmissibilityReport:
    """Diagnostics for the inversion hypotheses; never raises.

    Reports theorem mode, the pole hull, its separation from the spectrum,
    and the summability value sum |a_j| / dist(alpha_j, spectrum), inf
    for a pole with a nonzero coefficient at distance 0 or a value past
    the float range.  Both the hull's distance and each pole's count as 0
    up to one floor, SPECTRUM_EPS * max|alpha| (from :func:`magnitude`,
    finite for any finite poles).  In theorem mode every zero z of the plan lies in the
    hull, so |z| <= max|alpha|, and a series that passes has no pole and
    no zero within SPECTRUM_EPS times its modulus of the spectrum: it
    fails no solve's pole check at its own poles or at its plan's zeros.
    """
    hull = convex_hull(series.poles)
    separated, dist = hull_separated_from(hull, spectrum, margin)
    dists = np.array(spectrum.distance_to(series.poles), float)
    poles = series.poles.tolist()
    floor = magnitude(poles, SPECTRUM_EPS)
    diags = []
    for a, alpha, d in zip(series.coefficients.tolist(), poles,
                           dists.tolist()):
        if d <= floor:
            d = 0.0
        try:
            size = abs(a)
        except OverflowError:  # |a| past the float range
            size = math.inf
        if d > 0.0:
            summand = size / d
        else:
            summand = math.inf if size > 0.0 else 0.0
        diags.append(TermDiagnostic(a, alpha, d, summand))
    total = fsum(t.summand for t in diags) if all(
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
    poles = series.poles.tolist()
    total = np.zeros(len(poles), dtype=complex)
    for j, a in enumerate(series.coefficients.tolist()):
        prod = np.array([a], dtype=complex)
        for i, alpha in enumerate(poles):
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
    The zeros do not change when every a_j is scaled by one positive
    number: they are taken on 2^-k a_j, in the coefficients' frame of
    :func:`~resolvinv.tolerance.unit_frame` with k made even, where no
    sum overflows and sqrt(a_j) scales exactly.  A block that overflows
    is formed again on the poles in their frame (eigenvalues do not scale
    bit for bit, so only then).
    """
    return framed_secular_zeros(*unit_frame(coefficients), poles)


def framed_secular_zeros(a, k: int, poles) -> np.ndarray:
    """:func:`secular_zeros` for the coefficients given in their frame,
    a = 2^-k a_j (an array, left as it is)."""
    alpha = np.asarray(poles, dtype=complex)
    if a.size < 2:
        return np.zeros(0, dtype=complex)
    if k % 2:
        a = 2.0 * a
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
    with np.errstate(over="ignore", invalid="ignore"):
        for framed in (False, True):
            if framed:
                alpha, kp = unit_frame(alpha)
            shift = alpha.mean()  # eigenvalue errors scale with the norm
            d = (alpha - shift) * w
            w1, d1 = w[1:], d[1:]
            # diag(alpha_i - shift) + outer(...) - 2 outer(d1, w1), in place
            # on the diagonal's own zeros: the same operations, bit for bit
            block = np.zeros((w1.size, w1.size), dtype=complex)
            block.flat[::w.size] = alpha[1:] - shift
            block += np.outer(w1, 4.0 * (w @ d) * w1 - 2.0 * d1)
            block -= 2.0 * np.outer(d1, w1)
            if np.isfinite(block).all():
                break
        else:
            raise ConditioningError("series terms overflow the zero solve")
    z = np.linalg.eigvals(block) + shift
    if framed:
        z = ldexp(z, kp)
    return z[np.lexsort((z.imag, z.real))]


def _hull_weights(u) -> list:
    """[(k, i)]: barycentric weights k of the origin on at most three
    points of the counterclockwise ring u of exact (re, im) pairs: the fan
    triangle (u_0, u_i, u_i+1) whose smallest weight is largest, if that
    is >= 0, else (a segment, or the origin outside the ring by rounding)
    the clamped projection onto the nearest edge."""
    n = len(u)
    fan = [(i, [u[b][0] * u[c][1] - u[b][1] * u[c][0]
                for b, c in ((i, i + 1), (i + 1, 0), (0, i))])
           for i in range(1, n - 1)]
    lo, i, k = max(((min(k) / sum(k), i, k) for i, k in fan if sum(k) > 0),
                   default=(-1, 0, ()))
    if lo >= 0:
        return [(x / sum(k), j) for x, j in zip(k, (0, i, i + 1))]

    def projection(i, j):
        (x, y), (ex, ey) = u[i], (u[j][0] - u[i][0], u[j][1] - u[i][1])
        s = min(1, max(0, -(x * ex + y * ey) / (ex * ex + ey * ey)))
        return (x + s * ex) ** 2 + (y + s * ey) ** 2, [(1 - s, i), (s, j)]

    return min((projection(i, (i + 1) % n) for i in range(n if n > 2 else 1)),
               key=lambda c: c[0])[1]


def caratheodory_zero_series(poles, target: complex) -> ResolventSeries:
    """Series with nonnegative coefficients vanishing at ``target``.

    :class:`ConstructionError` unless ``target`` is in the pole hull
    (``hull_distance`` 0) and farther than ``EPS * max(|pole|, |target|)``
    from each pole, :class:`InvalidInputError` unless all are finite.  The
    hull is that of the poles merged by the series' own pole gap
    (:func:`~resolvinv.tolerance.distinct`), so that its vertices form a
    series.  At most three hull vertices, weights k_nu of
    :func:`_hull_weights`, a_nu = k_nu |alpha_nu - target|^2 / max_mu
    |alpha_mu - target|^2 <= 1: exact rationals in one
    :func:`~resolvinv.tolerance.unit_frame`, rounded once, so the same
    bits when poles and target are scaled by a power of two.
    """
    poles = [complex(p) for p in poles]
    target = complex(target)
    if not np.isfinite([*poles, target]).all():
        raise InvalidInputError("poles and target must be finite")
    framed, _ = unit_frame([*poles, target])
    *w, t = framed.tolist()
    tol = magnitude(framed, EPS)
    for p, q in zip(w, poles):
        if abs(t - p) <= tol:
            raise ConstructionError(f"target {target} coincides with pole {q}")
    hull = convex_hull(distinct(w))
    if hull_distance(hull, t) > 0.0:
        raise ConstructionError(
            f"target {target} lies outside the convex hull of the poles")
    from fractions import Fraction  # with decimal, 3 ms of CLI start-up
    u = [(Fraction(v.real) - Fraction(t.real),
          Fraction(v.imag) - Fraction(t.imag)) for v in hull.vertices]
    kept = [(k, i) for k, i in _hull_weights(u) if k > 0]
    top = max(u[i][0] ** 2 + u[i][1] ** 2 for _, i in kept)
    original = dict(zip(w, poles))
    return ResolventSeries(tuple(
        (float(k * (u[i][0] ** 2 + u[i][1] ** 2) / top),
         original[hull.vertices[i]]) for k, i in kept))
