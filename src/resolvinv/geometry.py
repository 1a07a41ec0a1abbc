"""Convex geometry of finite point sets in the complex plane.

Hulls, point-to-hull distances and hull-vs-spectrum separation predicates.
Point counts are tiny (filter orders), so everything favours robustness
over asymptotic speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInputError, InvalidInputError
from .tolerance import EPS

__all__ = [
    "HullPolygon",
    "Spectrum",
    "PointSpectrum",
    "UnitCircle",
    "PositiveHalfLine",
    "ImaginaryAxis",
    "convex_hull",
    "hull_distance",
    "hull_spectrum_distance",
    "hull_separated_from",
]


def _cross(o: complex, a: complex, b: complex) -> float:
    """Signed area of the parallelogram (a-o, b-o); > 0 for a left turn."""
    return ((a - o).conjugate() * (b - o)).imag


@dataclass(frozen=True)
class HullPolygon:
    """Convex hull as a counterclockwise vertex ring.

    Degenerate hulls are first class: a single point has one vertex,
    a segment has two.
    """

    vertices: tuple[complex, ...]

    def __post_init__(self):
        if not self.vertices:
            raise EmptyInputError("hull needs at least one vertex")

    def edges(self):
        """Closed edge list; empty for a point, one edge for a segment."""
        v = self.vertices
        if len(v) == 1:
            return []
        if len(v) == 2:
            return [(v[0], v[1])]
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains(self, z: complex) -> bool:
        """Exact membership test: z in the closed hull."""
        v = self.vertices
        if len(v) == 1:
            return z == v[0]
        if len(v) == 2:
            return _point_segment_distance(z, v[0], v[1]) == 0.0
        return all(_cross(a, b, z) >= 0.0 for a, b in self.edges())


def convex_hull(points) -> HullPolygon:
    """Monotone-chain convex hull of complex points.

    Exactly collinear points interior to an edge are dropped; duplicate
    inputs are merged at ``tolerance.EPS`` relative to their own modulus.
    """
    pts = list(points)
    if not pts:
        raise EmptyInputError("convex_hull of empty point set")
    for p in pts:
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise InvalidInputError(f"non-finite point {p}")
    # near-duplicates need not be adjacent in the sort (e.g. tiny real
    # parts with different signs), so merge against every kept point. The
    # merge radius is relative to the pair, not to the spread of the set:
    # a dropped point then lies within EPS*|p| of the hull, where a
    # spread-relative radius could cut a small extreme point off it.
    uniq: list[complex] = []
    for p in sorted(pts, key=lambda w: (w.real, w.imag)):
        if all(abs(p - q) > EPS * max(abs(p), abs(q)) for q in uniq):
            uniq.append(p)
    if len(uniq) == 1:
        return HullPolygon((uniq[0],))

    # exact-sign popping: a tolerance here mistakes far points for collinear
    # ones whenever the chain base is much shorter than the point spread
    def chain(seq):
        out: list[complex] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = chain(uniq)
    upper = chain(reversed(uniq))
    ring = lower[:-1] + upper[:-1]
    if len(ring) <= 2:
        # collinear input: the sort order can hide the true extent (a tiny
        # real spread with a large imaginary one), so keep the farthest pair
        a, b = max(((p, q) for i, p in enumerate(uniq)
                    for q in uniq[i + 1:]), key=lambda pq: abs(pq[0] - pq[1]))
        return HullPolygon((a, b))
    return HullPolygon(tuple(ring))


def _point_segment_distance(z: complex, a: complex, b: complex) -> float:
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(z - a)
    t = ((z - a).conjugate() * d).real / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def hull_distance(hull: HullPolygon, z: complex) -> float:
    """Euclidean distance from z to the hull as a set (0 inside or on it).

    A computed distance of at most EPS * max(|z|, max|vertex|) is rounding
    and counts as 0, so a point on an edge stays on it at every scale.
    """
    v = hull.vertices
    if len(v) == 1:
        d = abs(z - v[0])
    elif len(v) == 2:
        d = _point_segment_distance(z, v[0], v[1])
    elif hull.contains(z):
        return 0.0
    else:
        d = min(_point_segment_distance(z, a, b) for a, b in hull.edges())
    return 0.0 if d <= EPS * max(abs(z), max(abs(u) for u in v)) else d


def _segment_segment_distance(a0, a1, b0, b1) -> float:
    """Distance between two closed segments in the plane."""
    d1 = a1 - a0
    d2 = b1 - b0
    r = b0 - a0
    # solve a0 + s d1 = b0 + t d2 as a real 2x2 system
    det = d1.real * (-d2.imag) - (-d2.real) * d1.imag
    if det != 0.0:
        s = (r.real * (-d2.imag) - (-d2.real) * r.imag) / det
        t = (d1.real * r.imag - r.real * d1.imag) / det
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            return 0.0
    return min(
        _point_segment_distance(a0, b0, b1),
        _point_segment_distance(a1, b0, b1),
        _point_segment_distance(b0, a0, a1),
        _point_segment_distance(b1, a0, a1),
    )


# --- spectrum descriptors ---------------------------------------------------


class Spectrum:
    """Geometric description of an operator spectrum."""

    def distance_to(self, z: complex) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class PointSpectrum(Spectrum):
    points: tuple[complex, ...]

    def __post_init__(self):
        if not self.points:
            raise EmptyInputError("point spectrum must be nonempty")

    def distance_to(self, z: complex) -> float:
        return min(abs(z - p) for p in self.points)


@dataclass(frozen=True)
class UnitCircle(Spectrum):
    def distance_to(self, z: complex) -> float:
        return abs(abs(z) - 1.0)


@dataclass(frozen=True)
class PositiveHalfLine(Spectrum):
    """The closed half line [0, +inf) on the real axis."""

    def distance_to(self, z: complex) -> float:
        if z.real >= 0.0:
            return abs(z.imag)
        return abs(z)


@dataclass(frozen=True)
class ImaginaryAxis(Spectrum):
    def distance_to(self, z: complex) -> float:
        return abs(z.real)


def _hull_circle_distance(hull: HullPolygon) -> float:
    rmax = max(abs(v) for v in hull.vertices)
    if rmax < 1.0:
        return 1.0 - rmax
    d0 = hull_distance(hull, 0j)
    if d0 > 1.0:
        return d0 - 1.0
    return 0.0


def _hull_ray_distance(hull: HullPolygon) -> float:
    """Distance between the hull and the closed ray [0, +inf)."""
    if hull.contains(0j):
        return 0.0
    v = hull.vertices
    if len(v) == 1:
        return PositiveHalfLine().distance_to(v[0])
    # the hull is bounded, so a segment [0, B] stands in for the ray
    B = 2.0 * max(abs(p) for p in v)
    return min(_segment_segment_distance(a, b, 0j, complex(B, 0.0))
               for a, b in hull.edges())


def _hull_line_distance(hull: HullPolygon) -> float:
    """Distance between the hull and the imaginary axis."""
    re = [v.real for v in hull.vertices]
    if min(re) <= 0.0 <= max(re):
        return 0.0
    return min(abs(x) for x in re)


def hull_spectrum_distance(hull: HullPolygon, spectrum: Spectrum) -> float:
    """Exact set distance between a hull and a spectrum descriptor."""
    if isinstance(spectrum, PointSpectrum):
        return min(hull_distance(hull, p) for p in spectrum.points)
    if isinstance(spectrum, UnitCircle):
        return _hull_circle_distance(hull)
    if isinstance(spectrum, PositiveHalfLine):
        return _hull_ray_distance(hull)
    if isinstance(spectrum, ImaginaryAxis):
        return _hull_line_distance(hull)
    raise TypeError(f"unknown spectrum descriptor {spectrum!r}")


def hull_separated_from(hull: HullPolygon, spectrum: Spectrum,
                        margin: float = 0.0) -> tuple[bool, float]:
    """True iff the hull/spectrum set distance exceeds ``margin``.

    Returns (separated, achieved distance).
    """
    if not 0.0 <= margin < math.inf:
        raise InvalidInputError("margin must be nonnegative and finite")
    d = hull_spectrum_distance(hull, spectrum)
    return d > margin, d
