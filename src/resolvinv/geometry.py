"""Convex geometry in the complex plane: pole hulls and their distance to
an operator spectrum.

A hull is a short counterclockwise vertex ring built by a monotone chain.
A spectrum is a finite point set, held as a 1-d complex array as long as a
symbol or an eigenvalue list, or the unit circle, [0, inf) or the imaginary
axis.  Point-to-hull distances come from one vectorised pass over all
points and edges; the analytic sets are decided from the hull's vertices,
since two disjoint convex sets are nearest at a vertex of one of them.  A
distance of at most ``tolerance.EPS * max|vertex|`` counts as 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidInputError
from .tolerance import EPS, magnitude

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

# points x edges per pass of the distance kernel, which bounds its memory
_BLOCK = 1 << 18
_TINY = sys.float_info.min


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
        ring = list(zip(v, v[1:] + v[:1]))
        return ring if len(v) > 2 else ring[:len(v) - 1]

    def contains(self, z: complex) -> bool:
        """Exact membership test: z in the closed hull."""
        return bool(_distances(self.vertices, np.array([z], complex))[0] == 0)


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


def _ldexp(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x * 2^k, part by part, for complex x: exact unless it underflows."""
    out = np.empty(np.broadcast_shapes(x.shape, k.shape), dtype=complex)
    out.real = np.ldexp(x.real, k)
    out.imag = np.ldexp(x.imag, k)
    return out


def _distances(v: tuple[complex, ...], z: np.ndarray) -> np.ndarray:
    """Unrounded distances from the points z (1-d) to the hull with vertex
    ring v: the clamped projection onto each edge (a point's one edge is 0,
    projected to t = 0), the minimum over edges, and 0 inside."""
    step = max(1, _BLOCK // len(v))
    if z.size > step:
        return np.concatenate([_distances(v, z[i:i + step])
                               for i in range(0, z.size, step)])
    # each point's row (the point and the ring) is scaled by 2^-k to
    # largest part in [1/2, 1): exact, nothing overflows, and the hull's
    # squared edge lengths underflow only when they are negligible against
    # that point's own distance, whatever the other points' scale
    ring = np.array(v + v[:1])
    k = np.frexp(np.maximum(abs(ring.view(float)).max(),
                            np.maximum(abs(z.real), abs(z.imag))))[1]
    ring = _ldexp(ring, -k[:, None])
    z = _ldexp(z, -k)
    a = ring[:, :-1]
    e = ring[:, 1:] - a
    dz = z[:, None] - a
    # real part: projection onto the edge; imaginary part: the cross
    # product, >= 0 on the inner side of the edge
    ec = e.conj()
    w = dz * ec
    t = w.real / np.maximum((e * ec).real, _TINY)
    np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
    d = np.minimum.reduce(abs(dz - t * e), axis=1)
    if len(v) > 2:
        inside = np.logical_and.reduce(w.imag >= 0.0, axis=1)
        if inside.any():
            # on a sliver hull the signs are rounding for points on the long
            # edges' lines, so an inside point must be in the bounding box
            x, y = z.real, z.imag
            inside &= ((a.real.min(axis=1) <= x) & (x <= a.real.max(axis=1))
                       & (a.imag.min(axis=1) <= y) & (y <= a.imag.max(axis=1)))
            d[inside] = 0.0
    with np.errstate(over="ignore"):  # inf past the float range
        return np.ldexp(d, k)


def hull_distance(hull: HullPolygon, z):
    """Euclidean distance from z to the hull as a set (0 inside or on it):
    a float for a complex z, an array for a 1-d array of points.  A distance
    of at most EPS * max|vertex| is rounding and counts as 0 (a point that
    near has |z| <= (1 + EPS) max|vertex|, so its own scale adds nothing).
    """
    z = np.asarray(z, dtype=complex)
    d = _distances(hull.vertices, z.reshape(-1))
    d[d <= EPS * magnitude(hull.vertices)] = 0.0
    return d if z.ndim else float(d[0])


# --- spectrum descriptors ---------------------------------------------------
# ``distance_to`` takes a complex or an array; ``_gap`` is the hull distance
# before the rounding rule of :func:`hull_spectrum_distance`.


class Spectrum:
    """Geometric description of an operator spectrum."""

    def distance_to(self, z):
        raise NotImplementedError

    def _gap(self, hull: HullPolygon) -> float:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class PointSpectrum(Spectrum):
    """A finite point set, held as the 1-d complex array ``points``."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1)
        if not pts.size:
            raise EmptyInputError("point spectrum must be nonempty")
        object.__setattr__(self, "points", pts)

    def distance_to(self, z):
        z = np.asarray(z, dtype=complex)
        d = np.array([abs(p - self.points).min() for p in z.reshape(-1)])
        return d if z.ndim else d[0]

    def _gap(self, hull):
        return hull_distance(hull, self.points).min()


@dataclass(frozen=True)
class UnitCircle(Spectrum):
    def distance_to(self, z):
        return abs(abs(z) - 1.0)

    def _gap(self, hull):
        rmax = magnitude(hull.vertices)
        return 1.0 - rmax if rmax < 1.0 else max(
            hull_distance(hull, 0j) - 1.0, 0.0)


@dataclass(frozen=True)
class PositiveHalfLine(Spectrum):
    """The closed half line [0, +inf) on the real axis."""

    def distance_to(self, z):
        return np.hypot(np.minimum(z.real, 0.0), z.imag)

    def _gap(self, hull):
        v = hull.vertices
        for a, b in hull.edges():
            # an edge with ends strictly on either side of the real axis
            # crosses it at x, and the ray when x >= 0
            if (min(a.imag, b.imag) < 0.0 < max(a.imag, b.imag)
                    and (a.real * b.imag - b.real * a.imag)
                    / (b.imag - a.imag) >= 0.0):
                return 0.0
        d = min(abs(p.imag) if p.real >= 0.0 else abs(p) for p in v)
        # the ray's own vertex 0 can be nearer, unless Re >= 0 on the hull
        if any(p.real < 0.0 for p in v):
            d = min(d, hull_distance(hull, 0j))
        return d


@dataclass(frozen=True)
class ImaginaryAxis(Spectrum):
    def distance_to(self, z):
        return abs(z.real)

    def _gap(self, hull):
        re = [p.real for p in hull.vertices]
        return 0.0 if min(re) <= 0.0 <= max(re) else min(map(abs, re))


def hull_spectrum_distance(hull: HullPolygon, spectrum: Spectrum) -> float:
    """Set distance between a hull and a spectrum descriptor; at most
    EPS * max|vertex| counts as 0."""
    d = float(spectrum._gap(hull))
    return 0.0 if d <= EPS * magnitude(hull.vertices) else d


def hull_separated_from(hull: HullPolygon, spectrum: Spectrum,
                        margin: float = 0.0) -> tuple[bool, float]:
    """True iff the hull/spectrum set distance exceeds ``margin``.

    Returns (separated, achieved distance).
    """
    if not 0.0 <= margin < math.inf:
        raise InvalidInputError("margin must be nonnegative and finite")
    d = hull_spectrum_distance(hull, spectrum)
    return d > margin, d
