"""Convex geometry in the complex plane: pole hulls and their distance to
an operator spectrum.

A hull is a short counterclockwise vertex ring built by a monotone chain.
A spectrum is a finite point set, held as a 1-d complex array as long as a
symbol or an eigenvalue list, or the unit circle, [0, inf) or the imaginary
axis.  Point-to-hull distances come from one vectorised pass over all
points and edges; the analytic sets are decided from the hull's vertices,
since two disjoint convex sets are nearest at a vertex of one of them.  A
point's distance to a hull counts as 0 up to ``tolerance.EPS *
max|vertex|``, and the hull's distance to a spectrum up to
``tolerance.SPECTRUM_EPS * max|vertex|``: in theorem mode the hull holds
every zero z of the inverse's plan, with |z| <= max|vertex|, so a hull
farther than that from the spectrum has no zero within ``SPECTRUM_EPS *
|z|`` of it, the pole rule of every solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidInputError
from .tolerance import (
    EPS,
    SPECTRUM_EPS,
    frame_exponents,
    ldexp,
    magnitude,
    unit_frame,
)

__all__ = [
    "HullPolygon",
    "Spectrum",
    "PointSpectrum",
    "UnitCircle",
    "PositiveHalfLine",
    "ImaginaryAxis",
    "convex_hull",
    "hull_distance",
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


def convex_hull(points) -> HullPolygon:
    """Monotone-chain convex hull of complex points.

    The points must be pairwise distinct by the rule of
    :func:`tolerance.distinct`, as a series' poles are: nothing here merges
    near-duplicates (an exact duplicate gives a zero-length edge, never a
    wrong distance).  Exactly collinear points interior to an edge are
    dropped.  The tests run on the points scaled by one exact power of two
    (see :func:`tolerance.unit_frame`), so they neither overflow nor
    depend on the scale; the vertices are input points.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    if not pts.size:
        raise EmptyInputError("convex_hull of empty point set")
    bad = pts[~np.isfinite(pts)]
    if bad.size:
        raise InvalidInputError(f"non-finite point {bad[0]}")
    frame = unit_frame(pts)[0]
    w = frame.tolist()
    pts = pts.tolist()
    order = sorted(range(len(w)), key=lambda i: (w[i].real, w[i].imag))

    # exact-sign popping: a tolerance here mistakes far points for collinear
    # ones whenever the chain base is much shorter than the point spread
    def chain(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and _cross(w[out[-2]], w[out[-1]],
                                           w[i]) <= 0.0:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    ring = lower[:-1] + upper[:-1]
    if len(order) <= 2:
        ring = order  # a point, or the one pair
    elif len(ring) <= 2:
        # collinear input: the sort order can hide the true extent (a tiny
        # real spread with a large imaginary one), so keep the farthest pair
        ring = [order[k] for k in _farthest_pair(frame[order])]
    return HullPolygon(tuple(pts[i] for i in ring))


def _farthest_pair(w: np.ndarray) -> tuple[int, int]:
    """(a, b) with a < b: the first pair, row by row, at the largest
    |w[a] - w[b]|, the modulus rounded as Python's ``abs`` rounds it
    (``np.hypot`` on the parts; ``np.abs`` of a complex array rounds
    differently).  The rows go in blocks of at most _BLOCK entries, about
    an eighth of the rows each but at least 64, and each block takes the
    columns from its own first row on, so the table is formed about once
    above the diagonal, not twice.  Only the diagonal is masked: the
    block's own square is symmetric bit for bit, so a maximum below its
    diagonal has its mirror above, in an earlier row."""
    m = w.size
    step = max(1, min(_BLOCK // m, max(64, -(-m // 8))))
    best = (-1.0, 0, 1)
    for lo in range(0, m, step):
        dz = w[lo:lo + step, None] - w[lo:]
        d = np.hypot(dz.real, dz.imag)
        width = m - lo
        d.ravel()[::width + 1] = -1.0
        k = int(d.argmax())
        if d.flat[k] > best[0]:
            best = (d.flat[k], lo + k // width, lo + k % width)
    return best[1:]


def _framed(kernel, ring: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``kernel(rings, zs)``, one distance per point of z (1-d), with each
    point's row (the point and ``ring``) in the frame of
    :func:`~resolvinv.tolerance.unit_frame`: exact, nothing overflows, and
    the ring's squared edge lengths underflow only when they are
    negligible against that point's own distance, whatever the other
    points' scale.  When every row lies inside the frame's window, the
    kernel runs on the one unscaled ring, broadcast against the points;
    else the rows are scaled and their distances scaled back (inf past
    the float range).  The rows go in blocks of about _BLOCK entries,
    which bounds the memory."""
    # the parts as floats: one ldexp scales a row's real and imaginary parts
    ring = np.ascontiguousarray(ring, dtype=complex).view(float)
    z = np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)
    k = -frame_exponents(np.maximum(abs(ring).max(), abs(z).max(axis=1)))
    framed = k.any()
    d = np.empty(z.shape[0])
    step = max(1, 2 * _BLOCK // ring.size)
    for i in range(0, d.size, step):
        s = slice(i, i + step)
        if framed:
            d[s] = kernel(np.ldexp(ring, k[s, None]).view(complex),
                          np.ldexp(z[s], k[s, None]).view(complex)[:, 0])
        else:
            d[s] = kernel(ring.view(complex)[None], z[s].view(complex)[:, 0])
    return ldexp(d, -k) if framed else d


def _hull_rows(ring: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Distances from the points z to the hulls whose closed vertex rings
    are the rows of ``ring``: the clamped projection onto each edge (a
    point's one edge is 0, projected to t = 0), the minimum over edges,
    and 0 inside."""
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
    if a.shape[1] > 2:
        inside = np.logical_and.reduce(w.imag >= 0.0, axis=1)
        if inside.any():
            # on a sliver hull the signs are rounding for points on the long
            # edges' lines, so an inside point must be in the bounding box
            x, y = z.real, z.imag
            inside &= ((a.real.min(axis=1) <= x) & (x <= a.real.max(axis=1))
                       & (a.imag.min(axis=1) <= y) & (y <= a.imag.max(axis=1)))
            d[inside] = 0.0
    return d


def _nearest_rows(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Distance from each point z to the nearest point of its row."""
    return abs(z[:, None] - points).min(axis=1)


def _distances(v: tuple[complex, ...], z: np.ndarray) -> np.ndarray:
    """Unrounded distances from the points z (1-d) to the hull with vertex
    ring v, 0 inside."""
    return _framed(_hull_rows, np.array(v + v[:1]), z)


def hull_distance(hull: HullPolygon, z):
    """Euclidean distance from z to the hull as a set (0 inside or on it):
    a float for a complex z, an array for a 1-d array of points.  A distance
    of at most EPS * max|vertex| is rounding and counts as 0 (a point that
    near has |z| <= (1 + EPS) max|vertex|, so its own scale adds nothing).
    """
    z = np.asarray(z, dtype=complex)
    d = _distances(hull.vertices, z.reshape(-1))
    d[d <= magnitude(hull.vertices, EPS)] = 0.0
    return d if z.ndim else float(d[0])


# --- spectrum descriptors ---------------------------------------------------
# ``distance_to`` takes a complex or an array; ``_gap`` is the hull distance
# before the rounding rule of :func:`hull_separated_from`.


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
        """Distance from z to the nearest point, each row taken in its
        own power-of-two frame as the hull distances are: inf past the
        float range, with no warning."""
        z = np.asarray(z, dtype=complex)
        d = _framed(_nearest_rows, self.points, z.reshape(-1))
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
        """Distance from z to the ray: inf past the float range, with no
        warning."""
        with np.errstate(over="ignore"):
            return np.hypot(np.minimum(z.real, 0.0), z.imag)

    def _gap(self, hull):
        # in the hull's power-of-two frame (see tolerance.unit_frame), where
        # no modulus, product or difference of vertices overflows; the ray
        # is the same set in every such frame
        w, k = unit_frame(hull.vertices)
        framed = HullPolygon(tuple(w.tolist()))
        for a, b in framed.edges():
            # an edge with ends strictly on either side of the real axis
            # crosses it at x, and the ray when x >= 0
            if (min(a.imag, b.imag) < 0.0 < max(a.imag, b.imag)
                    and (a.real * b.imag - b.real * a.imag)
                    / (b.imag - a.imag) >= 0.0):
                return 0.0
        v = framed.vertices
        d = min(abs(p.imag) if p.real >= 0.0 else abs(p) for p in v)
        # the ray's own vertex 0 can be nearer, unless Re >= 0 on the hull
        if any(p.real < 0.0 for p in v):
            d = min(d, hull_distance(framed, 0j))
        return ldexp(d, k)


@dataclass(frozen=True)
class ImaginaryAxis(Spectrum):
    def distance_to(self, z):
        return abs(z.real)

    def _gap(self, hull):
        re = [p.real for p in hull.vertices]
        return 0.0 if min(re) <= 0.0 <= max(re) else min(map(abs, re))


def hull_separated_from(hull: HullPolygon, spectrum: Spectrum,
                        margin: float = 0.0) -> tuple[bool, float]:
    """(separated, d): d is the set distance between a hull and a spectrum
    descriptor, and separated is d > ``margin``.  A distance of at most
    SPECTRUM_EPS * max|vertex| counts as 0, so a hull at a positive
    distance holds no point z within SPECTRUM_EPS * |z| of the spectrum:
    not a pole of the series, nor a zero of its plan in theorem mode."""
    if not 0.0 <= margin < math.inf:
        raise InvalidInputError("margin must be nonnegative and finite")
    d = float(spectrum._gap(hull))
    d = 0.0 if d <= magnitude(hull.vertices, SPECTRUM_EPS) else d
    return d > margin, d
