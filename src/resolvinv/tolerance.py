"""The one tolerance rule of the package.

A computed quantity counts as zero when it is at most ``rtol`` times the
scale of the data that produced it.  Rounding error is relative to the
size of the operands, so the scale is never floored at 1: a floor would
make every decision change when poles, spectrum and grid are rescaled
together.  Where one operand's scale can vanish (a pole at the origin),
the scale comes from the other operand.  Pole gaps (and the hull tests of
:mod:`resolvinv.geometry`) are taken on the points scaled by one exact
power of two (:func:`unit_frame`), so that no difference or product of
two points overflows near the top of the float range; points at most
``EPS * max|point|`` apart are one pole (:func:`require_distinct` refuses
them, :func:`distinct` merges them), the one such rule: the pole hull
takes points that already pass it.  Moduli (:func:`magnitude`) and sums
(:func:`fsum`) are taken in the same frame when they would pass the float
range, and every result taken in a frame goes back by :func:`ldexp`, so
only a result past the float range is inf.

A frame is free where the float range does not need it: data whose
largest real or imaginary part has a binary exponent of at most W = 64 in
modulus (:data:`_WINDOW`; parts in [2^-65, 2^64)) get k = 0 and an
unscaled copy, and :func:`ldexp` by 0 skips its scaling.  W comes from the
highest power any framed formula forms: each multiplies or divides at
most three data factors (the residues' a_j / (alpha_j - z_k)^2; the hull
kernels form squares), so inside the window an intermediate is at most
2^(3W) = 2^192 from its value in the frame.  It overflows, or loses bits
as a subnormal, only if its framed value lies beyond 2^832 or below
2^-830, which takes parts or gaps of the data some 2^276 (1e83) apart,
far past every tolerance here.  For all other data the frame changes no
bit, since a power-of-two scaling is exact; out of the window it is what
it was.

Three levels of ``rtol``, by how much rounding the compared quantity
carries:

* :data:`EPS` for quantities one step of arithmetic away from the data:
  pole gaps, coefficient signs and sums, the pole hull's distance to a
  point;
* :data:`SPECTRUM_EPS` for a pole against spectrum or symbol samples
  that were themselves computed (eigenvalues, squared DFT frequencies,
  roots of unity), and for the pole hull's distance to a spectrum, the
  admissibility gate's one floor, which holds the plan's zeros to that
  rule too;
* :data:`DERIVED_EPS` for the theorem-mode test of coefficients derived
  from the data (filter residues, mapped convolution weights), in
  :func:`resolvinv.rational.derived_series` alone.

:data:`ROOT_TOL` is the relative gap below which two roots of a filter
polynomial, and only those, count as one repeated root: a double root
comes out of an eigenvalue solve split by about sqrt(machine epsilon), so
the gap must be wider than that.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RepeatedPoleError

__all__ = [
    "EPS",
    "SPECTRUM_EPS",
    "DERIVED_EPS",
    "ROOT_TOL",
    "magnitude",
    "fsum",
    "ldexp",
    "negligible",
    "min_gap",
    "require_distinct",
    "distinct",
    "unit_frame",
    "frame_exponents",
]

EPS = 1e-12
SPECTRUM_EPS = 1e-10
DERIVED_EPS = 1e-9
ROOT_TOL = 1e-6

# a frame's k is 0 while the largest part's binary exponent is at most this
# in modulus (module docstring): 3 * 64 leaves the intermediates of every
# framed formula far inside the float range
_WINDOW = 64


def magnitude(values, rtol: float = 1.0) -> float:
    """rtol * max |v| over a short sequence (0 if empty): the scale of that
    data, or with rtol < 1 a rounding threshold relative to it.  A modulus
    past the float range is taken in the frame of :func:`unit_frame`, so
    that a threshold such as ``magnitude(poles, EPS)`` stays finite for
    any finite poles; only a result past the float range is inf."""
    try:
        scale = max(map(abs, values), default=0.0)
    except OverflowError:  # abs of a Python complex past the float range
        scale = math.inf
    if scale < math.inf:
        return rtol * scale
    w, k = unit_frame(values)
    return ldexp(rtol * float(np.abs(w).max()), k)


def fsum(values) -> float:
    """``math.fsum`` of finite floats, without its OverflowError: a sum
    whose partial sums leave the float range is taken in the frame of
    :func:`unit_frame` and scaled back, so only a sum past the float range
    is inf (with its sign)."""
    values = list(values)
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum past the float range
        w, k = unit_frame(values)
        return ldexp(math.fsum(w.real), k)


def ldexp(x, k):
    """x * 2^k part by part, for a float or complex scalar x and an int k
    (a Python scalar back), or an array x and k broadcast against it:
    exact but for a subnormal part, inf with its sign past the float
    range, no warning.  The one way back from a :func:`unit_frame`; an
    int k = 0 (inside the window) skips the scaling: a scalar comes back
    at once, an array as a new float or complex copy."""
    if isinstance(x, complex):
        if k == 0:
            return complex(x)
        return complex(ldexp(x.real, k), ldexp(x.imag, k))
    if isinstance(x, float):
        try:
            return math.ldexp(x, k)
        except OverflowError:
            return math.copysign(math.inf, x)
    x = np.asarray(x)
    if isinstance(k, int) and k == 0:
        return np.array(x, dtype=np.result_type(x, 1.0))
    if np.iscomplexobj(x):  # the parts as a last axis, k broadcast over it
        parts = np.ascontiguousarray(x)[..., None].view(float)
        return ldexp(parts, np.asarray(k)[..., None]).view(complex)[..., 0]
    with np.errstate(over="ignore"):
        return np.ldexp(x, k)


def negligible(x, *scales, rtol: float = EPS) -> bool:
    """True iff |x| <= rtol * max |s| over the given scales."""
    return bool(abs(x) <= rtol * max(map(abs, scales)))


def unit_frame(points) -> tuple[np.ndarray, int]:
    """(points * 2^-k, k) as a new complex array of at least one dimension,
    with k such that the largest real or imaginary part lies in [1/2, 1),
    or k = 0 when that part's exponent lies inside the window (module
    docstring).  The scaling is exact except for parts more than 2^1021
    times smaller than the largest, which lose bits as subnormals, and no
    difference or product of two scaled points overflows."""
    parts = np.array(points, dtype=complex, order="C", ndmin=1).view(float)
    k = frame_exponents(abs(parts).max(initial=0.0))
    if k:
        np.ldexp(parts, -k, out=parts)
    return parts.view(complex), k


def frame_exponents(largest):
    """The k of :func:`unit_frame` for the largest part (a float, an int
    back) or for each of an array of them."""
    if isinstance(largest, float):
        k = math.frexp(largest)[1]
        return k if abs(k) > _WINDOW else 0
    k = np.frexp(largest)[1]
    return np.where(abs(k) > _WINDOW, k, 0)


def _gaps(z: np.ndarray) -> tuple[np.ndarray, float]:
    """Pairwise distances of framed points z, inf on the diagonal, and
    the largest that makes two of them one pole: EPS * max|z|."""
    gaps = np.abs(z[:, None] - z)
    gaps.flat[::z.size + 1] = np.inf
    return gaps, EPS * np.abs(z).max(initial=0.0)


def min_gap(points) -> float:
    """Smallest distance between two of the points (inf for fewer, or
    past the float range)."""
    z, k = unit_frame(points)
    return ldexp(_gaps(z)[0].min(initial=math.inf), k)


def require_distinct(points) -> None:
    """Raise :class:`RepeatedPoleError` unless every two poles are more
    than ``EPS * max|pole|`` apart."""
    z, _ = unit_frame(points)
    if z.size < 2:
        return
    gaps, floor = _gaps(z)
    k = gaps.argmin()
    if gaps.flat[k] <= floor:
        i, j = divmod(k, z.size)
        p = np.asarray(points, dtype=complex)
        raise RepeatedPoleError(f"poles {p[i]} and {p[j]} are not distinct")


def distinct(points) -> list:
    """The points, less each one within ``EPS * max|point|`` of a point
    kept before it: any of those kept pass :func:`require_distinct`, as
    its gap is relative to at most that scale."""
    gaps, floor = _gaps(unit_frame(points)[0])
    kept: list[int] = []
    for i in range(len(gaps)):
        if not kept or gaps[i, kept].min() > floor:
            kept.append(i)
    return [points[i] for i in kept]
