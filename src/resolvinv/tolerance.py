"""The one tolerance rule of the package.

A computed quantity counts as zero when it is at most ``rtol`` times the
scale of the data that produced it.  Rounding error is relative to the
size of the operands, so the scale is never floored at 1: a floor would
make every decision change when poles, spectrum and grid are rescaled
together.  Where one operand's scale can vanish (a pole at the origin),
the scale comes from the other operand.  Pole gaps (and the hull tests of
:mod:`resolvinv.geometry`) are taken on the points scaled by one exact
power of two (:func:`unit_frame`), so that no difference or product of
two points overflows near the top of the float range.

Three levels of ``rtol``, by how much rounding the compared quantity
carries:

* :data:`EPS` for quantities one step of arithmetic away from the data:
  pole gaps, coefficient signs and sums, hull vertex merging, the pole
  hull's distance to a point or a spectrum;
* :data:`SPECTRUM_EPS` for a pole against spectrum or symbol samples
  that were themselves computed (eigenvalues, squared DFT frequencies,
  a characteristic polynomial at the roots of unity);
* :data:`DERIVED_EPS` for the theorem-mode test of coefficients derived
  from the data (filter residues, mapped convolution weights).

:data:`DEFAULT_ROOT_TOL` is the default relative gap below which two
zeros of a series (or two roots of a filter polynomial) count as one
repeated root: a double root comes out of an eigenvalue solve split by
about sqrt(machine epsilon), so the gap must be wider than that.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RepeatedPoleError

__all__ = [
    "EPS",
    "SPECTRUM_EPS",
    "DERIVED_EPS",
    "DEFAULT_ROOT_TOL",
    "magnitude",
    "negligible",
    "min_gap",
    "require_distinct",
    "unit_frame",
]

EPS = 1e-12
SPECTRUM_EPS = 1e-10
DERIVED_EPS = 1e-9
DEFAULT_ROOT_TOL = 1e-6


def magnitude(values) -> float:
    """max |v| over a short sequence: the scale of that data (0 if empty)."""
    return max(map(abs, values), default=0.0)


def negligible(x, *scales, rtol: float = EPS) -> bool:
    """True iff |x| <= rtol * max |s| over the given scales."""
    return bool(abs(x) <= rtol * max(map(abs, scales)))


def unit_frame(points) -> tuple[np.ndarray, int]:
    """(points * 2^-k, k), with k such that the largest real or imaginary
    part lies in [1/2, 1) (k = 0 without a nonzero part).  The scaling is
    exact except for parts more than 2^1021 times smaller than the largest,
    which lose bits as subnormals, and no difference or product of two
    scaled points overflows."""
    parts = np.ascontiguousarray(points, dtype=complex).view(float)
    k = math.frexp(abs(parts).max(initial=0.0))[1]
    return np.ldexp(parts, -k).view(complex), k


def _gaps(z: np.ndarray) -> np.ndarray:
    """Pairwise distances, with inf on the diagonal: one vectorised pass."""
    gaps = np.abs(z[:, None] - z)
    gaps.flat[::z.size + 1] = np.inf
    return gaps


def min_gap(points) -> float:
    """Smallest distance between two of the points (inf for fewer, or
    past the float range)."""
    z, k = unit_frame(points)
    if z.size < 2:
        return math.inf
    try:
        return math.ldexp(_gaps(z).min(), k)
    except OverflowError:
        return math.inf


def require_distinct(points) -> None:
    """Raise :class:`RepeatedPoleError` unless every two poles are more
    than ``EPS * max|pole|`` apart."""
    z, _ = unit_frame(points)
    if z.size < 2:
        return
    gaps = _gaps(z)
    k = gaps.argmin()
    if gaps.flat[k] <= EPS * np.abs(z).max():
        i, j = divmod(k, z.size)
        p = np.asarray(points, dtype=complex)
        raise RepeatedPoleError(f"poles {p[i]} and {p[j]} are not distinct")
