"""Operator backends, and the one way anything is applied to them.

A backend applies A, describes its spectrum geometrically, and applies a
plan gamma + beta*A + sum_k c_k (z_k - A)^{-1} in ``apply_plan``, its one
solve path.  A resolvent solve (alpha*I - A)^{-1} v is the plan with one
zero alpha and residue 1, and a series the plan with gamma = beta = 0,
its poles and its nonzero coefficients (:func:`apply_series`).  A dense
matrix of at most _BATCHED_DIM rows solves all of a plan's zeros in one
batched ``np.linalg.solve``, and settles the pole rule from the norms of
the inverses of a second one, unless its eigenvalues are cached; a larger
one makes per zero one LAPACK ``zgetrs`` on the LU of alpha*I - A that
``zgetrf`` factors once per alpha and caches.  Both cache the eigenvalues
and the SVD on the operator and apply A only when beta != 0.  A
multiplier runs ``InversionPlan.evaluate_scalar`` over its symbol in
blocks of 4096 samples, whose temporaries stay in cache, with the bits of
the whole-array product; ``solve_convolution`` runs it between one FFT
pair on the n // 2 + 1 distinct xi^2 only, each value's 1/f multiplied
in at k and at n - k.
d/dt on a grid makes one backward pass over blocks of 4096 samples:
gamma v + beta v' is written into the output block, then per zero a
numpy scan of the resolvent's recurrence adds its term, a reverse
cumulative sum on segments that the grid fixes, with the bits of one scan
over the whole grid.  A zero makes four passes over a block: the product
by its table of e^j, the cumsum, the product by its table of c e^-j and
the sum into the output; a block of several segments adds their carries
in a fifth.  The periodic shift runs each zero z on the same scan, with
no FFT: (z - T)^{-1} v is the recurrence z w_i - w_i+1 = v_i closed once
around the period, scanned backwards for |z| > 1 and over the reversed
signal otherwise, entering with the carry that closes it; a filter solve
reads T^-1 y through the scan's indexing, with no copy.  Both build each
zero's tables of e^j one way, every power within a few eps of the
others.  ``forward_filter`` runs on the same scan, one solve per
characteristic root and one more per root for its refinement step, each
root checked once and its tables built once.

One contract holds on every operator.  ``checked_vector`` raises
:class:`InvalidInputError` for a vector of the wrong shape or with a NaN
or infinite entry.  Every pole is checked before anything is solved, and
on a dense matrix's batched path before any result is returned, by one
rule: a pole that is not finite raises :class:`InvalidInputError`,
and :class:`SingularResolventError` for a pole p with min_s |p - s| <=
SPECTRUM_EPS * |p| over the spectrum samples s (the rounding of p - s).
The samples are a multiplier's symbol, the shift's nearest root of
unity by angle, xi^2 for ``solve_convolution`` or a dense matrix's
eigenvalues, which its batched path computes only for a zero that the
resolvent bound dist(z, Lambda) >= 1 / ||(z I - A)^{-1}|| leaves open;
d/dt on a grid needs Re p > SPECTRUM_EPS * |p|, the rule
against the imaginary axis with the left half plane excluded.
:func:`resolvinv.series.check_admissible` counts a pole's distance and the
pole hull's as 0 up to SPECTRUM_EPS * max|alpha|, which covers this rule
at every pole and, since the hull holds the plan's zeros, at every zero:
a series past that gate passes every solve's check at its own poles and
at its plan's zeros.  An exactly
zero dense pivot raises :class:`SingularResolventError` too, and a
result past the float range :class:`ConditioningError`, no numpy warning.

The checked solvers take their plan from
:func:`resolvinv.rational.checked_plan`, and the forward maps run the same
gate; the plan-only solves (``solve_filter``, ``solve_convolution``, and
``apply_plan(plan, grid, y)`` for Volterra) check only the plan's poles.
Only the dense solves above _BATCHED_DIM rows import scipy, inside the
solve, so every other path starts and runs without it.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import (
    ConditioningError,
    EmptyInputError,
    HypothesisError,
    InvalidInputError,
    SingularResolventError,
)
from .geometry import (
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    Spectrum,
    UnitCircle,
)
from .rational import (
    FilterSpec,
    InversionPlan,
    checked_plan,
    derived_series,
    filter_to_series,
)
from .series import ResolventSeries, require_admissible
from .tolerance import SPECTRUM_EPS, frame_exponents, ldexp, unit_frame

# samples per block of a pass: a block's temporaries (64 KiB each) stay in
# cache
_BLOCK = 4096

# rows up to which a dense matrix solves a plan in one batched
# np.linalg.solve, without scipy: the largest power of two at which that
# was no slower than the cached LU factors on an apply_plan and a
# convergence_sweep, for series of 4 and of 12 terms; importing
# scipy.linalg takes about 225 ms on a 2-vCPU Xeon VM, most of a CLI call
_BATCHED_DIM = 16

__all__ = [
    "OperatorHandle",
    "DenseMatrixOperator",
    "MultiplierOperator",
    "GridDerivativeOperator",
    "PeriodicShiftOperator",
    "apply_series",
    "apply_plan",
    "volterra_kernel",
    "solve_exponential_volterra",
    "forward_exponential_volterra",
    "convolution_series",
    "solve_even_convolution",
    "solve_convolution",
    "forward_even_convolution",
    "forward_filter",
    "invert_filter",
    "solve_filter",
]


class OperatorHandle:
    """Abstract operator A with resolvent solves and a spectrum description."""

    dim: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def resolvent_solve(self, alpha: complex, v: np.ndarray) -> np.ndarray:
        """(alpha*I - A)^{-1} v: the plan with gamma = beta = 0, one zero
        alpha and residue 1, by the operator's ``apply_plan``."""
        return self.apply_plan(
            InversionPlan(0j, 0j, np.array([alpha], dtype=complex),
                          np.ones(1, dtype=complex)), v)

    def spectrum(self) -> Spectrum:
        raise NotImplementedError

    def checked_vector(self, v) -> np.ndarray:
        """v as a finite complex array with the dim samples on its last axis;
        raises :class:`InvalidInputError` for any other shape or a NaN or
        infinite entry."""
        return _checked_samples(v, self.dim)

    def apply_plan(self, plan: InversionPlan, v: np.ndarray) -> np.ndarray:
        """(gamma + beta A + h(A)) v: the operator's one solve path."""
        raise NotImplementedError


class DenseMatrixOperator(OperatorHandle):
    """A as an explicit n x n complex matrix, which must be finite: a NaN
    or an infinity in it raises :class:`InvalidInputError` when it is built.

    Up to _BATCHED_DIM rows a plan's resolvents are one batched
    ``np.linalg.solve`` over the stack of z_k I - A, nothing cached and no
    scipy imported; the stack takes K n^2 complex entries for K zeros.
    Unless the eigenvalues are cached, or K >= n, a second solve of the
    stack on the identity settles the pole rule by the resolvent bound
    (:meth:`_certified`), with no eigenvalue computed for a zero it
    certifies.  Above, each shift alpha has one LU of alpha*I - A,
    factored by LAPACK ``zgetrf`` and cached, and each solve is one
    ``zgetrs`` on it."""

    # every operator class binds the inherited method in its own body, only
    # for the benchmark's tracer, which wraps cls.__dict__["resolvent_solve"]
    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("matrix must be square")
        if m.size == 0:
            raise EmptyInputError("matrix must be nonempty")
        if not _finite(m):
            raise InvalidInputError("matrix has a NaN or infinite entry")
        self.matrix = m
        self.dim = m.shape[0]
        self._lu_cache: dict[complex, tuple[np.ndarray, np.ndarray]] = {}
        self._eigvals: np.ndarray | None = None
        self._svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def checked_vector(self, v) -> np.ndarray:
        """v as a finite complex vector of length n (or an (n, k) block of
        them); raises :class:`InvalidInputError` for any other shape or a
        NaN or infinite entry."""
        v = np.asarray(v, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise InvalidInputError(
                f"vector of shape {v.shape} does not match the "
                f"{self.dim}x{self.dim} matrix")
        if not _finite(v):
            raise InvalidInputError("vector has a NaN or infinite entry")
        return v

    def apply(self, v):
        return self._apply(self.checked_vector(v))

    def _apply(self, v):
        """A v for a checked v."""
        return self.matrix @ v

    def eigenvalues(self) -> np.ndarray:
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvals(self.matrix)
        return self._eigvals

    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, s, Vh) with A = U diag(s) Vh, s descending; computed once.

        Raises ``numpy.linalg.LinAlgError`` when the SVD does not converge;
        the matrix is finite, since the constructor refuses a NaN or an
        infinity."""
        if self._svd is None:
            self._svd = np.linalg.svd(self.matrix)
        return self._svd

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(self.eigenvalues())

    def apply_plan(self, plan: InversionPlan, v: np.ndarray) -> np.ndarray:
        """(gamma + beta A + h(A)) v: h = sum_k c_k w_k in the plan's order
        over the solves w_k of :meth:`_solves`, which settle the pole rule at
        every zero before any result is returned, and A applied only when
        beta != 0.  Raises :class:`ConditioningError` when a sample leaves
        the float range."""
        v = self.checked_vector(v)
        zeros = _check_finite_poles(plan.zeros)
        with np.errstate(all="ignore"):
            h = np.zeros_like(v)
            for ck, w in zip(plan.residues, self._solves(zeros, v)):
                h += ck * w
            out = plan.gamma * v
            if plan.beta != 0:
                out = out + plan.beta * self._apply(v)
            return _require_finite(out + h)

    def _solves(self, zeros: np.ndarray, v: np.ndarray):
        """(z_k I - A)^{-1} v for each finite zero z_k in turn, for a
        checked v, once the pole rule has passed at every zero.  Above
        _BATCHED_DIM rows the rule runs on ``eigenvalues()`` first, then
        ``_solve`` per zero.  Up to it, one ``np.linalg.solve`` on the stack
        of the z_k I - A; the rule runs on the eigenvalues when they are
        cached or there are at least n zeros, else :meth:`_certified`
        settles it from the z_k I - A themselves, and only a zero it leaves
        open has the eigenvalues computed and cached.  An exactly singular
        shift raises :class:`SingularResolventError` naming it, by the rule
        first."""
        n = self.dim
        # K inverses cost about as much as the eigenvalues once K nears n
        by_eigenvalues = (n > _BATCHED_DIM or self._eigvals is not None
                          or len(zeros) >= n)
        if by_eigenvalues and len(zeros):
            _check_symbol_gap(zeros, self.eigenvalues())
        if n > _BATCHED_DIM:
            return (self._solve(zk, v) for zk in zeros)
        # -A per zero, z_k added on its diagonal in place, as in _factor
        shifted = np.empty((len(zeros), n, n), dtype=complex)
        np.negative(self.matrix, out=shifted)
        shifted.reshape(len(zeros), n * n)[:, ::n + 1] += zeros[:, None]
        # a 1-d right-hand side does not broadcast over the stack: (n, 1)
        b = v[:, None] if v.ndim == 1 else v
        try:
            w = np.linalg.solve(shifted, b)
        except np.linalg.LinAlgError:
            _check_symbol_gap(zeros, self.eigenvalues())
            # the first shift whose LU has an exactly zero pivot
            alpha = complex(zeros[np.linalg.slogdet(shifted)[0] == 0][0])
            raise SingularResolventError(
                f"pole {alpha} makes alpha*I - A exactly singular") from None
        if not (by_eigenvalues or self._certified(zeros, shifted)):
            _check_symbol_gap(zeros, self.eigenvalues())
        return w[..., 0] if v.ndim == 1 else w

    def _certified(self, zeros: np.ndarray, shifted: np.ndarray) -> bool:
        """Whether the pole rule passes at every zero without eigenvalues:
        every square A has dist(z, Lambda(A)) >= 1 / ||(z I - A)^{-1}||
        (Trefethen and Embree, Spectra and Pseudospectra, 2005, ch. 2), so
        the rule holds at z_k when ||R_k||_F SPECTRUM_EPS (|z_k| + ||A||_F)
        <= 1/2, with R_k = (z_k I - A)^{-1} from one ``np.linalg.solve`` of
        the stack ``shifted`` on the identity.  The ||A||_F term covers an
        eigensolver's backward error of up to SPECTRUM_EPS ||A||_F, the
        factor 1/2 the rounding of R_k, which keeps kappa(z_k I - A) eps
        below about 1e-6.  Both norms are taken in their own frames
        (:func:`_frobenius`), so the test is scale-invariant.  The v
        columns are solved apart from the identity's, whose number of
        right-hand sides changes their bits on some OpenBLAS kernels."""
        n = self.dim
        eye = np.zeros((n, n), dtype=complex)
        eye.reshape(-1)[::n + 1] = 1.0
        # A and the R_k as one stack: ||A|| = r_0 2^k_0, ||R_k|| = r_k 2^k_k
        r, k = _frobenius(np.concatenate((self.matrix[None],
                                          np.linalg.solve(shifted, eye))))
        if k.any():  # |z_k| + ||A||, times 2^k_k
            scale = np.abs(ldexp(zeros, k[1:])) + ldexp(r[:1], k[0] + k[1:])
        else:
            scale = np.abs(zeros) + r[0]
        return bool((SPECTRUM_EPS * r[1:] * scale <= 0.5).all())

    def _factor(self, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
        """The LU factors (lu, piv) of alpha*I - A, factored once per alpha;
        an exactly zero pivot raises :class:`SingularResolventError`."""
        lu = self._lu_cache.get(alpha)
        if lu is None:
            from scipy.linalg.lapack import zgetrf
            # -A in Fortran order, alpha added on its diagonal in place:
            # zgetrf then factors it without a copy
            shifted = np.negative(self.matrix, order="F")
            shifted.ravel(order="K")[::self.dim + 1] += alpha
            lu, piv, info = zgetrf(shifted, overwrite_a=True)
            if info > 0:
                raise SingularResolventError(
                    f"pole {alpha} makes alpha*I - A exactly singular")
            lu = self._lu_cache[alpha] = (lu, piv)
        return lu

    def _solve(self, alpha: complex, v: np.ndarray) -> np.ndarray:
        """(alpha*I - A)^{-1} v for a checked v, by ``zgetrs`` on the
        cached factors."""
        from scipy.linalg.lapack import zgetrs
        lu, piv = self._factor(complex(alpha))
        return zgetrs(lu, piv, v)[0]


class MultiplierOperator(OperatorHandle):
    """Diagonal action (A v)_k = s_k v_k by the symbol samples s."""

    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, symbol):
        s = np.asarray(symbol, dtype=complex)
        if s.ndim != 1 or s.size == 0:
            raise InvalidInputError("symbol must be a nonempty 1-d array")
        self.symbol = s
        self.dim = s.size

    def apply(self, v):
        return self.symbol * self.checked_vector(v)

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(self.symbol)

    def apply_plan(self, plan, v):
        """(1/f)(s) * v by ``plan.evaluate_scalar`` on blocks of _BLOCK
        samples, each sample meeting the operations of the whole-array
        product in its order, so with its bits.  Raises
        :class:`ConditioningError` when a sample leaves the float range."""
        _check_symbol_gap(plan.zeros, self.symbol)
        v = self.checked_vector(v)
        out = np.empty_like(v)
        with np.errstate(all="ignore"):
            for s in _block_spans(self.dim):
                out[..., s] = plan.evaluate_scalar(self.symbol[s]) * v[..., s]
        return _require_finite(out)


class GridDerivativeOperator(OperatorHandle):
    """d/dt on a uniform grid over [t0, L].

    The resolvent w = (alpha - d/dt)^{-1} v,
    w(t) = int_t^L exp(-alpha (s-t)) v(s) ds (upper limit truncated to the
    grid end), integrates the piecewise-linear interpolant of v exactly,
    cell by cell: w_i = e w_{i+1} + cell_i with e = exp(-alpha dt) and
    w = 0 at the grid end; valid for Re alpha > SPECTRUM_EPS * |alpha|.

    ``apply_plan`` runs the recurrence of every zero in one backward pass
    over blocks of _BLOCK samples as a numpy scan (:class:`_ZeroScan`): on
    segments of L cells fixed by the grid, w = revcumsum(p cell) / p with
    p_j = e^j and the next segment's carry in the last cell.  L is a power
    of two up to _BLOCK, or the whole grid when that is shorter, so a
    block holds whole segments, and the bits are those of one scan over
    the whole grid.  gamma v + beta v' is written into the output block
    first and each zero's term added to it, so the temporaries hold at
    most _BLOCK + 1 samples each, and the tables two rows per zero, all in
    one allocation that stays in cache.
    """

    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, t0: float, L: float, n: int):
        if n < 3:
            raise InvalidInputError("grid needs at least 3 points")
        if not L > t0:
            raise InvalidInputError("grid end must exceed grid start")
        self._ends = (t0, L)
        # t[1] - t[0] of np.linspace(t0, L, n), from its own step
        # arithmetic, without the n points
        t0, L = float(t0), float(L)
        step = (L - t0) / (n - 1)
        if step == 0:  # np.linspace's branch for a step that underflows
            step = 1.0 / (n - 1) * (L - t0)
        self.dt = (t0 + step) - t0
        if not 0.0 < self.dt < np.inf:
            raise InvalidInputError("grid exceeds the float range")
        self.dim = n

    @functools.cached_property
    def t(self) -> np.ndarray:
        """The grid points ``np.linspace(t0, L, n)``, built on first use."""
        # np.linspace's product of its step and n - 1, past the float range
        # for an end near it, only ever stands for the end it then sets;
        # the points are finite unless the step is not
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linspace(*self._ends, self.dim)

    def checked_vector(self, v) -> np.ndarray:
        """v as a finite complex vector of shape (n,)."""
        if np.shape(v) != (self.dim,):
            raise InvalidInputError("data length does not match the grid")
        return _checked_samples(v, self.dim)

    def apply(self, v):
        """v' by second-order central differences (one sided at the ends),
        the derivative of the beta*y' term of a Volterra solve."""
        return self._derivative(self.checked_vector(v), slice(0, self.dim),
                                np.empty(self.dim, dtype=complex))

    def spectrum(self) -> ImaginaryAxis:
        return ImaginaryAxis()

    def apply_plan(self, plan, v):
        """(gamma + beta d/dt + h(d/dt)) v in one backward pass: every zero
        checked first, then per block (gamma v + beta v') + c_1 w_1 + ...,
        each term added into the output block in the plan's order.  Raises
        :class:`ConditioningError` past the float range."""
        v = self.checked_vector(v)
        n = self.dim
        zeros = _check_finite_poles(plan.zeros)
        # one allocation: a block's cells (or v'), their differences and a
        # term, with one sample to spare, then each zero's two tables
        work = np.empty((3 + 2 * zeros.size, min(n, _BLOCK + 1)),
                        dtype=complex)
        y, dv, term = work[:3]
        with np.errstate(all="ignore"):
            scans = [_ZeroScan.grid(alpha, ck, self.dt, n - 1,
                                    work[3 + 2 * j:])
                     for j, (alpha, ck) in enumerate(zip(zeros,
                                                         plan.residues))]
            # per zero, u at the first sample of the block last solved;
            # None before the grid's last segment, which ends at w = 0
            carries = [None] * len(scans)
            out = np.empty_like(v)
            for s in reversed(_block_spans(n)):
                lo, hi = s.start, s.stop
                k = hi - lo
                h = np.multiply(plan.gamma, v[s], out=out[s])
                if plan.beta != 0:
                    grad = self._derivative(v, s, y[:k])
                    h += np.multiply(plan.beta, grad, out=grad)
                cells = k - (hi == n)
                vc = v[lo:lo + cells]
                dvc = np.subtract(v[lo + 1:lo + cells + 1], vc, out=dv[:cells])
                for j, scan in enumerate(scans):
                    # the cells as y = cell / i0 = v_i + (v_i+1 - v_i) rho
                    yy = np.multiply(dvc, scan.rho, out=y[:cells])
                    yy += vc
                    carries[j] = scan.run(yy, yy, carries[j], h[:cells],
                                          term)
                _require_finite(h)
        return out

    def _derivative(self, v: np.ndarray, s: slice,
                    out: np.ndarray) -> np.ndarray:
        """v' on the samples s, into ``out``:
        ``np.gradient(v, dt, edge_order=2)[s]`` but for the sign of a zero.
        Inside the grid its central difference over 2 dt, which numpy's
        complex division forms as the product by the reciprocal 0.5 / dt,
        taken here on the float view; at a grid end its one-sided formula,
        in its own order."""
        lo, hi = s.start, s.stop
        n, d = self.dim, self.dt
        a, b = max(lo, 1), min(hi, n - 1)
        mid = np.subtract(v[a + 1:b + 1], v[a - 1:b - 1],
                          out=out[a - lo:b - lo])
        mid.view(float).__imul__(0.5 / d)
        if lo == 0:
            out[0] = -1.5 / d * v[0] + 2.0 / d * v[1] + -0.5 / d * v[2]
        if hi == n:
            out[-1] = 0.5 / d * v[-3] + -2.0 / d * v[-2] + 1.5 / d * v[-1]
        return out


# one segment's tables span at most 2^_SCAN_BITS: |e|^L >= 2^-_SCAN_BITS
_SCAN_BITS = 128

# the Taylor coefficients of i0 / dt and i1 / dt^2 in -x, x = alpha dt: 20
# terms reach rounding for |x| < 1
_I0_SERIES = tuple(1.0 / math.factorial(k + 1) for k in range(20))
_I1_SERIES = tuple((k + 1) / math.factorial(k + 2) for k in range(20))


def _cell_weights(alpha: complex, d: float) -> tuple[complex, complex]:
    """(i0, i1 / d) for the cell [0, d]: i0 = int_0^d exp(-alpha s) ds and
    i1 = int_0^d s exp(-alpha s) ds, so that a cell of the piecewise-linear
    interpolant of v integrates to v_i i0 + (v_i+1 - v_i) i1 / d.  With
    x = alpha d, both come from their Taylor series for |x| < 1, where the
    closed forms cancel (Kassam and Trefethen, SIAM J. Sci. Comput. 26,
    2005) or, for i0 = -expm1(-x) / alpha, lose what a subnormal x lacks;
    else from -expm1(-x) / alpha and (1 - (1 + x) e^-x) / (x alpha), which
    lose only a few bits there: within a few ulps at every |x|."""
    x = alpha * d
    if math.hypot(x.real, x.imag) < 1.0:
        s0 = s1 = 0j
        for c0, c1 in zip(reversed(_I0_SERIES), reversed(_I1_SERIES)):
            s0 = s0 * -x + c0
            s1 = s1 * -x + c1
        return d * s0, d * s1
    return (complex(-np.expm1(-x)) / alpha,
            (1.0 - (1.0 + x) * cmath.exp(-x)) / (x * alpha))


class _ZeroScan:
    """One zero's first-order recurrence as a numpy scan, backwards.

    w_i = e w_i+1 + i0 y_i with e = exp(-x), on segments of L cells at
    multiples of L from the first cell: with p_j = e^j, a segment's
    w = i0 revcumsum(p y) / p, where the cell past the segment's end
    enters its last cell as p_L carry, the carry being w / i0 at the next
    segment's first cell.  L is the largest power of two up to _BLOCK
    with |e|^L >= 2^-_SCAN_BITS, so that every e^j and e^-j of a segment is
    a normal float with room to spare, and at most the number of cells.
    When even |e| is below that (e near 0, or 0 past the float range),
    L = 1: every cell is a segment, w = i0 y + e carry, the recurrence
    itself.  The segments do not depend on the blocks of a pass, nor do
    the bits.  The grid runs its zeros on it, and the periodic shift on
    :class:`_ShiftScan`; both build their tables by :meth:`_tables`.

    The residue c is folded into the table of 1/p, qi = c i0 / p, so that
    c w = u qi with u = revcumsum(p y), and p_L = e_l past the table's
    end.  Both tables repeat with period L along their rows, so that a
    block's products with them are each one contiguous multiply.
    """

    def __init__(self, x: complex, i0: complex, ck: complex, cells: int,
                 tables: np.ndarray):
        """The scan of e = exp(-x), Re x >= 0, cell weight i0 and residue
        ck over ``cells`` cells, its two tables in the rows of ``tables``
        (p and qi in their first L entries, repeated along the rows)."""
        span = _SCAN_BITS * math.log(2.0) / x.real if x.real > 0 else math.inf
        L = 1 << int(math.log2(min(span, _BLOCK))) if span >= 1.0 else 1
        L = min(L, cells)
        self.rows = tables[:2]
        self.p, self.qi = self.rows[:, :L]
        self.e_l = self._tables(x, i0, ck)
        for row in self.rows:
            _repeat(row, L)

    def _tables(self, x: complex, i0: complex, ck: complex) -> complex:
        """Fills p_j = e^j and qi_j = ck i0 / p_j and returns e_l = e^L.
        With -x = hi + lo split by :func:`_split` so that hi j is exact, the
        first 64 powers and every 64th are exp(hi j) exp(lo j); every other
        power is one product of a first one and a 64th one.
        qi_j = (i0 e^-(L-1) ck) p_L-1-j, and a power of two 2^k moves from
        qi to p when qi would come within 2^24 of the float range's end.
        e = 0 (x infinite) gives p = 1, qi = i0 ck and e_l = 0."""
        p, L = self.p, self.p.size
        if x.real == math.inf:
            p[0], self.qi[0] = 1.0, i0 * ck
            return 0j
        # the first powers, every 64th, e^-(L-1) and e^L
        hi, lo = _split(-x, _BLOCK.bit_length())
        j = np.concatenate((np.arange(64), np.arange(0, L, 64), [1 - L, L]))
        powers = np.exp(hi * j) * np.exp(lo * j)
        head, turns = powers[:64], powers[64:-2]
        full = L // 64
        np.multiply(turns[:full, None], head,
                    out=p[:full * 64].reshape(full, 64))
        np.multiply(turns[full:], head[:L - full * 64], out=p[full * 64:])
        scale = i0 * complex(powers[-2])
        # the largest |qi| is about |scale ck|, its binary exponent the sum
        # of theirs
        k = min(1000, max(0, _exponent(scale) + _exponent(ck) - 1000))
        np.multiply(p[::-1], scale * 2.0 ** -k * ck, out=self.qi)
        if k:
            p *= 2.0 ** k
        return complex(powers[-1])

    @classmethod
    def grid(cls, alpha: complex, ck: complex, d: float, cells: int,
             tables: np.ndarray) -> "_ZeroScan":
        """The scan of (alpha - d/dt)^{-1} on a grid of step d: x = alpha d,
        i0 and ``rho`` = i1 / (d i0) from :func:`_cell_weights`, so that a
        cell is i0 y with y = v_i + (v_i+1 - v_i) rho."""
        alpha = complex(alpha)
        if alpha.real <= SPECTRUM_EPS * math.hypot(alpha.real, alpha.imag):
            raise SingularResolventError(
                f"pole {alpha} is on or too near the spectrum of d/dt")
        x = alpha * d
        i0, i1_d = _cell_weights(alpha, d) if cmath.isfinite(x) else (0, 0)
        if not (i0 != 0 and cmath.isfinite(i0) and cmath.isfinite(i1_d)):
            raise ConditioningError("cell weights exceed the float range")
        scan = cls(x, i0, ck, cells, tables)
        scan.rho = i1_d / i0
        return scan

    def run(self, y, u, carry, h, term):
        """h += c w on the cells y of one block, whose next block left
        ``carry`` (None past the last cell, where w = 0); returns the carry
        for the block before it.  ``u`` (which may be y) and ``term`` are
        scratch of the block's size.  Only the block holding the last cell
        may end inside a segment.  The carry entering a segment from
        outside the block's full segments, the block's own or the one its
        tail segment leaves, joins that segment's last cell before the
        cumsum; the carries between full segments of one block are added
        after it."""
        cells = y.size
        L = self.p.size
        full, tail = divmod(cells, L)
        if carry is None and not tail:
            # the last segment ends at w = 0: run it on its own
            full, tail = full - 1, L
        buf = np.multiply(y, self.rows[0, :cells], out=term[:cells])
        head = full * L
        if tail:
            if carry is not None:
                # e^tail: p_tail over p_0, the frame's power of two
                buf[-1] += self.p[tail] / self.p[0] * carry
            seg = u[head:cells]
            np.cumsum(buf[head:][::-1], out=seg[::-1])
            carry = seg[0]
        if full:
            buf[head - 1] += self.e_l * carry
            uu = u[:head].reshape(full, L)
            np.cumsum(buf[:head].reshape(full, L)[:, ::-1], axis=1,
                      out=uu[:, ::-1])
            if full > 1:
                uu[:-1] += np.multiply(self._carries(uu[:-1, 0], uu[-1, 0]),
                                       self.e_l)[:, None]
            carry = uu[0, 0]
        h += np.multiply(u[:cells], self.rows[1, :cells], out=buf)
        return carry

    def _carries(self, starts: np.ndarray, carry) -> np.ndarray:
        """c with c[-1] = carry and c[s-1] = starts[s] + e_l c[s]: each
        full segment's carry, from revcumsum(p y) at the segments' first
        cells.  Jacobi sweeps of that recurrence until one changes no bit:
        its one fixed point is the sequential result, bit for bit, and
        |e_l| <= 2^-(_SCAN_BITS / 2) when there is more than one segment,
        so a few sweeps reach it (at most one per segment)."""
        c = np.empty(starts.size, dtype=complex)
        c[-1] = carry
        c[:-1] = starts[1:]
        for _ in range(starts.size - 1):
            nxt = np.multiply(c[1:], self.e_l)
            nxt += starts[1:]
            if np.array_equal(nxt.view(np.uint64), c[:-1].view(np.uint64)):
                break
            c[:-1] = nxt
        return c


class _ShiftScan(_ZeroScan):
    """The scan of c (z - T)^{-1} for the cyclic shift T on n samples:
    z w_i - w_i+1 = v_i, closed once around the period.

    For |z| > 1 it runs backwards, w_i = e (w_i+1 + v_i): e = 1/z, taken
    as exp(-log z), and cell weight 1/z on the cells v.  Else forwards,
    w_i+1 = e w_i - v_i with e = z = exp(log z) (e = 0 for z = 0): the
    backward scan with cell weight -1 of the reversed signal, whose cell k
    is sample (n - 2 - k) mod n (:func:`_pass_cells`).  Either pass enters
    the period's end with the carry of :meth:`periodic_carry`.

    The tables are the grid's (:meth:`_ZeroScan._tables`), whose powers
    of e agree with each other and with the periodic carry's e^n to a few
    ulps.
    """

    def __init__(self, z: complex, ck: complex, n: int, tables: np.ndarray):
        z = complex(z)
        self.forward = abs(z) <= 1.0
        if z == 0:
            self.x = complex(math.inf, 0.0)
        else:
            self.x = -cmath.log(z) if self.forward else cmath.log(z)
        self.n = n
        super().__init__(self.x, -1.0 if self.forward else 1.0 / z, ck, n,
                         tables)

    def periodic_carry(self, read) -> complex:
        """w_n / i0 = w_0 / i0 = (sum_j e^j y_j) / (1 - e^n) on the n cells
        y that ``read(lo, hi)`` returns.  The sum runs over the cells whose
        weight e^j has not underflowed, segment by segment on the table
        and across segments by Horner's rule in e_l; 1 - e^n is formed
        from x by :func:`_one_minus_exp`, not from e."""
        n, x, L = self.n, self.x, self.p.size
        head = n if x.real <= 0 else min(n, int(_UNDERFLOW / x.real) + 1)
        sums = []
        for lo in range(0, head, _BLOCK):
            cells = read(lo, min(lo + _BLOCK, n))[:head - lo]
            full, tail = divmod(cells.size, L)
            sums.extend(np.dot(cells[:full * L].reshape(full, L), self.p))
            if tail:
                sums.append(np.dot(cells[full * L:], self.p[:tail]))
        total = 0j
        for segment in reversed(sums):
            total = total * self.e_l + segment
        if x.real == math.inf:
            return total
        return total / _one_minus_exp(-x, n)


# the sum of the periodic carry takes only the j with e^j past 2^-1075,
# where it rounds to 0: Re(x) j < 1075 log 2
_UNDERFLOW = 1075 * math.log(2.0)

def _split(w: complex, bits: int) -> tuple[complex, complex]:
    """w = hi + lo, hi's parts rounded to 53 - bits significant bits: hi j
    is exact for every integer j < 2^bits, and lo holds the rest of w."""
    def head(a):
        m, e = math.frexp(a)
        return math.ldexp(round(math.ldexp(m, 53 - bits)), e - 53 + bits)
    hi = complex(head(w.real), head(w.imag))
    return hi, w - hi


def _exponent(z: complex) -> int:
    """The binary exponent of z's larger part, 0 for 0 or a non-finite
    part (``math.frexp``'s)."""
    return math.frexp(max(abs(z.real), abs(z.imag)))[1]


def _repeat(row: np.ndarray, L: int) -> None:
    """Repeats the row's first L entries along the whole row, in place."""
    done = L
    while done < row.size:
        m = min(done, row.size - done)
        row[done:done + m] = row[:m]
        done += m


def _one_minus_exp(w: complex, n: int) -> complex:
    """1 - exp(w n), with w split by :func:`_split` so that hi n is exact:
    -(expm1(hi n) (1 + expm1(lo n)) + expm1(lo n)), with no cancellation
    when exp(w n) is near 1 and within a few ulps of the e^n the scan
    reaches through its tables."""
    hi, lo = _split(w, n.bit_length())
    a, b = complex(np.expm1(hi * n)), complex(np.expm1(lo * n))
    return -(a * (1.0 + b) + b)


def _pass_cells(y: np.ndarray, shift: int, lo: int, hi: int,
                buf: np.ndarray) -> np.ndarray:
    """The cells [lo, hi) of a pass that reads cell k at y[(k + shift) mod
    n]: a view of y where no cell wraps around the period, else the cells
    copied into ``buf``."""
    n = y.size
    if 0 <= lo + shift and hi + shift <= n:
        return y[lo + shift:hi + shift]
    cells = buf[:hi - lo]
    done = 0
    while done < cells.size:
        start = (lo + shift + done) % n
        m = min(cells.size - done, n - start)
        cells[done:done + m] = y[start:start + m]
        done += m
    return cells


class PeriodicShiftOperator(OperatorHandle):
    """Cyclic shift x(k) -> x(k+1 mod n); unitary, diagonalized by the DFT.

    ``apply_plan`` solves each zero z's (z - T) w = v, the recurrence
    z w_i - w_i+1 = v_i closed once around the period, as a numpy scan
    (:class:`_ShiftScan`) over blocks of _BLOCK samples, backwards for
    |z| > 1 and forwards otherwise, with no FFT and no n-sample array but
    the output; each zero's tables serve every signal of a block of them.
    No root of unity is built but the one nearest each zero, which the
    pole check computes alone."""

    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, n: int):
        if n < 1:
            raise InvalidInputError("signal length must be at least 1")
        self.dim = n

    def apply(self, v):
        return np.roll(self.checked_vector(v), -1, axis=-1)

    def spectrum(self) -> UnitCircle:
        """The unit circle, which holds the n roots of unity."""
        return UnitCircle()

    def apply_plan(self, plan, v):
        """(gamma + beta T + h(T)) v: every zero checked against its nearest
        root of unity first, then each signal on the last axis by
        :meth:`_solve`.  Raises :class:`ConditioningError` when a sample
        leaves the float range."""
        return self._apply_lagged(plan, v, 0)

    def _apply_lagged(self, plan, y, lag: int):
        """:meth:`apply_plan` on v = T^-lag y, which the passes read
        through their cells' indexing, with no copy of y."""
        zeros = _check_finite_poles(plan.zeros)
        _check_symbol_gap(zeros, _nearest_unit_roots(zeros, self.dim))
        y = self.checked_vector(y)
        out = np.empty(y.shape, dtype=complex)
        with np.errstate(all="ignore"):
            work, scans = self._scans(zeros, plan.residues)
            for row, dst in zip(y.reshape(-1, self.dim),
                                out.reshape(-1, self.dim)):
                self._solve(plan.gamma, plan.beta, scans, row, dst, lag,
                            work)
        return _require_finite(out)

    def _scans(self, zeros, residues):
        """One allocation: a block's cells and two scratch rows, with one
        sample to spare, then each zero's two tables; and each zero's
        :class:`_ShiftScan` on its tables, which serve every signal."""
        n = self.dim
        work = np.empty((3 + 2 * zeros.size, min(n, _BLOCK + 1)),
                        dtype=complex)
        return work[:3], [_ShiftScan(z, ck, n, work[3 + 2 * j:])
                          for j, (z, ck) in enumerate(zip(zeros, residues))]

    def _solve(self, gamma, beta, scans, y, out, lag, work):
        """out = (gamma v + beta T v) + sum_k c_k (z_k - T)^{-1} v for one
        signal v = T^-lag y: gamma and beta in one pass over the blocks,
        then the zeros outside the unit circle in one backward pass, then
        the others in one over the reversed signal."""
        buf, u, term = work
        spans = _block_spans(self.dim)
        for s in spans:
            h = np.multiply(gamma, _pass_cells(y, -lag, s.start, s.stop, buf),
                            out=out[s])
            if beta != 0:
                h += np.multiply(beta, _pass_cells(y, 1 - lag, s.start,
                                                   s.stop, buf),
                                 out=term[:h.size])
        for forward in (False, True):
            group = [scan for scan in scans if scan.forward == forward]
            if not group:
                continue
            # the signal and the output in the pass's order: a forward
            # pass's cell k is sample (n - 2 - k) mod n of v
            read = functools.partial(_pass_cells, y[::-1] if forward else y,
                                     1 + lag if forward else -lag, buf=buf)
            h = out[::-1] if forward else out
            carries = [scan.periodic_carry(read) for scan in group]
            for s in reversed(spans):
                cells = read(s.start, s.stop)
                for j, scan in enumerate(group):
                    carries[j] = scan.run(cells, u, carries[j], h[s], term)


def _block_spans(n: int) -> list[slice]:
    """n samples as slices of _BLOCK, except that a last sample left over
    joins the block before it: no block has one sample unless n = 1, since
    numpy rounds an in-place product of one element (as
    ``InversionPlan.evaluate_scalar`` forms) differently from its vector
    loop."""
    edges = [0, *range(_BLOCK, n - 1, _BLOCK), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _fourier_plan_solve(plan: InversionPlan, half: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
    """ifft((1/f)(symbol) * fft(v)) along the last axis for a checked v and
    an even symbol, symbol[k] = symbol[n - k], given as its n // 2 + 1
    values ``half`` at k <= n / 2: the plan is evaluated once per value,
    in blocks of _BLOCK, and multiplied into the spectrum at k and at
    n - k, each product formed as on the whole array; the inverse FFT runs
    in the array the forward FFT returns.  Raises
    :class:`ConditioningError` when a sample leaves the float range."""
    n = v.shape[-1]
    with np.errstate(all="ignore"):
        spectrum = np.fft.fft(v)
        for s in _block_spans(half.size):
            g = plan.evaluate_scalar(half[s])
            spectrum[..., s] = g * spectrum[..., s]
            # k in [lo, hi) below n / 2 mirrors to n - k
            lo, hi = max(s.start, 1), min(s.stop, (n + 1) // 2)
            if lo < hi:
                mirror = slice(n - hi + 1, n - lo + 1)
                spectrum[..., mirror] = (g[lo - s.start:hi - s.start][::-1]
                                         * spectrum[..., mirror])
        return _require_finite(np.fft.ifft(spectrum, out=spectrum))


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of the complex x is finite, tested as one float
    array where the layout allows, which numpy does twice as fast."""
    return np.isfinite(x.view(float) if x.flags.c_contiguous else x).all()


def _checked_samples(v, dim: int) -> np.ndarray:
    """v as a finite complex array with dim samples on its last axis."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (dim,):
        raise InvalidInputError(
            f"vector of shape {v.shape} does not match the {dim} "
            "samples of the operator")
    if not _finite(v):
        raise InvalidInputError("vector has a NaN or infinite entry")
    return v


def _require_finite(x: np.ndarray) -> np.ndarray:
    """x, unless a sample is not finite: the solution left the float range,
    which raises :class:`ConditioningError`."""
    if not _finite(x):
        raise ConditioningError("solution exceeds the float range")
    return x


def _check_finite_poles(poles):
    """The poles, unless one is not finite: :class:`InvalidInputError`."""
    if not np.isfinite(poles).all():
        raise InvalidInputError("a pole of the plan is not finite")
    return poles


def _check_symbol_gap(poles, samples: np.ndarray):
    """The one pole rule (module docstring): every pole p finite and
    min_s |p - s| > SPECTRUM_EPS * |p| over the spectrum samples s (a symbol,
    the roots of unity nearest each pole, xi^2 or eigenvalues); the first
    pole that fails it is named.  The poles go in blocks of about _BLOCK
    entries of |p - s| (one pole a block from _BLOCK samples on), with |p|
    as ``abs`` of each pole rounds it (``np.hypot`` on the parts)."""
    poles = np.asarray(_check_finite_poles(poles))
    step = max(1, _BLOCK // max(1, samples.size))
    for lo in range(0, poles.size, step):
        block = poles[lo:lo + step]
        gaps = np.abs(block[:, None] - samples).min(axis=1, initial=np.inf)
        failing = block[gaps <= SPECTRUM_EPS * np.hypot(block.real,
                                                        block.imag)]
        if failing.size:
            raise SingularResolventError(
                f"pole {failing[0]} lies on or too near the spectrum")


def _frobenius(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, k) with ||X||_F = r 2^k for each matrix X of a complex stack,
    r taken in X's own frame of
    :func:`~resolvinv.tolerance.frame_exponents`: no square overflows, and
    the largest part's square is a normal float, so no norm is 0 but a
    zero matrix's; a NaN or an infinity gives r NaN or inf."""
    parts = np.ascontiguousarray(stack).view(float)
    k = frame_exponents(np.abs(parts).max(axis=(1, 2), initial=0.0))
    if k.any():
        parts = ldexp(parts, -k[:, None, None])
    return np.sqrt(np.einsum("kij,kij->k", parts, parts)), k


def _nearest_unit_roots(poles, n: int) -> np.ndarray:
    """The root of unity of order n nearest each pole, the one closest in
    angle, by ``np.exp``: within 8 eps of the exact root, far inside the
    pole rule's SPECTRUM_EPS."""
    turns = np.angle(np.asarray(poles, dtype=complex)) / (2.0 * np.pi)
    k = np.rint(n * turns).astype(int) % n
    return np.exp(2j * np.pi * k / n)


def _series_plan(series: ResolventSeries) -> InversionPlan:
    """f as the plan gamma = beta = 0, zeros alpha_j and residues a_j != 0."""
    a, alpha = series.coefficients, series.poles
    return InversionPlan(0j, 0j, alpha[a != 0], a[a != 0])


def apply_series(series: ResolventSeries, A: OperatorHandle,
                 v: np.ndarray) -> np.ndarray:
    """f(A) v = sum_j a_j (alpha_j - A)^{-1} v, the series as a plan."""
    return A.apply_plan(_series_plan(series), v)


def apply_plan(plan: InversionPlan, A: OperatorHandle,
               v: np.ndarray) -> np.ndarray:
    """(gamma + beta A + h(A)) v by the operator's own ``apply_plan``."""
    return A.apply_plan(plan, v)


# --- exponential-sum kernel equation on a half line -------------------------


def volterra_kernel(series: ResolventSeries) -> ResolventSeries:
    """``series`` as the kernel k(t) = sum_j a_j exp(-alpha_j t), which
    must decay: raises :class:`HypothesisError` unless Re alpha_j > 0."""
    bad = series.poles[series.poles.real <= 0.0].tolist()
    if bad:
        raise HypothesisError(
            f"kernel exponent {bad[0]} must have positive real part")
    return series


def solve_exponential_volterra(kernel: ResolventSeries, y: np.ndarray,
                               grid: GridDerivativeOperator):
    """Solve int_t^L k(s-t) x(s) ds = y(t) for x on the grid.

    The kernel is k(t) = sum_j a_j exp(-alpha_j t) with a_j > 0 and
    Re alpha_j > 0 (:func:`volterra_kernel`), so the left-hand side is
    f(D) x for D = d/dt and the solution is x = gamma*y + beta*y' + h(D) y.
    The plan is :func:`checked_plan` against the imaginary axis; without
    those checks the solve is ``apply_plan(plan, grid, y)``.

    Returns (x, boundary_residual) where the residual is |y(L)|, the size
    of the neglected tail at the truncated upper limit.
    """
    plan = checked_plan(volterra_kernel(kernel), grid.spectrum())
    return apply_plan(plan, grid, y), float(abs(y[-1]))


def forward_exponential_volterra(kernel: ResolventSeries, x: np.ndarray,
                                 grid: GridDerivativeOperator) -> np.ndarray:
    """Forward map y(t) = int_t^L k(s-t) x(s) ds = f(D) x on the grid,
    for a kernel that :func:`solve_exponential_volterra` accepts."""
    require_admissible(volterra_kernel(kernel), grid.spectrum())
    return apply_series(kernel, grid, x)


# --- even exponential-sum convolution on a periodic grid --------------------


def convolution_series(terms) -> ResolventSeries:
    """The :func:`~resolvinv.rational.derived_series` of the coefficients
    -2i b_j beta_j at the poles beta_j^2, for an even kernel
    sum_j b_j exp(-i beta_j |t|) with Im beta_j < 0 (else
    :class:`HypothesisError`); theorem mode and the pole hull are left to
    :func:`require_admissible`."""
    a, poles = [], []
    for b, beta in terms:
        b = complex(b)
        beta = complex(beta)
        if beta.imag >= 0.0:
            raise HypothesisError(
                f"kernel frequency {beta} must have negative imaginary part")
        a.append(-2j * b * beta)
        poles.append(beta * beta)
    return derived_series(a, poles)


def _squared_frequencies(n: int, period: float) -> np.ndarray:
    """xi^2 for the angular frequencies xi = 2 pi k / period of the DFT at
    k = 0, ..., n // 2: ``np.fft.fftfreq``'s, whose squares at k and n - k
    are equal bit for bit."""
    with np.errstate(all="ignore"):
        xi = np.fft.rfftfreq(n, d=period / (2.0 * np.pi * n))
        xi *= xi
    return xi


def solve_even_convolution(terms, y: np.ndarray, period: float) -> np.ndarray:
    """Solve int k1(s-t) x(s) ds = y(t) on a periodic grid, for the even
    kernel k1(t) = sum_j b_j exp(-i beta_j |t|) with Im beta_j < 0.

    In frequency space the operator is f(xi^2) for the mapped series
    :func:`convolution_series`, so x is (1/f)(xi^2) * fft(y) transformed
    back: :func:`solve_convolution` on its :func:`checked_plan` against
    [0, inf)."""
    plan = checked_plan(convolution_series(terms), PositiveHalfLine())
    return solve_convolution(plan, y, period)


def solve_convolution(plan: InversionPlan, y: np.ndarray,
                      period: float) -> np.ndarray:
    """:func:`solve_even_convolution` without its checks of the kernel: y
    nonempty and by the operators' input rule, period finite and > 0, the
    plan's poles against xi^2; then the plan on fft(y), one FFT pair."""
    y = np.asarray(y, dtype=complex)
    if y.size == 0 or not 0.0 < period < np.inf:
        raise InvalidInputError("need a nonempty y and a finite period > 0")
    xi2 = _squared_frequencies(y.size, period)
    _check_symbol_gap(plan.zeros, xi2)
    return _fourier_plan_solve(plan, xi2, _checked_samples(y, y.size))


def forward_even_convolution(terms, x: np.ndarray,
                             period: float) -> np.ndarray:
    """Forward periodic convolution: f(xi^2) * fft(x), transformed back,
    for a kernel that :func:`solve_even_convolution` accepts; the
    series as a plan, through :func:`solve_convolution`."""
    series = convolution_series(terms)
    require_admissible(series, PositiveHalfLine())
    return solve_convolution(_series_plan(series), x, period)


# --- recursive filters on periodic signals ----------------------------------


def forward_filter(spec: FilterSpec, x: np.ndarray) -> np.ndarray:
    """Run the difference equation on a length-n periodic signal:
    y = p(T)^{-1} q(T) x for the cyclic shift T.

    p(T) = K prod_j M_j(T) over the roots z_j of p
    (:func:`_characteristic_roots`): M_j = z_j - T in the closed unit disk,
    1 - T / z_j outside, and K = (-1)^N c_N prod z_j over the roots
    outside.  The roots are checked once against their nearest roots of
    unity; each M_j^{-1} is then one solve on the shift's scan, every root's
    tables built once (a repeated root is two solves).  One refinement
    step solves the residual q(T)x - p(T)y the same way, which leaves the
    rounding of q and p on the circle.  x, b, c and K are framed by powers
    of two, so an intermediate leaves the float range only with y.  A root
    on or near a root of unity raises :class:`SingularResolventError`, a
    root or y past the float range :class:`ConditioningError`.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    T = PeriodicShiftOperator(n)
    x, kx = unit_frame(T.checked_vector(x))
    b, kb = unit_frame(spec.b)
    c, kc = unit_frame(spec.c)
    z = _characteristic_roots(c)
    _check_symbol_gap(z, _nearest_unit_roots(z, n))
    outside = np.abs(z) > 1.0
    K, k = 1 + 0j, 0  # K 2^k, framed again after each factor
    for factor in [(-1) ** spec.order * c[-1], *z[outside]]:
        (w,), e = unit_frame(factor)
        (K,), f = unit_frame(K * w)
        k += e + f

    with np.errstate(all="ignore"):
        work, scans = T._scans(z, np.where(outside, z, 1.0 + 0j))

        def solve(u):  # M(T)^{-1} u, one solve per root
            for scan in scans:
                u, w = np.empty(n, dtype=complex), u
                T._solve(0j, 0j, [scan], w, u, 0, work)
            return u

        qx = sum(b_l / K * np.roll(x, -l) for l, b_l in enumerate(b, 1))
        y = solve(qx)
        m = ldexp(c, -k) / K  # M(T) = sum_j m_j T^j
        y = y + solve(qx - sum(m_j * np.roll(y, -j)
                               for j, m_j in enumerate(m)))
    return _require_finite(ldexp(y, kx + kb - kc - k))


def _characteristic_roots(c: np.ndarray) -> np.ndarray:
    """The roots of sum_k c_k z^k (c_N != 0) as one set, the companion
    matrix's eigenvalues (``numpy.roots``): no polish and no gap rule, so
    not :func:`~resolvinv.rational.poly_roots`, whose roots (and the
    filter plans built on them) keep their bits.  They are found for
    w = z 2^-t on the framed coefficients, t giving the lowest nonzero and
    the top coefficient one binary exponent, so that a ratio c_k / c_N or
    a root leaves the float range, raising :class:`ConditioningError`,
    only with the roots' spread."""
    e = np.frexp(np.abs(c))[1]
    nonzero = np.flatnonzero(c)
    low, top = nonzero[0], c.size - 1
    t = round((e[low] - e[top]) / (top - low)) if low < top else 0
    k = t * np.arange(c.size)
    w = ldexp(c, k - (e + k)[nonzero].max())
    with np.errstate(all="ignore"):
        finite = np.isfinite(w / w[-1]).all()
        z = ldexp(np.roots(w[::-1]) if finite else np.full(1, np.inf), t)
    if not np.isfinite(z).all():
        raise ConditioningError("characteristic roots exceed the float range")
    return z


def invert_filter(spec: FilterSpec, y: np.ndarray) -> np.ndarray:
    """Recover the input signal of a recursive filter from its output:
    x = -gamma T^{-1} y - beta y - h(T) T^{-1} y for the shift T, by
    :func:`solve_filter` on the :func:`checked_plan` of the residue
    expansion :func:`filter_to_series` against the unit circle."""
    return solve_filter(checked_plan(filter_to_series(spec), UnitCircle()), y)


def solve_filter(plan: InversionPlan, y: np.ndarray) -> np.ndarray:
    """:func:`invert_filter` without its checks of the filter: the shift T
    applies the plan to -T^{-1} y = -roll(y, 1), checking its poles, and
    reads T^{-1} y through its passes' indexing, with no rolled copy.  The
    sign goes on the plan (gamma, beta and the residues), which gives the
    same bits as negating the signal, without a pass over it.  A block of
    signals, one on each row of the last axis, is solved row by row, as
    the shift's ``apply_plan`` does."""
    y = np.asarray(y, dtype=complex)
    negated = InversionPlan(-plan.gamma, -plan.beta, plan.zeros,
                            -plan.residues)
    n = y.shape[-1] if y.ndim else y.size
    return PeriodicShiftOperator(n)._apply_lagged(negated, y, 1)
