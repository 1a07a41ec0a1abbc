"""Operator backends, and the one way anything is applied to them.

A backend applies A, describes its spectrum geometrically, and applies a
plan gamma + beta*A + sum_k c_k (z_k - A)^{-1} in ``apply_plan``, its one
solve path.  A resolvent solve (alpha*I - A)^{-1} v is the plan with one
zero alpha and residue 1, and a series the plan with gamma = beta = 0,
its poles and its nonzero coefficients (:func:`apply_series`).  A dense
matrix inherits the generic ``apply_plan``: per zero one LAPACK ``zgetrs``
on the LU of alpha*I - A that ``zgetrf`` factors once per alpha and
caches, with the eigenvalues and the SVD, and A applied only when
beta != 0.  A multiplier makes one elementwise pass over its symbol, and
the periodic shift and ``solve_convolution`` the same pass between one FFT
pair, in the array the forward FFT returns.  The pass runs
``InversionPlan.evaluate_scalar`` on blocks of 4096 samples, whose
temporaries stay in cache, with the bits of the whole-array product; the
shift's roots of unity come from one table.  d/dt on a grid makes one
backward pass over blocks of 4096 samples: per block and zero a LAPACK
``ztbtrs`` solve of the resolvent's recurrence on one reused band, one
sample longer than the block so that LAPACK carries the recurrence across
the block's end itself, with the bits of one solve over the whole grid;
gamma v + beta v' + h is formed in the same block.

One contract holds on every operator.  ``checked_vector`` raises
:class:`InvalidInputError` for a vector of the wrong shape or with a NaN
or infinite entry.  Every pole is checked before anything is solved, by
one rule: a pole that is not finite raises :class:`InvalidInputError`,
and :class:`SingularResolventError` for a pole p with min_s |p - s| <=
SPECTRUM_EPS * |p| over the spectrum samples s (the rounding of p - s).
The samples are a multiplier's symbol, the shift's nearest root of
unity by angle, xi^2 for ``solve_convolution`` or a dense matrix's
eigenvalues; d/dt on a grid needs Re p > SPECTRUM_EPS * |p|, the rule
against the imaginary axis with the left half plane excluded.  It is
:func:`resolvinv.series.check_admissible`'s bound per pole, so a series
past that gate passes every solve's check at its own poles.  An exactly
zero dense pivot raises :class:`SingularResolventError` too, and a
result past the float range :class:`ConditioningError`, no numpy warning.

The checked solvers take their plan from
:func:`resolvinv.rational.checked_plan`, and the forward maps run the same
gate; the plan-only solves (``solve_filter``, ``solve_convolution``, and
``apply_plan(plan, grid, y)`` for Volterra) check only the plan's poles.
Only the dense and grid solves import scipy, inside the solve, so the
other paths start without it.
"""

from __future__ import annotations

import numpy as np
import numpy.polynomial.polynomial as npp

from .errors import (
    ConditioningError,
    EmptyInputError,
    HypothesisError,
    InvalidInputError,
    SingularResolventError,
    SingularTransferError,
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
    filter_to_series,
)
from .series import ResolventSeries, require_admissible, theorem_mode
from .tolerance import DERIVED_EPS, SPECTRUM_EPS, magnitude, negligible

# samples per block of a Fourier-diagonal pass: a block's temporaries
# (64 KiB each) stay in cache, and the unit roots are built block by block
_BLOCK = 4096

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
        """(gamma + beta A + h(A)) v for a checked v: the zeros checked
        against ``eigenvalues()`` first, then one ``_solve`` per zero and
        ``_apply`` only when beta != 0, the methods of a dense matrix, the
        one operator that inherits this.  Raises :class:`ConditioningError`
        when a sample leaves the float range."""
        v = self.checked_vector(v)
        if len(plan.zeros):
            _check_symbol_gap(plan.zeros, self.eigenvalues())
        with np.errstate(all="ignore"):
            h = np.zeros_like(v)
            for zk, ck in zip(plan.zeros, plan.residues):
                h += ck * self._solve(zk, v)
            out = plan.gamma * v
            if plan.beta != 0:
                out = out + plan.beta * self._apply(v)
            return _require_finite(out + h)


class DenseMatrixOperator(OperatorHandle):
    """A as an explicit n x n complex matrix; resolvents on one LU of
    alpha*I - A per shift alpha, factored by LAPACK ``zgetrf`` and cached."""

    # every operator class binds the inherited method in its own body, only
    # for the benchmark's tracer, which wraps cls.__dict__["resolvent_solve"]
    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("matrix must be square")
        if m.size == 0:
            raise EmptyInputError("matrix must be nonempty")
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

        Raises ``numpy.linalg.LinAlgError`` when the SVD does not converge
        (a matrix holding a NaN or an infinity)."""
        if self._svd is None:
            self._svd = np.linalg.svd(self.matrix)
        return self._svd

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(self.eigenvalues())

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
        """One blocked elementwise pass: (1/f)(s) * v.  Raises
        :class:`ConditioningError` when a sample leaves the float range."""
        _check_symbol_gap(plan.zeros, self.symbol)
        v = self.checked_vector(v)
        with np.errstate(all="ignore"):
            return _require_finite(
                _plan_product(plan, self.symbol, v, np.empty_like(v)))


class GridDerivativeOperator(OperatorHandle):
    """d/dt on a uniform grid over [t0, L].

    The resolvent w = (alpha - d/dt)^{-1} v,
    w(t) = int_t^L exp(-alpha (s-t)) v(s) ds (upper limit truncated to the
    grid end), integrates the piecewise-linear interpolant of v exactly,
    cell by cell: w_i = e w_{i+1} + cell_i with e = exp(-alpha dt) and
    w = 0 at the grid end; valid for Re alpha > SPECTRUM_EPS * |alpha|.

    ``apply_plan`` runs the recurrence of every zero in one backward pass
    over blocks of _BLOCK samples, each a unit upper-bidiagonal LAPACK
    ``ztbtrs`` solve on one reused (2, _BLOCK + 1) band.  A block's system
    has one sample more than the block: the w already solved at the first
    sample of the block after it.  LAPACK itself then adds e times that
    carry to the block's last cell, as in one solve over the whole grid, so
    the bits are that solve's.  gamma v + beta v' is added in the same
    block, so the temporaries hold at most _BLOCK + 1 samples each and stay
    in cache.
    """

    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, t0: float, L: float, n: int):
        if n < 3:
            raise InvalidInputError("grid needs at least 3 points")
        if not L > t0:
            raise InvalidInputError("grid end must exceed grid start")
        self.t = np.linspace(t0, L, n)
        self.dt = float(self.t[1] - self.t[0])
        self.dim = n

    def checked_vector(self, v) -> np.ndarray:
        """v as a finite complex vector of shape (n,)."""
        if np.shape(v) != (self.dim,):
            raise InvalidInputError("data length does not match the grid")
        return _checked_samples(v, self.dim)

    def apply(self, v):
        """v' by second-order central differences (one sided at the ends),
        the derivative of the beta*y' term of a Volterra solve."""
        return np.gradient(self.checked_vector(v), self.dt, edge_order=2)

    def spectrum(self) -> ImaginaryAxis:
        return ImaginaryAxis()

    def apply_plan(self, plan, v):
        """(gamma + beta d/dt + h(d/dt)) v in one backward pass: every zero
        checked first, then per block h = sum_k c_k w_k and
        (gamma v + beta v') + h, the order of the whole-array expression.
        Raises :class:`ConditioningError` past the float range."""
        from scipy.linalg.lapack import ztbtrs
        v = self.checked_vector(v)
        d = self.dt
        steps = []
        with np.errstate(all="ignore"):
            for alpha, ck in zip(_check_finite_poles(plan.zeros),
                                 plan.residues):
                alpha = complex(alpha)
                if alpha.real <= SPECTRUM_EPS * abs(alpha):
                    raise SingularResolventError(
                        f"pole {alpha} is on or too near the spectrum of d/dt")
                e = np.exp(-alpha * d)
                i0 = (1.0 - e) / alpha
                i1 = (1.0 - (1.0 + alpha * d) * e) / (alpha * alpha)
                steps.append((-e, i0, i1 / d, ck))
            if not np.isfinite(steps).all():
                raise ConditioningError("cell weights exceed the float range")
            # w at the first sample of the block last solved, per zero: 0 at
            # the grid end, which has no cell and is not an unknown
            carries = [0j] * len(steps)
            n = self.dim
            out = np.empty_like(v)
            # one block and its carry: up to _BLOCK + 1 samples
            w = np.empty(min(n, _BLOCK + 1), dtype=complex)
            dv = np.empty_like(w)
            term = np.empty_like(w)
            # LAPACK band storage: row 0 is the superdiagonal -e, whose first
            # entry is never read, nor is the unit diagonal in row 1; filling
            # both rows with -e is one contiguous write, not a strided one
            band = np.empty((2, w.size), dtype=complex, order="F")
            for s in reversed(_block_spans(n)):
                lo, hi = s.start, s.stop
                k = hi - lo
                cells = k - (hi == n)
                rows = cells if hi == n else cells + 1
                vc = v[lo:lo + cells]
                dvc = np.subtract(v[lo + 1:lo + cells + 1], vc, out=dv[:cells])
                # h summed in the output block, from 0 as on the whole array
                h = out[s]
                h.fill(0)
                for j, (minus_e, i0, i1_d, ck) in enumerate(steps):
                    # the integral of the linear interpolant over each cell,
                    # formed apart from its operands, since numpy rounds an
                    # in-place product of one element differently
                    x = np.multiply(dvc, i1_d, out=w[:cells])
                    x += np.multiply(vc, i0, out=term[:cells])
                    w[cells] = carries[j]
                    ab = band[:, :rows]
                    ab.fill(minus_e)
                    # in place in w; the carry, if any, is the last row
                    _, info = ztbtrs(ab, w[:rows], uplo="U", diag="U",
                                     overwrite_b=True)
                    if info != 0:
                        raise ConditioningError("backward recurrence solve "
                                                f"failed (LAPACK info {info})")
                    carries[j] = w[0]
                    h += np.multiply(ck, w[:k], out=term[:k])
                lin = np.multiply(plan.gamma, v[s], out=term[:k])
                if plan.beta != 0:
                    grad = self._derivative(v, s)
                    lin += np.multiply(plan.beta, grad, out=grad)
                # addition commutes bit for bit: (gamma v + beta v') + h
                h += lin
                _require_finite(h)
        return out

    def _derivative(self, v: np.ndarray, s: slice) -> np.ndarray:
        """v' on the samples s, with the bits of ``apply(v)[s]``: inside the
        grid, ``np.gradient``'s central difference itself; a block at a
        grid end takes ``np.gradient`` on it and one neighbour past its
        other end, for the one-sided formula there."""
        lo, hi = s.start, s.stop
        if 0 < lo and hi < self.dim:
            return (v[lo + 1:hi + 1] - v[lo - 1:hi - 1]) / (2.0 * self.dt)
        a, b = max(lo - 1, 0), min(hi + 1, self.dim)
        return np.gradient(v[a:b], self.dt, edge_order=2)[lo - a:hi - a]


class PeriodicShiftOperator(OperatorHandle):
    """Cyclic shift x(k) -> x(k+1 mod n); unitary, diagonalized by the DFT."""

    resolvent_solve = OperatorHandle.resolvent_solve

    def __init__(self, n: int):
        if n < 1:
            raise InvalidInputError("signal length must be at least 1")
        self.dim = n
        self.symbol = _unit_roots(n)

    def apply(self, v):
        return np.roll(self.checked_vector(v), -1, axis=-1)

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(self.symbol)

    def apply_plan(self, plan, v):
        """The blocked (1/f)(symbol) pass between one FFT pair."""
        zeros = _check_finite_poles(plan.zeros)
        _check_symbol_gap(zeros, _nearest_unit_roots(zeros, self.symbol))
        return _fourier_plan_solve(plan, self.symbol, self.checked_vector(v))


def _unit_roots(n: int) -> np.ndarray:
    """exp(2 pi i k / n) for k < n.  Up to _BLOCK of them are ``np.exp``'s,
    bit for bit.  Past that, each block of _BLOCK is
    a table of the first roots turned by the block's first root, one
    complex product per sample, and every angle past a half turn is taken
    as 2 pi (k - n) / n, whose rounding is half as large: each root is
    then within 4 eps of the exact one (``np.exp``'s are up to 7 eps off)."""
    if n <= _BLOCK:
        return np.exp(2j * np.pi * np.arange(n) / n)

    def roots(k):
        return np.exp(1j * (2.0 * np.pi * np.where(2 * k > n, k - n, k) / n))

    table = roots(np.arange(_BLOCK))
    out = np.empty(n, dtype=complex)
    for i, turn in zip(range(0, n, _BLOCK), roots(np.arange(0, n, _BLOCK))):
        np.multiply(table[:n - i], turn, out=out[i:i + _BLOCK])
    return out


def _plan_product(plan: InversionPlan, symbol: np.ndarray, v: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """out = (1/f)(symbol) * v along the last axis (``out`` may be v), by
    ``plan.evaluate_scalar`` on blocks of _BLOCK samples, whose temporaries
    stay in cache.  Each sample meets the same operations in the same
    order as on the whole array, so the bits are those of
    ``plan.evaluate_scalar(symbol) * v``.  That needs two guards, since
    numpy rounds an in-place product of one element differently from its
    vector loop: no block has one sample unless the array does (a last
    one joins the block before it), and the product is formed apart from
    ``out``."""
    for s in _block_spans(symbol.size):
        out[..., s] = plan.evaluate_scalar(symbol[s]) * v[..., s]
    return out


def _block_spans(n: int) -> list[slice]:
    """n samples as slices of _BLOCK, except that a last sample left over
    joins the block before it: no block has one sample unless n = 1."""
    edges = [0, *range(_BLOCK, n - 1, _BLOCK), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _fourier_plan_solve(plan: InversionPlan, symbol: np.ndarray,
                        v: np.ndarray) -> np.ndarray:
    """ifft((1/f)(symbol) * fft(v)) along the last axis for a checked v:
    the blocked plan product and the inverse FFT both in the array the
    forward FFT returns.  Raises :class:`ConditioningError` when a sample
    leaves the float range."""
    with np.errstate(all="ignore"):
        spectrum = np.fft.fft(v)
        _plan_product(plan, symbol, spectrum, spectrum)
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
    the roots of unity nearest each pole, xi^2 or eigenvalues)."""
    for p in _check_finite_poles(poles):
        if negligible(np.abs(p - samples).min(), p, rtol=SPECTRUM_EPS):
            raise SingularResolventError(
                f"pole {p} lies on or too near the spectrum")


def _nearest_unit_roots(poles, sym: np.ndarray) -> np.ndarray:
    """The sample of the roots of unity ``sym`` nearest each pole: the one
    closest in angle, found without a pass over the n samples."""
    n = sym.size
    turns = np.angle(np.asarray(poles, dtype=complex)) / (2.0 * np.pi)
    return sym[np.rint(n * turns).astype(int) % n]


def _series_plan(series: ResolventSeries) -> InversionPlan:
    """f as the plan gamma = beta = 0, zeros alpha_j and residues a_j != 0."""
    a, alpha = np.array(series.terms).T
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
    for _, alpha in series.terms:
        if alpha.real <= 0.0:
            raise HypothesisError(
                f"kernel exponent {alpha} must have positive real part")
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
    """The series {(-2i b_j beta_j, beta_j^2)} of an even kernel
    sum_j b_j exp(-i beta_j |t|), checked for Im beta_j < 0 and mapped
    coefficients that pass the theorem-mode test at ``DERIVED_EPS``; the
    pole hull is left to :func:`require_admissible`."""
    mapped = []
    for b, beta in terms:
        b = complex(b)
        beta = complex(beta)
        if beta.imag >= 0.0:
            raise HypothesisError(
                f"kernel frequency {beta} must have negative imaginary part")
        mapped.append((-2j * b * beta, beta * beta))
    # built without the mapping's tiny imaginary residue, which is tested
    series = ResolventSeries(tuple((a.real, al) for a, al in mapped))
    if not theorem_mode([a for a, _ in mapped], rtol=DERIVED_EPS):
        raise HypothesisError(
            "mapped coefficients -2i b_j beta_j must be real positive")
    return series


def _squared_frequencies(n: int, period: float) -> np.ndarray:
    """xi^2 for the angular frequencies xi = 2 pi k / period of the DFT."""
    with np.errstate(all="ignore"):
        xi = np.fft.fftfreq(n, d=period / (2.0 * np.pi * n))
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
    return _fourier_plan_solve(plan, xi2, _checked_samples(y, xi2.size))


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
    """Run the difference equation on a length-n periodic signal.

    In frequency space y_hat = (q/p)(omega) * x_hat at each DFT frequency;
    the characteristic polynomial must not vanish at any grid frequency.
    x meets the operators' input rule; a result past the float range
    raises :class:`ConditioningError`.
    """
    x = np.asarray(x, dtype=complex)
    T = PeriodicShiftOperator(x.size)
    x = T.checked_vector(x)
    omega = T.symbol
    p = npp.polyval(omega, spec.c)
    if negligible(np.min(np.abs(p)), magnitude(spec.c), rtol=SPECTRUM_EPS):
        raise SingularTransferError(
            "characteristic polynomial vanishes at a grid frequency")
    q = npp.polyval(omega, (0j,) + spec.b)
    with np.errstate(all="ignore"):
        return _require_finite(np.fft.ifft(np.fft.fft(x) * q / p))


def invert_filter(spec: FilterSpec, y: np.ndarray) -> np.ndarray:
    """Recover the input signal of a recursive filter from its output:
    x = -gamma T^{-1} y - beta y - h(T) T^{-1} y for the shift T, by
    :func:`solve_filter` on the :func:`checked_plan` of the residue
    expansion :func:`filter_to_series` against the unit circle."""
    return solve_filter(checked_plan(filter_to_series(spec), UnitCircle()), y)


def solve_filter(plan: InversionPlan, y: np.ndarray) -> np.ndarray:
    """:func:`invert_filter` without its checks of the filter: the shift T
    applies the plan to -T^{-1} y = -roll(y, 1), checking its poles.  The
    sign goes on the plan (gamma, beta and the residues), which gives the
    same bits as negating the signal, without a pass over it."""
    y = np.asarray(y, dtype=complex)
    negated = InversionPlan(-plan.gamma, -plan.beta, plan.zeros,
                            -plan.residues)
    return PeriodicShiftOperator(y.size).apply_plan(negated, np.roll(y, 1))
