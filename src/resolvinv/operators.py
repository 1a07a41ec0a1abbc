"""Concrete operator backends and the application of series and plans.

Backends expose three capabilities: apply the operator, solve resolvent
systems (alpha*I - A) u = v, and describe the spectrum geometrically.
Factorizations are cached per pole, so repeated solves at one pole (a
plan applied to many vectors, a regularization sweep) reuse them.

Operators diagonal in a Fourier basis (multiplier, periodic shift, the
recursive-filter and even-convolution solvers) keep their symbol as a
numpy array s and act elementwise on it.  A pole p is accepted against
such a symbol when, for its nearest sample s*,

    |p - s*| > SPECTRUM_EPS * max(|p|, |s*|),

the package's one tolerance rule (:mod:`resolvinv.tolerance`): the
rounding error of p - s* is about eps * max(|p|, |s*|), whatever the
size of the samples far away, and there is no floor of 1, so the decision
does not change when poles and symbol are rescaled together.  A bound
scaled by max|s| would grow like n^2 for the convolution symbol xi^2 on
n samples and reject well separated poles as touching the spectrum.
Other operators check each pole p on its own: dist(p, spectrum) >
SPECTRUM_EPS * |p|.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.polynomial.polynomial as npp
import scipy.linalg
from scipy.linalg.lapack import ztbtrs

from .errors import (
    ConditioningError,
    HypothesisError,
    InvalidInputError,
    SeparationError,
    SingularResolventError,
    SingularTransferError,
)
from .geometry import (
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    Spectrum,
    UnitCircle,
    convex_hull,
    hull_separated_from,
)
from .rational import (
    FilterSpec,
    InversionPlan,
    filter_to_series,
    invert_to_plan,
)
from .series import ResolventSeries, theorem_mode
from .tolerance import DERIVED_EPS, SPECTRUM_EPS, magnitude, negligible

__all__ = [
    "OperatorHandle",
    "DenseMatrixOperator",
    "MultiplierOperator",
    "GridDerivativeOperator",
    "PeriodicShiftOperator",
    "apply_series",
    "apply_plan",
    "solve_exponential_volterra",
    "forward_exponential_volterra",
    "convolution_series",
    "solve_even_convolution",
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
        """(alpha*I - A)^{-1} v."""
        raise NotImplementedError

    def spectrum(self) -> Spectrum:
        raise NotImplementedError


class DenseMatrixOperator(OperatorHandle):
    """A as an explicit n x n complex matrix; resolvents by cached LU."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("matrix must be square")
        self.matrix = m
        self.dim = m.shape[0]
        self._lu_cache: dict[complex, tuple] = {}
        self._eigvals: np.ndarray | None = None

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=complex)

    def eigenvalues(self) -> np.ndarray:
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvals(self.matrix)
        return self._eigvals

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(tuple(complex(e) for e in self.eigenvalues()))

    def resolvent_solve(self, alpha, v):
        alpha = complex(alpha)
        lu = self._lu_cache.get(alpha)
        if lu is None:
            shifted = alpha * np.eye(self.dim, dtype=complex) - self.matrix
            lu = scipy.linalg.lu_factor(shifted)
            self._lu_cache[alpha] = lu
        return scipy.linalg.lu_solve(lu, np.asarray(v, dtype=complex))


class MultiplierOperator(OperatorHandle):
    """Diagonal action (A v)_k = s_k v_k by the symbol samples s."""

    def __init__(self, symbol):
        s = np.asarray(symbol, dtype=complex)
        if s.ndim != 1:
            raise InvalidInputError("symbol must be a 1-d sample array")
        self.symbol = s
        self.dim = s.size

    def apply(self, v):
        return self.symbol * np.asarray(v, dtype=complex)

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(tuple(complex(s) for s in self.symbol))

    def resolvent_solve(self, alpha, v):
        _check_symbol_gap((alpha,), self.symbol)
        return np.asarray(v, dtype=complex) / (complex(alpha) - self.symbol)


class GridDerivativeOperator(OperatorHandle):
    """d/dt on a uniform grid over [t0, L].

    The resolvent (alpha - d/dt)^{-1} v(t) = int_t^L exp(-alpha (s-t)) v(s) ds
    (upper limit truncated to the grid end) is computed by exact integration
    of the piecewise-linear interpolant, cell by cell; valid for Re alpha > 0.
    """

    def __init__(self, t0: float, L: float, n: int):
        if n < 3:
            raise InvalidInputError("grid needs at least 3 points")
        if not L > t0:
            raise InvalidInputError("grid end must exceed grid start")
        self.t = np.linspace(t0, L, n)
        self.dt = float(self.t[1] - self.t[0])
        self.dim = n

    def apply(self, v):
        v = np.asarray(v, dtype=complex)
        out = np.empty_like(v)
        out[:-1] = (v[1:] - v[:-1]) / self.dt
        out[-1] = (v[-1] - v[-2]) / self.dt
        return out

    def spectrum(self) -> ImaginaryAxis:
        return ImaginaryAxis()

    def resolvent_solve(self, alpha, v):
        alpha = complex(alpha)
        if alpha.real <= 0.0:
            raise SingularResolventError(
                f"resolvent of d/dt needs Re alpha > 0, got {alpha}")
        v = np.asarray(v, dtype=complex)
        d = self.dt
        e = np.exp(-alpha * d)
        i0 = (1.0 - e) / alpha
        i1 = (1.0 - (1.0 + alpha * d) * e) / (alpha * alpha)
        # per-cell integral of the linear interpolant against exp(-alpha tau),
        # written straight into the output buffer
        out = np.empty(v.size, dtype=complex)
        cells = out[:-1]
        np.subtract(v[1:], v[:-1], out=cells)
        cells *= i1 / d
        cells += v[:-1] * i0
        out[-1] = 0.0
        # backward recurrence w_i = e * w_{i+1} + cells_i, w_{n-1} = 0, as
        # one unit upper-bidiagonal solve in LAPACK band storage (row 0 is
        # the superdiagonal; the unit diagonal in row 1 is never read)
        band = np.zeros((2, cells.size), dtype=complex, order="F")
        band[0, 1:] = -e
        # overwrite_b solves in place in `out`, which the function owns
        _, info = ztbtrs(band, cells, uplo="U", diag="U", overwrite_b=True)
        if info != 0:
            raise ConditioningError(
                f"backward recurrence solve failed (LAPACK info {info})")
        return out


class PeriodicShiftOperator(OperatorHandle):
    """Cyclic shift x(k) -> x(k+1 mod n); unitary, diagonalized by the DFT."""

    def __init__(self, n: int):
        if n < 2:
            raise InvalidInputError("signal length must be at least 2")
        self.dim = n
        self.symbol = np.exp(2j * np.pi * np.arange(n) / n)

    def apply(self, v):
        return np.roll(np.asarray(v, dtype=complex), -1)

    def spectrum(self) -> PointSpectrum:
        return PointSpectrum(tuple(complex(s) for s in self.symbol))

    def resolvent_solve(self, alpha, v):
        _check_symbol_gap((alpha,), self.symbol)
        return np.fft.ifft(np.fft.fft(np.asarray(v, dtype=complex))
                           / (complex(alpha) - self.symbol))


def _check_symbol_gap(poles, symbol: np.ndarray):
    """Raise unless |p - s*| > SPECTRUM_EPS * max(|p|, |s*|) for every pole
    p and its nearest symbol sample s* (see the module docstring); one
    pass over the samples per pole."""
    for p in poles:
        p = complex(p)
        gaps = np.abs(p - symbol)
        k = np.argmin(gaps)
        if negligible(gaps[k], p, symbol[k], rtol=SPECTRUM_EPS):
            raise SingularResolventError(
                f"pole {p} lies on or too near the spectrum")


def _check_poles_off_spectrum(poles, A: OperatorHandle):
    # a symbol is scanned by each resolvent solve, so not here as well
    if len(poles) == 0 or isinstance(A, (MultiplierOperator,
                                         PeriodicShiftOperator)):
        return
    spec = A.spectrum()
    for p in poles:
        p = complex(p)
        if negligible(spec.distance_to(p), p, rtol=SPECTRUM_EPS):
            raise SingularResolventError(
                f"pole {p} lies on or too near the spectrum")


def apply_series(series: ResolventSeries, A: OperatorHandle,
                 v: np.ndarray) -> np.ndarray:
    """f(A) v = sum_j a_j (alpha_j - A)^{-1} v."""
    _check_poles_off_spectrum(series.poles, A)
    v = np.asarray(v, dtype=complex)
    out = np.zeros_like(v)
    for a, alpha in series.terms:
        if a == 0:
            continue
        out = out + a * A.resolvent_solve(alpha, v)
    return out


def _apply_remainder(plan: InversionPlan, A: OperatorHandle,
                     v: np.ndarray) -> np.ndarray:
    """h(A) v: one resolvent solve per zero of the plan."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros_like(v)
    for zk, ck in zip(plan.zeros, plan.residues):
        out += ck * A.resolvent_solve(zk, v)
    return out


def apply_plan(plan: InversionPlan, A: OperatorHandle,
               v: np.ndarray) -> np.ndarray:
    """(gamma + beta A + h(A)) v, h as simple poles at the plan's zeros."""
    _check_poles_off_spectrum(plan.zeros, A)
    v = np.asarray(v, dtype=complex)
    return plan.gamma * v + plan.beta * A.apply(v) + _apply_remainder(
        plan, A, v)


# --- exponential-sum kernel equation on a half line -------------------------


def _require_decaying_kernel(kernel: ResolventSeries):
    if not kernel.is_theorem_mode():
        raise HypothesisError(
            "kernel coefficients must be nonnegative real with positive sum")
    for _, alpha in kernel.terms:
        if alpha.real <= 0.0:
            raise HypothesisError(
                f"kernel exponent {alpha} must have positive real part")


def solve_exponential_volterra(kernel: ResolventSeries, y: np.ndarray,
                               grid: GridDerivativeOperator,
                               plan: InversionPlan | None = None):
    """Solve int_t^L k(s-t) x(s) ds = y(t) for x on the grid.

    The kernel is k(t) = sum_j a_j exp(-alpha_j t) with a_j > 0 and
    Re alpha_j > 0, so the left-hand side is f(D) x for D = d/dt and the
    solution is x = gamma*y + beta*y' + h(D) y.  The derivative uses
    second-order central differences (one sided at the ends).  ``plan``
    is ``invert_to_plan(kernel)``, built here when not given.

    Returns (x, boundary_residual) where the residual is |y(L)|, the size
    of the neglected tail at the truncated upper limit.
    """
    _require_decaying_kernel(kernel)
    y = np.asarray(y, dtype=complex)
    if y.shape != (grid.dim,):
        raise InvalidInputError("data length does not match the grid")
    if plan is None:
        plan = invert_to_plan(kernel)
    dy = np.gradient(y, grid.dt, edge_order=2)
    x = plan.gamma * y + plan.beta * dy + _apply_remainder(plan, grid, y)
    return x, float(abs(y[-1]))


def forward_exponential_volterra(kernel: ResolventSeries, x: np.ndarray,
                                 grid: GridDerivativeOperator) -> np.ndarray:
    """Forward map y(t) = int_t^L k(s-t) x(s) ds = f(D) x on the grid."""
    _require_decaying_kernel(kernel)
    return apply_series(kernel, grid, np.asarray(x, dtype=complex))


# --- even exponential-sum convolution on a periodic grid --------------------


def convolution_series(terms) -> ResolventSeries:
    """The series {(-2i b_j beta_j, beta_j^2)} of an even kernel
    sum_j b_j exp(-i beta_j |t|), checked against the theorem's hypotheses
    (Im beta_j < 0, positive mapped coefficients, pole hull off [0, inf))."""
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
    hull = convex_hull(series.poles)
    ok, _ = hull_separated_from(hull, PositiveHalfLine())
    if not ok:
        raise SeparationError(
            "hull of squared frequencies touches the positive real axis")
    return series


def _squared_frequencies(n: int, period: float) -> np.ndarray:
    """xi^2 for the angular frequencies xi = 2 pi k / period of the DFT."""
    xi = np.fft.fftfreq(n, d=period / (2.0 * np.pi * n))
    xi *= xi
    return xi


def solve_even_convolution(terms, y: np.ndarray, period: float,
                           plan: InversionPlan | None = None) -> np.ndarray:
    """Solve int k1(s-t) x(s) ds = y(t) on a periodic grid.

    The even kernel is k1(t) = sum_j b_j exp(-i beta_j |t|) with
    Im beta_j < 0.  In frequency space the operator is f(xi^2) with the
    mapped series {(-2i b_j beta_j, beta_j^2)}, so the solution is the
    elementwise product (gamma + beta xi^2 + h(xi^2)) * fft(y), transformed
    back.  ``plan`` is ``invert_to_plan(convolution_series(terms))``,
    built here when not given.
    """
    series = convolution_series(terms)
    if plan is None:
        plan = invert_to_plan(series)
    y = np.asarray(y, dtype=complex)
    s = _squared_frequencies(y.size, period)
    _check_symbol_gap(plan.zeros, s)
    return np.fft.ifft(plan.evaluate_scalar(s) * np.fft.fft(y))


def forward_even_convolution(terms, x: np.ndarray,
                             period: float) -> np.ndarray:
    """Forward periodic convolution: f(xi^2) * fft(x), transformed back."""
    series = convolution_series(terms)
    x = np.asarray(x, dtype=complex)
    s = _squared_frequencies(x.size, period)
    _check_symbol_gap(series.poles, s)
    return np.fft.ifft(sum(a / (alpha - s) for a, alpha in series.terms)
                       * np.fft.fft(x))


# --- recursive filters on periodic signals ----------------------------------


def _unit_roots(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


def _nearest_unit_roots(poles, sym: np.ndarray) -> np.ndarray:
    """The sample of the roots of unity ``sym`` nearest each pole: the one
    closest in angle, found without a pass over the n samples."""
    n = sym.size
    turns = np.angle(np.asarray(poles, dtype=complex)) / (2.0 * np.pi)
    return sym[np.rint(n * turns).astype(int) % n]


def forward_filter(spec: FilterSpec, x: np.ndarray) -> np.ndarray:
    """Run the difference equation on a length-n periodic signal.

    In frequency space y_hat = (q/p)(omega) * x_hat at each DFT frequency;
    the characteristic polynomial must not vanish at any grid frequency.
    """
    x = np.asarray(x, dtype=complex)
    omega = _unit_roots(x.size)
    p = npp.polyval(omega, spec.c)
    if negligible(np.min(np.abs(p)), magnitude(spec.c), rtol=SPECTRUM_EPS):
        raise SingularTransferError(
            "characteristic polynomial vanishes at a grid frequency")
    q = npp.polyval(omega, (0j,) + spec.b)
    return np.fft.ifft(np.fft.fft(x) * q / p)


def invert_filter(spec: FilterSpec, y: np.ndarray,
                  plan: InversionPlan | None = None) -> np.ndarray:
    """Recover the input signal of a recursive filter from its output.

    Requires the residue expansion of the transfer function to have
    positive coefficients and the root hull to avoid the unit circle; then
    x = -gamma T^{-1} y - beta y - h(T) T^{-1} y with the shift T realized
    through its DFT symbol.  ``plan`` is the inversion plan of
    ``filter_to_series(spec)``'s series, built here when not given; see
    :func:`solve_filter` for the solve itself.
    """
    series, report = filter_to_series(spec)
    if not report.theorem_mode_ok:
        raise HypothesisError(
            "transfer-function residues are not real positive")
    hull = convex_hull(series.poles)
    ok, _ = hull_separated_from(hull, UnitCircle())
    if not ok:
        raise SeparationError(
            "root hull of the characteristic polynomial meets the unit circle")
    if plan is None:
        plan = invert_to_plan(series)
    return solve_filter(plan, y)


def solve_filter(plan: InversionPlan, y: np.ndarray) -> np.ndarray:
    """:func:`invert_filter` without its checks of the filter: only the
    plan's poles are checked, against the roots of unity."""
    y = np.asarray(y, dtype=complex)
    sym = _unit_roots(y.size)
    _check_symbol_gap(plan.zeros, _nearest_unit_roots(plan.zeros, sym))
    what = -np.fft.fft(y) / sym  # -T^{-1} y in frequency space
    xhat = plan.evaluate_scalar(sym) * what
    return np.fft.ifft(xhat)
