import numpy as np
import pytest

from resolvinv import operators
from resolvinv.errors import HypothesisError, SeparationError
from resolvinv.operators import (
    GridDerivativeOperator,
    MultiplierOperator,
    apply_plan,
    convolution_series,
    forward_even_convolution,
    forward_exponential_volterra,
    solve_even_convolution,
    solve_exponential_volterra,
)
from resolvinv.rational import invert_to_plan
from resolvinv.series import ResolventSeries


def quadrature_forward(kernel, x, grid, refine=8):
    """Oracle for y(t) = int_t^L k(s-t) x(s) ds.

    Evaluates the integral with the trapezoid rule on a grid refined
    ``refine``-fold, interpolating x linearly; independent of the
    production per-cell closed-form path.
    """
    t_fine = np.linspace(grid.t[0], grid.t[-1],
                         refine * (grid.dim - 1) + 1)
    x_fine = np.interp(t_fine, grid.t, x.real) + 1j * np.interp(
        t_fine, grid.t, x.imag)
    y = np.empty(grid.dim, dtype=complex)
    for i, t in enumerate(grid.t):
        mask = t_fine >= t - 1e-14
        s = t_fine[mask]
        k = np.zeros_like(s, dtype=complex)
        for a, alpha in kernel.terms:
            k = k + a * np.exp(-alpha * (s - t))
        y[i] = np.trapezoid(k * x_fine[mask], s)
    return y


def bump(t, center=4.0):
    return np.exp(-((t - center) ** 2))


class TestVolterraForward:
    def test_matches_quadrature_oracle(self):
        kernel = ResolventSeries(((1, 1.0), (1, 2.0)))
        grid = GridDerivativeOperator(0.0, 10.0, 401)
        x = bump(grid.t).astype(complex)
        y = forward_exponential_volterra(kernel, x, grid)
        y_ref = quadrature_forward(kernel, x, grid)
        assert np.max(np.abs(y - y_ref)) < 5e-4

    def test_zero_input(self):
        kernel = ResolventSeries(((1, 1.0),))
        grid = GridDerivativeOperator(0.0, 5.0, 101)
        y = forward_exponential_volterra(kernel, np.zeros(101), grid)
        assert np.allclose(y, 0.0)


class TestVolterraSolve:
    def test_single_exponential_round_trip(self):
        kernel = ResolventSeries(((1, 1.0),))
        grid = GridDerivativeOperator(0.0, 10.0, 2001)
        x = bump(grid.t).astype(complex)
        y = forward_exponential_volterra(kernel, x, grid)
        x_rec, tail = solve_exponential_volterra(kernel, y, grid)
        rel = np.linalg.norm(x_rec - x) / np.linalg.norm(x)
        assert rel < 1e-3
        assert tail < 1e-6

    def test_two_term_round_trip(self):
        kernel = ResolventSeries(((1, 1.0), (0.5, 2.0)))
        grid = GridDerivativeOperator(0.0, 10.0, 2001)
        x = bump(grid.t).astype(complex)
        y = forward_exponential_volterra(kernel, x, grid)
        x_rec, _ = solve_exponential_volterra(kernel, y, grid)
        rel = np.linalg.norm(x_rec - x) / np.linalg.norm(x)
        assert rel < 1e-3

    def test_refinement_improves_at_first_order(self):
        kernel = ResolventSeries(((1, 1.0), (1, 2.0)))
        errs = []
        for n in (501, 1001, 2001):
            grid = GridDerivativeOperator(0.0, 10.0, n)
            x = bump(grid.t).astype(complex)
            y = forward_exponential_volterra(kernel, x, grid)
            x_rec, _ = solve_exponential_volterra(kernel, y, grid)
            errs.append(np.linalg.norm(x_rec - x) / np.linalg.norm(x))
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]

    def test_zero_data_gives_zero(self):
        kernel = ResolventSeries(((2, 1.5),))
        grid = GridDerivativeOperator(0.0, 5.0, 301)
        x, tail = solve_exponential_volterra(kernel, np.zeros(301), grid)
        assert np.allclose(x, 0.0)
        assert tail == 0.0

    def test_non_theorem_mode_kernel_rejected(self):
        grid = GridDerivativeOperator(0.0, 5.0, 101)
        with pytest.raises(HypothesisError):
            solve_exponential_volterra(
                ResolventSeries(((-1, 1.0), (2, 2.0))), np.zeros(101), grid)

    def test_growing_kernel_rejected(self):
        grid = GridDerivativeOperator(0.0, 5.0, 101)
        with pytest.raises(HypothesisError):
            solve_exponential_volterra(
                ResolventSeries(((1, -1.0),)), np.zeros(101), grid)

    def test_length_mismatch_rejected(self):
        grid = GridDerivativeOperator(0.0, 5.0, 101)
        with pytest.raises(ValueError):
            solve_exponential_volterra(
                ResolventSeries(((1, 1.0),)), np.zeros(50), grid)


def band_limited_signal(n, period, modes=((1, 1.0), (2, 0.5), (3, 0.25))):
    t = np.linspace(0.0, period, n, endpoint=False)
    x = np.zeros(n, dtype=complex)
    for k, amp in modes:
        x += amp * np.cos(2 * np.pi * k * t / period)
    return x


class TestEvenConvolution:
    def test_single_term_round_trip(self):
        terms = [(-0.5, -1j)]
        x = band_limited_signal(64, 8.0)
        y = forward_even_convolution(terms, x, 8.0)
        x_rec = solve_even_convolution(terms, y, 8.0)
        assert np.max(np.abs(x_rec - x)) < 1e-10 * np.max(np.abs(x))

    def test_two_term_round_trip(self):
        terms = [(-0.5, -1j), (-0.25, -2j)]
        x = band_limited_signal(128, 10.0)
        y = forward_even_convolution(terms, x, 10.0)
        x_rec = solve_even_convolution(terms, y, 10.0)
        assert np.max(np.abs(x_rec - x)) < 1e-10 * np.max(np.abs(x))

    def test_forward_matches_direct_quadrature(self):
        # oracle: periodic trapezoid of int_0^P k1(d(s,t)) x(s) ds with the
        # kernel summed over a few periodic images
        terms = [(-0.5, -1j)]
        period = 8.0
        n = 256
        t = np.linspace(0.0, period, n, endpoint=False)
        x = band_limited_signal(n, period)

        def kernel(u):
            out = np.zeros_like(u, dtype=complex)
            for b, beta in terms:
                for shift in (-2, -1, 0, 1, 2):
                    out += b * np.exp(-1j * beta * np.abs(u + shift * period))
            return out

        y_ref = np.empty(n, dtype=complex)
        dt = period / n
        for i in range(n):
            y_ref[i] = np.sum(kernel(t - t[i]) * x) * dt
        y = forward_even_convolution(terms, x, period)
        assert np.max(np.abs(y - y_ref)) < 1e-3 * np.max(np.abs(y_ref))

    def test_demo_kernel_round_trip_at_2_18(self):
        # the symbol xi^2 reaches ~1e10 here; the pole at -1 stays 1 away
        terms = [(-0.5, -1j)]
        period = 8.0
        n = 2 ** 18
        x = band_limited_signal(n, period)
        y = forward_even_convolution(terms, x, period)
        x_rec = solve_even_convolution(terms, y, period)
        # f(s) = 1/(-1 - s): condition number 1 + max xi^2
        kappa = 1.0 + (np.pi * n / period) ** 2
        err = np.max(np.abs(x_rec - x)) / np.max(np.abs(x))
        assert err <= 10.0 * np.finfo(float).eps * kappa

    def test_one_pass_matches_apply_plan(self):
        rng = np.random.default_rng(3)
        betas = np.array([1.5, 2.5, 3.5]) * np.exp(
            1j * (-np.pi / 2 + np.array([0.1, -0.05, 0.12])))
        terms = list(zip(rng.uniform(0.5, 1.5, 3) / (-2j * betas), betas))
        period, n = 8.0, 256
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = invert_to_plan(convolution_series(terms))
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
        want = np.fft.ifft(apply_plan(plan, MultiplierOperator(xi * xi),
                                      np.fft.fft(y)))
        got = solve_even_convolution(terms, y, period)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(solve_even_convolution(terms, y, period, plan),
                              got)

    @pytest.mark.parametrize("residue", [0.0, 1e-12, 1e-6])
    def test_mapped_series_built_once_and_real(self, residue, monkeypatch):
        # mapped coefficients 1 + i*residue: the imaginary residue is
        # dropped when it passes the DERIVED_EPS theorem-mode test
        built = []

        def counted(terms):
            built.append(terms)
            return ResolventSeries(terms)

        monkeypatch.setattr(operators, "ResolventSeries", counted)
        betas = np.array([1.5, 2.5]) * np.exp(1j * (-np.pi / 2 + 0.1))
        terms = [((1.0 + 1j * residue) / (-2j * beta), beta)
                 for beta in betas]
        if residue > 1e-9:
            with pytest.raises(HypothesisError):
                convolution_series(terms)
            return
        series = convolution_series(terms)
        assert len(built) == 1
        assert all(a.imag == 0.0 for a in series.coefficients)
        assert series.coefficients == pytest.approx((1.0, 1.0), rel=1e-15)

    def test_zero_signal(self):
        terms = [(-0.5, -1j)]
        assert np.allclose(
            solve_even_convolution(terms, np.zeros(32), 4.0), 0.0)

    def test_wrong_half_plane_rejected(self):
        with pytest.raises(HypothesisError):
            solve_even_convolution([(-0.5, 1j)], np.zeros(32), 4.0)

    def test_wrong_sign_amplitude_rejected(self):
        # b = +0.5 maps to a negative series coefficient
        with pytest.raises(HypothesisError):
            solve_even_convolution([(0.5, -1j)], np.zeros(32), 4.0)

    def test_pole_on_positive_axis_rejected(self):
        # beta = -i gives pole beta^2 = -1 (fine); beta = 1 - 0.0001j gives
        # a pole essentially on the positive real axis
        with pytest.raises((SeparationError, HypothesisError)):
            solve_even_convolution(
                [(-0.5 - 0.0001j, 1.0 - 0.0001j)], np.zeros(32), 4.0)
