import numpy as np
import pytest

from resolvinv.errors import (
    HypothesisError,
    SeparationError,
    SingularResolventError,
    SingularTransferError,
)
from resolvinv.operators import forward_filter, invert_filter, solve_filter
from resolvinv.rational import FilterSpec, Polynomial, invert_to_plan
from resolvinv.series import ResolventSeries


def random_invertible_filter(rng, order):
    """Filter whose transfer residues are positive and whose characteristic
    roots stay inside the unit disk, so inversion is admissible."""
    while True:
        roots = (rng.uniform(-0.7, 0.7, order)
                 + 1j * rng.uniform(-0.7, 0.7, order))
        if all(abs(roots[i] - roots[j]) > 0.05
               for i in range(order) for j in range(i + 1, order)):
            break
    a = rng.uniform(0.2, 1.0, order)
    p = Polynomial.from_roots(roots)
    # q~(z) = sum_j a_j prod_{i != j} (z - z_i), so q~(z_j)/p'(z_j) = a_j
    qt = Polynomial((0.0,))
    for j in range(order):
        term = Polynomial((a[j],))
        for i in range(order):
            if i != j:
                term = term * Polynomial((-roots[i], 1.0))
        qt = qt + term
    return FilterSpec(p.coeffs, qt.coeffs)


def circulant_filter_matrix(spec, n):
    """Oracle: dense circulant system c_N x(m+N) + ... + c_0 x(m) summed
    against y-side coefficients, solved directly."""
    C = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for k, ck in enumerate(spec.c):
            C[m, (m + k) % n] += ck
        for k, bk in enumerate(spec.b, start=1):
            B[m, (m + k) % n] += bk
    return C, B


class TestForwardFilter:
    def test_identity_transfer(self):
        # c = (0, 1), b = (1,): p = z, q = z, so q/p = 1 and y = x
        spec = FilterSpec((0.0, 1.0), (1.0,))
        rng = np.random.default_rng(1)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.allclose(forward_filter(spec, x), x, atol=1e-12)

    def test_against_circulant_oracle(self):
        # the difference equation sum_k c_k y(m+k) = sum_k b_k x(m+k)
        # becomes C y = B x on periodic signals
        rng = np.random.default_rng(3)
        spec = random_invertible_filter(rng, 3)
        n = 64
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = forward_filter(spec, x)
        C, B = circulant_filter_matrix(spec, n)
        y_ref = np.linalg.solve(C, B @ x)
        assert np.max(np.abs(y - y_ref)) < 1e-10 * np.max(np.abs(y_ref))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        spec = random_invertible_filter(rng, 2)
        x1 = rng.standard_normal(48)
        x2 = rng.standard_normal(48)
        lhs = forward_filter(spec, 2.0 * x1 + 3.0 * x2)
        rhs = 2.0 * forward_filter(spec, x1) + 3.0 * forward_filter(spec, x2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_singular_transfer_rejected(self):
        # p(z) = z - 1 vanishes at the DFT frequency omega = 1
        spec = FilterSpec((-1.0, 1.0), (1.0,))
        with pytest.raises(SingularTransferError):
            forward_filter(spec, np.ones(16))


class TestInvertFilter:
    def test_first_order_closed_form(self):
        # c1 y(m+1) + c0 y(m) = b1 x(m+1)
        #   =>  x(m) = (c1/b1) y(m) + (c0/b1) y(m-1)
        c0, c1, b1 = -0.5, 1.0, 1.0
        spec = FilterSpec((c0, c1), (b1,))
        rng = np.random.default_rng(7)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        x = invert_filter(spec, y)
        expect = (c1 / b1) * y + (c0 / b1) * np.roll(y, 1)
        assert np.max(np.abs(x - expect)) < 1e-12 * np.max(np.abs(expect))

    def test_impulse_round_trip(self):
        spec = FilterSpec((-0.5, 1.0), (1.0,))
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        y = forward_filter(spec, x)
        x_rec = invert_filter(spec, y)
        assert np.max(np.abs(x_rec - x)) < 1e-12

    def test_random_round_trips(self):
        rng = np.random.default_rng(9)
        for order in (1, 2, 3, 4):
            spec = random_invertible_filter(rng, order)
            x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
            y = forward_filter(spec, x)
            x_rec = invert_filter(spec, y)
            err = np.linalg.norm(x_rec - x) / np.linalg.norm(x)
            assert err < 1e-9, f"order {order}: {err}"

    def test_zero_output_zero_input(self):
        spec = FilterSpec((-0.5, 1.0), (1.0,))
        assert np.allclose(invert_filter(spec, np.zeros(16)), 0.0)

    def test_negative_residue_rejected(self):
        # residues of q/(z p) at the roots of p are (2, -3): not admissible
        spec = FilterSpec((-2.0, 3.0, -1.0), (1.0, 1.0))
        with pytest.raises(HypothesisError):
            invert_filter(spec, np.zeros(16))

    def test_root_hull_meeting_circle_rejected(self):
        # single characteristic root at z = 1 lies on the unit circle
        spec = FilterSpec((-1.0, 1.0), (1.0,))
        with pytest.raises(SeparationError):
            invert_filter(spec, np.zeros(16))

    def test_passed_plan_pole_on_unit_circle_rejected(self):
        # the plan of ((1, 0.5), (1, 1.5)) has its one pole at z = 1, a
        # root of unity; applying it used to return NaN without an error
        plan = invert_to_plan(ResolventSeries(((1, 0.5), (1, 1.5))))
        assert plan.zeros.tolist() == [1 + 0j]
        with pytest.raises(SingularResolventError):
            solve_filter(plan, np.ones(8))


@pytest.mark.parametrize("n", [2, 3, 8, 17, 4096])
def test_nearest_unit_root_matches_a_full_scan(n):
    # invert_filter's gap check looks up each pole's nearest root of unity
    # by angle instead of scanning the n samples
    from resolvinv.operators import PeriodicShiftOperator, _nearest_unit_roots

    rng = np.random.default_rng(n)
    poles = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    sym = PeriodicShiftOperator(n).symbol
    got = np.abs(poles - _nearest_unit_roots(poles, sym))
    want = np.min(np.abs(poles[:, None] - sym[None, :]), axis=1)
    assert np.array_equal(got, want)
