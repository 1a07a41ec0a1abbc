import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from conftest import planted_filter
from resolvinv.errors import (
    ConditioningError,
    HypothesisError,
    SeparationError,
    SingularResolventError,
)
from resolvinv.operators import forward_filter, invert_filter, solve_filter
from resolvinv.rational import FilterSpec, invert_to_plan
from resolvinv.series import ResolventSeries

EPS = np.finfo(float).eps


def random_invertible_filter(rng, order):
    """Filter whose transfer residues are positive and whose characteristic
    roots stay inside the unit disk, so inversion is admissible."""
    while True:
        roots = (rng.uniform(-0.7, 0.7, order)
                 + 1j * rng.uniform(-0.7, 0.7, order))
        if all(abs(roots[i] - roots[j]) > 0.05
               for i in range(order) for j in range(i + 1, order)):
            break
    return planted_filter(roots, rng.uniform(0.2, 1.0, order))


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
        with pytest.raises(SingularResolventError):
            forward_filter(spec, np.ones(16))

    @pytest.mark.parametrize("roots", [(0.5, 1.0), (-0.5, 1j)])
    def test_root_on_a_root_of_unity_rejected(self, roots):
        # a root of unity of order 16, solved after the root +-0.5
        spec = FilterSpec(tuple(np.poly(roots)[::-1]), (1.0, 0.5))
        with pytest.raises(SingularResolventError):
            forward_filter(spec, np.ones(16))

    def test_repeated_root_filtered(self):
        # p(z) = (z - 0.5)^2: the companion eigenvalues split the double
        # root, and the cascade solves at both; invert_filter rejects it
        spec = FilterSpec((0.25, -1.0, 1.0), (1.0, 0.0))
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        C, B = circulant_filter_matrix(spec, 16)
        y_ref = np.linalg.solve(C, B @ x)
        y = forward_filter(spec, x)
        assert np.max(np.abs(y - y_ref)) < 1e-13 * np.max(np.abs(y_ref))

    @pytest.mark.parametrize("c, b, x, y", [
        # q(T)x / c_N is 1e320: b_1 x / (c_0 + c_1) = 1e300 is the result
        ((1e10, 1e-10), (1e300,), 1e10, 1e300),
        # c_0 / c_N is 1e320, the roots +-1e160 i: (1 + 1) / (1 + 1e-320)
        ((1.0, 0.0, 1e-320), (1.0, 1.0), 1.0, 2.0),
    ])
    def test_intermediates_past_the_float_range(self, c, b, x, y):
        # a constant signal meets only omega = 1: y = x q(1) / p(1)
        got = forward_filter(FilterSpec(c, b), np.full(16, x))
        assert np.allclose(got, y, rtol=4 * EPS, atol=0)

    def test_root_past_the_float_range(self):
        # c_0 / c_1 = 1e310: the characteristic root is no float
        with pytest.raises(ConditioningError,
                           match="characteristic roots exceed"):
            forward_filter(FilterSpec((1.0, 1e-310), (1.0,)), np.ones(16))

    @pytest.mark.parametrize("eb, ec, ex", [(500, -300, -400),
                                            (-600, 400, 900), (0, 0, -1000),
                                            (80, -70, 0)])
    def test_power_of_two_scaling_changes_no_bit(self, eb, ec, ex):
        # x, b and c are taken in power-of-two frames: scaling the data by
        # powers of two scales the result and changes no bit
        rng = np.random.default_rng(6)
        x = rng.standard_normal(37) + 1j * rng.standard_normal(37)
        spec = FilterSpec((0.2, -0.3j, 1.5), (1.0, 0.5))
        y = forward_filter(spec, x)
        scaled = FilterSpec(tuple(c * 2.0 ** ec for c in spec.c),
                            tuple(b * 2.0 ** eb for b in spec.b))
        got = forward_filter(scaled, x * 2.0 ** ex)
        assert np.array_equal(got * 2.0 ** -(eb - ec + ex), y)


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
    from resolvinv.operators import _nearest_unit_roots

    rng = np.random.default_rng(n)
    poles = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    sym = np.exp(2j * np.pi * np.arange(n) / n)
    got = np.abs(poles - _nearest_unit_roots(poles, n))
    want = np.min(np.abs(poles[:, None] - sym[None, :]), axis=1)
    assert np.array_equal(got, want)


# a characteristic root inside the unit circle, |z| <= 0.9, or outside it,
# 1.1 <= |z| <= 3, at a turn of the circle; the roots are then pulled
# toward the first one by a factor: 0 repeats it, 1e-3 makes a cluster
_ROOTS = st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0),
                            st.floats(0.0, 1.0)), min_size=1, max_size=8)
_PULL = st.sampled_from([1.0, 0.3, 1e-2, 1e-3, 0.0])
_COEFFICIENT = st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0)


@settings(max_examples=200, deadline=None)
@given(roots=_ROOTS, pull=_PULL, top=_COEFFICIENT,
       b=st.lists(_COEFFICIENT, min_size=8, max_size=8),
       n=st.sampled_from([1, 2, 3, 16, 4097]), seed=st.integers(0, 2 ** 32))
@example(roots=[(False, 0.5 / 0.9, 0.0), (False, 0.0, 0.0)], pull=0.0,
         top=1 + 0j, b=[1 + 0j] * 8, n=16, seed=0)  # p(z) = (z - 0.5)^2
def test_forward_filter_matches_the_transfer_function(roots, pull, top, b, n,
                                                      seed):
    # the reference: (q/p)(omega) at the roots of unity by np.exp, applied
    # between an FFT pair. Both routes round q and p on the circle, to
    # sigma = max_omega (sum_l |b_l| / |q(omega)| + sum_k |c_k| / |p(omega)|)
    # eps relative; the companion eigenvalues are the roots of a p rounded
    # so, however clustered or repeated. kappa, the spread of |q/p| on the
    # circle, takes an error relative to each frequency's term to one
    # relative to the largest output sample
    z = np.array([(1.1 + 1.9 * r if out else 0.9 * r) * np.exp(2j * np.pi * t)
                  for out, r, t in roots])
    z = z[0] + pull * (z - z[0])
    assume(np.abs(np.abs(z) - 1.0).min() >= 0.05)
    c = top * np.poly(z)[::-1]
    spec = FilterSpec(tuple(c), tuple(b[:z.size]))
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    q = P.polyval(omega, (0,) + spec.b)
    p = P.polyval(omega, c)
    assume(np.abs(q).min() > 0)
    h = q / p
    kappa = np.abs(h).max() / np.abs(h).min()
    sigma = (np.abs(spec.b).sum() / np.abs(q)
             + np.abs(c).sum() / np.abs(p)).max()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = np.fft.ifft(np.fft.fft(x) * h)
    got = forward_filter(spec, x)
    assert (np.abs(got - want).max()
            <= 16 * kappa * sigma * EPS * np.abs(want).max())
