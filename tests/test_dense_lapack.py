"""The dense resolvent layer against the ``lu_factor``/``lu_solve`` loop:
one batched ``np.linalg.solve`` per plan up to ``_BATCHED_DIM`` rows, one
``zgetrf`` per shift and one ``zgetrs`` per solve above, the typed
errors that take the place of the wrappers' checks, and the pole rule
that the batched path settles without eigenvalues."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_theorem_series
from resolvinv.errors import (
    ConditioningError,
    InvalidInputError,
    SingularResolventError,
)
from resolvinv.operators import (
    _BATCHED_DIM,
    DenseMatrixOperator,
    apply_plan,
    apply_series,
)
from resolvinv.rational import InversionPlan, invert_to_plan
from resolvinv.regularize import (
    RegularizerConfig,
    convergence_sweep,
    regularized_apply,
)
from resolvinv.series import ResolventSeries


class LuLoop:
    """The reference: one ``lu_factor`` of alpha*I - A per shift and one
    ``lu_solve`` per solve, summed as the dense ``apply_plan`` does."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.eye = np.eye(matrix.shape[0], dtype=complex)

    def solve(self, alpha, v):
        lu = scipy.linalg.lu_factor(alpha * self.eye - self.matrix)
        return scipy.linalg.lu_solve(lu, v)

    def plan(self, plan, v):
        h = np.zeros_like(v)
        for zk, ck in zip(plan.zeros, plan.residues):
            h += ck * self.solve(zk, v)
        out = plan.gamma * v
        if plan.beta != 0:
            out = out + plan.beta * (self.matrix @ v)
        return out + h

    def series(self, series, v):
        return sum(a * self.solve(alpha, v) for a, alpha in series.terms)


def _problem(seed, n, k):
    """A with ||A||_2 = 1, a theorem-mode series with poles in
    [4, 5] + [0, 1]i (at least 3 from the spectrum), and v of shape (n,) for
    k = 0 or (n, k)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m /= np.linalg.norm(m, 2)
    series = random_theorem_series(rng, 1, 5, center=4.0)
    shape = (n, k) if k else (n,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return m, series, v


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 2 * _BATCHED_DIM + 8),
       k=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_matches_the_lu_factor_loop(seed, n, k):
    m, series, v = _problem(seed, n, k)
    plan = invert_to_plan(series)
    ref = LuLoop(m)
    A = DenseMatrixOperator(m)
    for alpha in series.poles:
        _assert_close(A.resolvent_solve(alpha, v), ref.solve(alpha, v))
    _assert_close(apply_plan(plan, A, v), ref.plan(plan, v))
    _assert_close(apply_series(series, A, v), ref.series(series, v))


def test_dense_path_calls_no_scipy_wrapper(monkeypatch):
    m, series, v = _problem(7, 12, 0)
    plan = invert_to_plan(series)
    A = DenseMatrixOperator(m)
    cfg = RegularizerConfig((1e-2, 1e-4))

    def refuse(*args, **kwargs):
        raise AssertionError("scipy wrapper or np.eye called")

    for name in ("lu_factor", "lu_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(np, "eye", refuse)
    A.resolvent_solve(series.poles[0], v)
    apply_plan(plan, A, v)
    apply_series(series, A, np.stack([v, v], axis=1))
    regularized_apply(plan, A, 1e-3, v)
    convergence_sweep(series, plan, A, v, cfg)


class TestTypedErrors:
    @pytest.fixture
    def problem(self):
        m, series, v = _problem(3, 6, 0)
        return DenseMatrixOperator(m), series, invert_to_plan(series)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.nan)])
    @pytest.mark.parametrize("call", [
        lambda A, s, p, v: A.resolvent_solve(s.poles[0], v),
        lambda A, s, p, v: apply_plan(p, A, v),
        lambda A, s, p, v: apply_plan(replace(p, zeros=p.zeros[:0],
                                              residues=p.residues[:0]), A, v),
        lambda A, s, p, v: apply_series(s, A, v),
        lambda A, s, p, v: regularized_apply(p, A, 1e-3, v),
        lambda A, s, p, v: convergence_sweep(s, p, A, v,
                                             RegularizerConfig((1e-3,))),
    ], ids=["resolvent_solve", "apply_plan", "plan_without_zeros",
            "apply_series", "regularized_apply", "convergence_sweep"])
    @pytest.mark.parametrize("k", [0, 2])
    def test_nonfinite_vector(self, problem, call, bad, k):
        A, series, plan = problem
        v = np.ones((A.dim, k) if k else A.dim, dtype=complex)
        v[2] = bad
        with pytest.raises(InvalidInputError):
            call(A, series, plan, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.0, np.nan)])
    @pytest.mark.parametrize("n", [2, 6, _BATCHED_DIM + 4])
    def test_nonfinite_matrix(self, bad, n):
        # refused when built, on either side of the batched rows: a solve,
        # the SVD or the eigenvalues would end in numpy's untyped
        # LinAlgError
        m = np.diag(6.0 + np.arange(n)).astype(complex)
        m[n // 3, n - 2] = bad
        with pytest.raises(InvalidInputError,
                           match="matrix has a NaN or infinite entry"):
            DenseMatrixOperator(m)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, complex(1, np.nan)])
    def test_nonfinite_shift(self, problem, alpha):
        A, _, _ = problem
        with pytest.raises(InvalidInputError):
            A.resolvent_solve(alpha, np.ones(A.dim))

    @pytest.mark.parametrize("n", [_BATCHED_DIM, _BATCHED_DIM + 1])
    def test_exactly_singular_shift(self, monkeypatch, n):
        # J = 2I + N, a Jordan block: 2I - J = -N has an exactly zero pivot.
        # The pole check passes against eigenvalues moved far away, so the
        # solve itself must stop there, on either side of the batched rows
        A = DenseMatrixOperator(2.0 * np.eye(n) + np.eye(n, k=1))
        monkeypatch.setattr(A, "eigenvalues", lambda: np.array([100.0 + 0j]))
        plan = InversionPlan(0j, 0j, np.array([5.0, 2.0], dtype=complex),
                             np.ones(2, dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularResolventError, match=r"\(2\+0j\)"):
                A.resolvent_solve(2.0, np.ones(n))
            with pytest.raises(SingularResolventError, match=r"\(2\+0j\)"):
                apply_plan(plan, A, np.ones((n, 2)))
        # the failed factorisation is not cached
        assert 2.0 not in A._lu_cache


# --- the pole rule without eigenvalues --------------------------------------
# Up to _BATCHED_DIM rows an operator whose eigenvalues are not cached
# settles the pole rule from the norms of the inverses (z_k I - A)^{-1},
# computing the eigenvalues only for a zero that bound leaves open: it
# must decide as the rule on cached eigenvalues does, with the same bits.


def _test_matrix(rng, kind, n):
    """A normal, a strongly non-normal or a Jordan matrix of n rows."""
    if kind == "jordan":
        return (1.0 + 1.0j) * np.eye(n) + np.eye(n, k=1)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(g)[0]
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "normal":
        return (q * d) @ q.conj().T
    return q @ (np.diag(d) + 10.0 * np.triu(g, 1)) @ q.conj().T


def _outcome(A, plan, v):
    """The bits of the plan applied to v, or the type of the error."""
    try:
        return apply_plan(plan, A, v).view(np.uint64)
    except (SingularResolventError, ConditioningError) as exc:
        return type(exc)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, _BATCHED_DIM),
       kind=st.sampled_from(["normal", "nonnormal", "jordan"]),
       scale=st.sampled_from([-500, -17, 0, 33, 500]),
       k=st.sampled_from([0, 1, 3]), zeros=st.integers(1, 11))
@settings(max_examples=300, deadline=None)
def test_a_fresh_operator_decides_the_pole_rule_as_its_eigenvalues_do(
        seed, n, kind, scale, k, zeros):
    # zeros planted from computed eigenvalues at scales 2^-500 to 2^500:
    # the first 1e-16 to 10 relative, about one in three on the spectrum
    # by the rule, the others 1e-6 to 10, so that most plans are solved
    rng = np.random.default_rng(seed)
    m = _test_matrix(rng, kind, n) * 2.0 ** scale
    eig = np.linalg.eigvals(m)
    rel = 10.0 ** np.append(rng.uniform(-16.0, 1.0),
                            rng.uniform(-6.0, 1.0, zeros - 1))
    turn = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, zeros))
    z = eig[rng.integers(0, n, zeros)] * (1.0 + rel * turn)
    c = rng.standard_normal((3, zeros)) + 1j * rng.standard_normal((3, zeros))
    plan = InversionPlan(c[0, 0], c[1, 0], z, c[2])
    shape = (n, k) if k else (n,)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cached = DenseMatrixOperator(m)
    cached.eigenvalues()
    want = _outcome(cached, plan, v)
    got = _outcome(DenseMatrixOperator(m), plan, v)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


def _refuse_eigvals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)


def _count_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(m):
        calls.append(m)
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return calls


@pytest.mark.parametrize("m", [2, 4, 8, 12])
def test_a_plan_scaling_apply_computes_no_eigenvalues(monkeypatch, m):
    # the benchmark's shape: 16 x 16, Q T Q^H with the eigenvalues planted
    # on a ring at least 1 outside the hull of m random poles
    rng = np.random.default_rng(m)
    poles = rng.uniform(0, 1, m) + 1j * rng.uniform(0, 1, m)
    series = ResolventSeries(tuple(zip(rng.uniform(0.1, 1.0, m), poles)))
    radius = np.max(np.abs(poles - poles.mean()))
    ring = radius + 1.0 + rng.uniform(0, 1, 16)
    eig = poles.mean() + ring * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
    q = np.linalg.qr(rng.standard_normal((16, 16))
                     + 1j * rng.standard_normal((16, 16)))[0]
    t = np.diag(eig) + 0.05 * (1.0 + radius) * np.triu(
        rng.standard_normal((16, 16)), 1)
    matrix = q @ t @ q.conj().T
    plan = invert_to_plan(series)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    cached = DenseMatrixOperator(matrix)
    want = apply_plan(plan, cached, v)
    _refuse_eigvals(monkeypatch)
    got = apply_plan(plan, DenseMatrixOperator(matrix), v)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_an_open_zero_computes_the_eigenvalues_once(monkeypatch):
    # the zero 2 (1 + 2e-10) passes the rule (gap 4e-10 > 2e-10), but its
    # inverse's norm, 2.5e9, is too large for the resolvent bound
    A = DenseMatrixOperator(np.diag([1.0, 2.0, 3.0, 4.0]))
    plan = InversionPlan(0j, 0j, np.array([2.0 * (1 + 2e-10), 7.0 + 0j]),
                         np.ones(2, dtype=complex))
    calls = _count_eigvals(monkeypatch)
    apply_plan(plan, A, np.ones(4))
    apply_plan(plan, A, np.ones(4))
    assert len(calls) == 1
    assert A._eigvals is not None


def test_a_plan_of_at_least_n_zeros_takes_the_eigenvalues(monkeypatch):
    A = DenseMatrixOperator(np.diag([1.0, 2.0, 3.0]))
    plan = InversionPlan(0j, 0j, np.array([7.0, 8.0, 9.0 + 1j]),
                         np.ones(3, dtype=complex))

    def refuse(*args, **kwargs):
        raise AssertionError("the inverses' norms taken")

    monkeypatch.setattr(DenseMatrixOperator, "_certified", refuse)
    calls = _count_eigvals(monkeypatch)
    apply_plan(plan, A, np.ones(3))
    assert len(calls) == 1


@pytest.mark.parametrize("e", [-600, 0, 600])
def test_the_resolvent_bound_is_taken_in_frames(monkeypatch, e):
    # at 2^600 the squares of the inverse's entries underflow, at 2^-600
    # they overflow: taken in their frame, the norms decide at every scale
    # as at 1, the far zero with no eigenvalues, the near one by the rule
    s = 2.0 ** e
    A = DenseMatrixOperator(s * np.diag([1.0, 2.0, 3.0]))
    with monkeypatch.context() as patch:
        _refuse_eigvals(patch)
        w = A.resolvent_solve(s * (1.0 + 1e-3), np.ones(3))
    np.testing.assert_allclose(w[0] * s, 1e3, rtol=1e-9)
    with pytest.raises(SingularResolventError, match="spectrum"):
        A.resolvent_solve(s * (1.0 + 0.5e-10), np.ones(3))


def test_an_exactly_singular_shift_names_its_pole_for_a_block():
    # 2I - A has an exactly zero pivot: on a fresh operator the failed solve
    # runs the rule, which names the pole, for a block v as
    # test_dense_checks_every_pole_before_it_factors_one has it for a 1-d v
    # (test_exactly_singular_shift has the solve's own error)
    A = DenseMatrixOperator(np.diag([1.0, 2.0, 3.0]))
    plan = InversionPlan(0j, 0j, np.array([5.0, 2.0], dtype=complex),
                         np.ones(2, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolventError,
                           match=r"pole \(2\+0j\) lies on"):
            apply_plan(plan, A, np.ones((3, 2)))
