"""The dense resolvent layer against the ``lu_factor``/``lu_solve`` loop:
one batched ``np.linalg.solve`` per plan up to ``_BATCHED_DIM`` rows, one
``zgetrf`` per shift and one ``zgetrs`` per solve above, and the typed
errors that take the place of the wrappers' checks."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_theorem_series
from resolvinv.errors import InvalidInputError, SingularResolventError
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
