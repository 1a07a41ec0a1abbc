"""The one pole rule of every operator: a pole that is not finite is an
input error, and a pole p is on the spectrum when
min_s |p - s| <= SPECTRUM_EPS * |p| over the operator's spectrum samples s,
the same bound the admissibility gate uses.  Numpy's RuntimeWarnings are
errors in this module: a bad pole must end in a typed error, never in a
numpy warning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvinv.errors import (
    ConditioningError,
    InvalidInputError,
    SeparationError,
    SingularResolventError,
)
from resolvinv.geometry import PointSpectrum, PositiveHalfLine
from resolvinv.operators import (
    DenseMatrixOperator,
    GridDerivativeOperator,
    MultiplierOperator,
    PeriodicShiftOperator,
    _squared_frequencies,
    apply_series,
    convolution_series,
    solve_convolution,
    solve_even_convolution,
    solve_filter,
)
from resolvinv.rational import InversionPlan, checked_plan
from resolvinv.series import ResolventSeries, require_admissible
from resolvinv.tolerance import SPECTRUM_EPS, negligible

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N = 8
BACKENDS = {
    "dense": lambda: DenseMatrixOperator(
        np.diag(-1.0 - np.arange(N) / N) + np.diag(0.1 * np.ones(N - 1), 1)),
    "multiplier": lambda: MultiplierOperator(
        -1.0 - np.arange(N) / N + 0.5j * np.sin(np.arange(N))),
    "grid": lambda: GridDerivativeOperator(0.0, 2.0, N),
    "shift": lambda: PeriodicShiftOperator(N),
}
# an even kernel whose mapped series passes the convolution gate
CONV_TERMS = [(-0.5, -1j), (0.25j / (1.5 - 0.5j), 1.5 - 0.5j)]
NONFINITE = [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
             complex(0.0, -np.inf)]


def _plan(*zeros):
    return InversionPlan(0j, 0j, np.array(zeros, dtype=complex),
                         np.ones(len(zeros), dtype=complex))


def _unchecked_series(*poles):
    """A series holding the given poles, built without the constructor's
    finiteness check: apply_series must not rely on it."""
    series = object.__new__(ResolventSeries)
    object.__setattr__(series, "terms", tuple((1 + 0j, complex(p))
                                              for p in poles))
    return series


CALLS = {
    "apply_plan": lambda A, bad: A.apply_plan(_plan(3.0, bad), np.ones(N)),
    "resolvent_solve": lambda A, bad: A.resolvent_solve(bad, np.ones(N)),
    "apply_series": lambda A, bad: apply_series(
        _unchecked_series(3.0, bad), A, np.ones(N)),
}


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_nonfinite_pole_is_an_invalid_input_on_every_operator(backend, call,
                                                              bad):
    with pytest.raises(InvalidInputError, match="not finite"):
        CALLS[call](BACKENDS[backend](), bad)


@pytest.mark.parametrize("bad", NONFINITE)
def test_nonfinite_pole_is_an_invalid_input_in_the_free_solves(bad):
    with pytest.raises(InvalidInputError, match="not finite"):
        solve_convolution(_plan(-1.0, bad), np.ones(N), 8.0)
    with pytest.raises(InvalidInputError, match="not finite"):
        solve_filter(_plan(3.0, bad), np.ones(N))


# --- the boundary of the rule -------------------------------------------
# A pole at relative distance 0.5e-10 from one spectrum sample is on the
# spectrum, one at 2e-10 is off it, from every direction, and each decision
# is PointSpectrum's distance against SPECTRUM_EPS * |p|.

def _samples_and_solve(name):
    if name == "convolution":
        return (_squared_frequencies(N, 8.0),
                lambda p: solve_convolution(_plan(p), np.ones(N), 8.0))
    A = BACKENDS[name]()
    samples = A.eigenvalues() if name == "dense" else A.symbol
    return samples, lambda p: A.resolvent_solve(p, np.ones(N))


@pytest.mark.parametrize("rel", [0.5e-10, 2e-10])
@pytest.mark.parametrize("name", ["dense", "multiplier", "shift",
                                  "convolution"])
def test_pole_near_a_sample_is_decided_by_the_one_rule(name, rel):
    samples, solve = _samples_and_solve(name)
    for k in (1, 3, N - 1):
        for turn in np.linspace(0.0, 1.0, 7, endpoint=False):
            p = samples[k] * (1.0 + rel * np.exp(2j * np.pi * turn))
            expect = negligible(PointSpectrum(samples).distance_to(p), p,
                                rtol=SPECTRUM_EPS)
            assert expect == (rel < 1e-10)
            try:
                solve(p)
                got = False
            except SingularResolventError:
                got = True
            assert got == expect


def test_dense_checks_every_pole_before_it_factors_one():
    A = DenseMatrixOperator(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(SingularResolventError, match=r"\(2\+0j\)"):
        A.apply_plan(_plan(5.0, 2.0), np.ones(3))
    assert A._lu_cache == {}


_SPECTRUM = st.lists(
    st.builds(complex, st.floats(-100, 100), st.floats(-100, 100)).filter(
        lambda s: abs(s) > 1e-3), min_size=2, max_size=6)


@settings(max_examples=150, deadline=None)
@given(samples=_SPECTRUM, k=st.integers(0, 5),
       exponent=st.floats(-11.0, -9.0), turn=st.floats(0.0, 1.0),
       second=st.booleans(), dense=st.booleans())
def test_a_series_past_the_gate_passes_every_solves_pole_check(
        samples, k, exponent, turn, second, dense):
    A = (DenseMatrixOperator(np.diag(samples)) if dense
         else MultiplierOperator(samples))
    s = A.spectrum().points[k % len(samples)]
    step = 10.0 ** exponent * np.exp(2j * np.pi * turn)
    poles = [s * (1.0 + step)] + ([s * (1.0 + 3.0 * step)] if second else [])
    series = ResolventSeries(tuple((1.0, p) for p in poles))
    try:
        require_admissible(series, A.spectrum())
    except SeparationError:
        if not second:
            # one pole: the gate and the solve decide alike
            with pytest.raises(SingularResolventError):
                apply_series(series, A, np.ones(len(samples)))
        return
    apply_series(series, A, np.ones(len(samples)))


# --- degenerate Fourier-diagonal inputs ---------------------------------

def test_empty_symbol_is_an_invalid_input():
    with pytest.raises(InvalidInputError, match="nonempty"):
        MultiplierOperator([])


@pytest.mark.parametrize("y, period", [
    (np.ones(0), 8.0), (np.ones(N), 0.0), (np.ones(N), -1.0),
    (np.ones(N), np.nan), (np.ones(N), np.inf)],
    ids=["empty", "zero", "negative", "nan", "inf"])
def test_convolution_rejects_an_empty_signal_or_a_bad_period(y, period):
    plan = checked_plan(convolution_series(CONV_TERMS), PositiveHalfLine())
    with pytest.raises(InvalidInputError, match="period"):
        solve_convolution(plan, y, period)
    with pytest.raises(InvalidInputError, match="period"):
        solve_even_convolution(CONV_TERMS, y, period)


def test_convolution_frequencies_past_the_float_range_raise_without_warning():
    with pytest.raises(ConditioningError, match="float range"):
        solve_even_convolution(CONV_TERMS, np.ones(N), 1e-300)


def test_grid_weights_past_the_float_range_raise_without_warning():
    # alpha^2 underflows, so the weight i1 is 0/0
    grid = GridDerivativeOperator(0.0, 2.0, N)
    with pytest.raises(ConditioningError, match="float range"):
        grid.resolvent_solve(1e-300, np.ones(N))
