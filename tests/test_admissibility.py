"""One admissibility gate: ``check``, ``invert`` and the checked library
solvers take the same decision on every first-kind problem."""

import cmath
import json
import math
import warnings

import numpy as np
import pytest

from resolvinv.cli import main
from resolvinv.errors import HypothesisError, SeparationError
from resolvinv.geometry import ImaginaryAxis, PointSpectrum, PositiveHalfLine
from resolvinv.operators import (
    GridDerivativeOperator,
    convolution_series,
    forward_filter,
    invert_filter,
    solve_even_convolution,
    solve_exponential_volterra,
)
from resolvinv.rational import FilterSpec
from resolvinv.serialization import write_signal
from resolvinv.series import (
    ResolventSeries,
    check_admissible,
    require_admissible,
)


def planted_filter(roots, residues) -> FilterSpec:
    """Filter with the given characteristic roots and transfer residues:
    q~(z) = sum_j a_j prod_{i != j} (z - z_i), so q~(z_j) / p'(z_j) = a_j."""
    roots = np.asarray(roots, dtype=complex)
    qt = np.zeros(roots.size, dtype=complex)
    for j, a in enumerate(residues):
        qt += a * np.atleast_1d(np.poly(np.delete(roots, j)))[::-1]
    return FilterSpec(tuple(np.poly(roots)[::-1]), tuple(qt))


def _pairs(values):
    return [[complex(v).real, complex(v).imag] for v in values]


# two roots 1e-5 apart: their residues carry an imaginary rounding residue
# of about 2e-11, inside the DERIVED_EPS theorem-mode test but not EPS
Z0 = 0.3 + 0.1j
CLOSE_ROOTS = [Z0, Z0 + 1e-5 * (1 + 1j), 0.2 - 0.3j, -0.4 + 0.2j]

# convolution kernel b_j exp(-i beta_j |t|) with mapped weights
# -2i b_j beta_j = 1 (b_j = i / (2 beta_j)) and poles beta_j^2 = 0.99 -+ 0.2i,
# whose hull meets [0, inf)
CROSSING_BETAS = [1 - 0.1j, -1 - 0.1j]

GRID = (0.0, 1.0, 16)

# kind -> case -> the filter spec, the convolution terms (b_j, beta_j) or
# the integral kernel (coefficients, exponents)
CASES = {
    "filter": {
        "admissible": planted_filter(CLOSE_ROOTS, np.ones(4)),
        "not_theorem_mode": planted_filter([0.3, -0.4], [1.0, -0.5]),
        "not_separated": planted_filter([0.5, 2.0], [1.0, 1.0]),
    },
    "convolution": {
        "admissible": [(-0.5, -1j)],
        "not_theorem_mode": [(0.5, -1j)],
        "not_separated": [(1j / (2 * b), b) for b in CROSSING_BETAS],
    },
    "integral": {
        "admissible": ((1.0, 1.0), (1.0, 2.0)),
        "not_theorem_mode": ((1.0, -0.5), (1.0, 2.0)),
        "not_separated": ((1.0, 1.0), (1.0, 1j)),
    },
}
# case -> (exit code of check and invert, error of the library solver)
OUTCOMES = {"admissible": (0, None),
            "not_theorem_mode": (2, HypothesisError),
            "not_separated": (2, (SeparationError, HypothesisError))}


def _document(kind, data):
    if kind == "filter":
        return {"kind": "filter", "c": _pairs(data.c), "b": _pairs(data.b)}
    if kind == "convolution":
        return {"kind": "convolution", "period": 8.0,
                "terms": [{"b": _pairs([b])[0], "beta": _pairs([beta])[0]}
                          for b, beta in data]}
    t0, L, n = GRID
    return {"kind": "integral", "grid": {"t0": t0, "L": L, "n": n},
            "kernel": [{"a": _pairs([a])[0], "alpha": _pairs([alpha])[0]}
                       for a, alpha in zip(*data)]}


def _solve(kind, data, y):
    if kind == "filter":
        return invert_filter(data, y)
    if kind == "convolution":
        return solve_even_convolution(data, y, 8.0)
    kernel = ResolventSeries(tuple(zip(*data)))
    x, _ = solve_exponential_volterra(kernel, y, GridDerivativeOperator(*GRID))
    return x


def _check_and_invert(tmp_path, document, y):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(document))
    write_signal(tmp_path / "y.csv", y)
    check = main(["check", str(problem)])
    invert = main(["invert", str(problem), "--input", str(tmp_path / "y.csv"),
                   "--output", str(tmp_path / "x.csv")])
    return check, invert


@pytest.mark.parametrize("case", sorted(OUTCOMES))
@pytest.mark.parametrize("kind", sorted(CASES))
def test_check_invert_and_library_agree(kind, case, tmp_path, capsys):
    data = CASES[kind][case]
    code, error = OUTCOMES[case]
    y = np.linspace(1.0, 0.0, GRID[2])
    assert _check_and_invert(tmp_path, _document(kind, data), y) == (
        code, code)
    capsys.readouterr()
    if error is None:
        assert np.all(np.isfinite(_solve(kind, data, y)))
    else:
        with pytest.raises(error):
            _solve(kind, data, y)


def test_close_root_filter_is_solved(tmp_path, capsys):
    spec = planted_filter(CLOSE_ROOTS, np.ones(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = forward_filter(spec, x)
    x_rec = invert_filter(spec, y)
    assert np.linalg.norm(x_rec - x) <= 1e-10 * np.linalg.norm(x)
    assert _check_and_invert(tmp_path, _document("filter", spec), y) == (0, 0)
    capsys.readouterr()


def test_check_rejects_a_growing_integral_kernel(tmp_path, capsys):
    # exponents -1 and -2: the pole hull is off the imaginary axis, but the
    # kernel grows, so the solve is out of its domain for check and invert
    document = _document("integral", ((1.0, 1.0), (-1.0, -2.0)))
    y = np.ones(GRID[2])
    assert _check_and_invert(tmp_path, document, y) == (2, 2)
    assert "positive real part" in capsys.readouterr().err


def test_convolution_pole_on_the_ray_up_to_rounding(tmp_path, capsys):
    # mapped weights 1 and poles beta_j^2 = 2.25 - 4.5e-20i and -4: the
    # first lies on [0, inf) up to rounding
    terms = [(1j / (2 * b), b) for b in (1.5 * cmath.exp(-1e-20j), -2j)]
    y = np.linspace(1.0, 0.0, GRID[2])
    assert _check_and_invert(tmp_path, _document("convolution", terms),
                             y) == (2, 2)
    capsys.readouterr()
    with pytest.raises(SeparationError):
        _solve("convolution", terms, y)


def test_per_term_distance_uses_the_hull_rounding_rule(tmp_path, capsys):
    # the same kernel: its first pole's distance 4.5e-20 to the ray is
    # rounding at the poles' scale 4, as the hull's distance is, so the
    # pole's summand is inf and not 2.2e19
    terms = [(1j / (2 * b), b) for b in (1.5 * cmath.exp(-1e-20j), -2j)]
    report = check_admissible(convolution_series(terms), PositiveHalfLine())
    assert report.separation_distance == 0.0
    first = report.per_term[0]
    assert (first.spectrum_distance, first.summand) == (0.0, math.inf)
    assert report.summability_value == math.inf
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(_document("convolution", terms)))
    assert main(["check", str(problem)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["per_term"][0]["summand"] == math.inf


@pytest.mark.parametrize("scale", [1.0, 1e308])
def test_separation_near_the_float_range(scale, tmp_path, capsys):
    # poles scale and -i scale, spectrum {0}: the hull is a segment at
    # distance scale / sqrt(2), which the distance kernel reaches without
    # squaring anything past the float range
    document = {"kind": "series",
                "spectrum": {"variant": "point_set", "points": [[0.0, 0.0]]},
                "terms": [{"a": [1.0, 0.0], "alpha": alpha}
                          for alpha in ([scale, 0.0], [0.0, -scale])]}
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(problem)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["separation_distance"] == pytest.approx(scale / math.sqrt(2),
                                                       rel=1e-15)


@pytest.mark.parametrize("poles, spectrum", [
    ((-0.016549796908613374, 0.009371134310148771), PositiveHalfLine()),
    ((1e-30 + 1j, 2.0), ImaginaryAxis()),
])
def test_hull_on_an_analytic_spectrum_up_to_rounding(poles, spectrum):
    series = ResolventSeries(tuple((1.0, p) for p in poles))
    report = check_admissible(series, spectrum)
    assert not report.separation_ok
    assert report.separation_distance == 0.0


class TestRequireAdmissible:
    SPECTRUM = PointSpectrum((10.0,))

    def test_returns_the_report(self):
        s = ResolventSeries(((1.0, 1.0), (1.0, 3.0)))
        assert require_admissible(s, self.SPECTRUM) == check_admissible(
            s, self.SPECTRUM)

    def test_theorem_mode_is_decided_first(self):
        # negative coefficient and a pole on the spectrum
        s = ResolventSeries(((1.0, 1.0), (-1.0, 10.0)))
        with pytest.raises(HypothesisError):
            require_admissible(s, self.SPECTRUM)

    def test_margin_tightens(self):
        s = ResolventSeries(((1.0, 1.0), (1.0, 3.0)))
        require_admissible(s, self.SPECTRUM, margin=6.0)
        with pytest.raises(SeparationError):
            require_admissible(s, self.SPECTRUM, margin=7.0)
