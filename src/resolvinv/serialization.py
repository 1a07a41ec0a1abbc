"""File formats: JSON problem documents, signal CSV/JSON, sweep CSV.

All complex numbers on the wire are [re, im] pairs.  Problem files carry a
"kind" discriminator and are decoded field by field before any computation:
every number must be finite, a grid's "n" an integer >= 3, a matrix square,
and a "series" problem needs a "spectrum".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, MalformedSpecError
from .geometry import (
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    Spectrum,
    UnitCircle,
)
from .rational import FilterSpec
from .regularize import RegularizerConfig, SweepReport
from .series import ResolventSeries

__all__ = [
    "load_problem",
    "series_to_json",
    "series_from_json",
    "filter_spec_from_json",
    "spectrum_from_json",
    "read_signal",
    "write_signal",
    "write_sweep_csv",
]

_NUMBER = {int, float}  # the JSON number types; bool is a type of its own


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _field(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedSpecError(f'missing field "{key}"')
    return doc[key]


def _finite(value, what, lower=None, strict=True) -> float:
    """A finite JSON number above ``lower`` (or equal to it when not
    ``strict``); raises InvalidInputError otherwise."""
    if not (type(value) in _NUMBER and abs(value) <= sys.float_info.max
            and (lower is None or value > lower
                 or (not strict and value == lower))):
        op = ">" if strict else ">="
        bound = "" if lower is None else f" {op} {lower:g}"
        raise InvalidInputError(f"{what} must be a finite number{bound}")
    return float(value)


def _as_complex(x: np.ndarray, what) -> np.ndarray:
    """A float array whose last axis is [re, im] as complex, bit for bit."""
    if not np.isfinite(x).all():
        raise InvalidInputError(f"non-finite point in {what}")
    return np.ascontiguousarray(x).view(complex)[..., 0]


def _pairs(value, what, depth=1) -> np.ndarray:
    """Nonempty lists ``depth`` deep of [re, im] pairs as a complex array.

    The types are scanned before numpy converts anything, so a bool or a
    numeric string is rejected instead of read as a number.
    """
    cells = np.array(value, dtype=object)
    if (cells.shape[depth:] != (2,) or 0 in cells.shape
            or not {type(x) for x in cells.flat} <= _NUMBER):
        raise MalformedSpecError(f"{what} must hold [re, im] number pairs")
    try:
        x = cells.astype(float)
    except OverflowError:  # an integer beyond the float range
        x = np.full(cells.shape, np.inf)
    return _as_complex(x, what)


def _terms(doc, key, fields) -> list[np.ndarray]:
    """The pair ``fields`` of the nonempty term list ``doc[key]``, one
    complex array per field."""
    terms = _field(doc, key)
    if not isinstance(terms, list) or not terms:
        raise MalformedSpecError(f'"{key}" must be a nonempty list of terms')
    return [_pairs([_field(t, f) for t in terms], f) for f in fields]


def _series(doc, key) -> ResolventSeries:
    a, alpha = _terms(doc, key, ("a", "alpha"))
    return ResolventSeries.from_arrays(a, alpha)


def series_from_json(doc) -> ResolventSeries:
    return _series(doc, "terms")


def filter_spec_from_json(doc) -> FilterSpec:
    return FilterSpec(tuple(_pairs(_field(doc, "c"), "c").tolist()),
                      tuple(_pairs(_field(doc, "b"), "b").tolist()))


_SPECTRA = {"unit_circle": UnitCircle, "positive_reals": PositiveHalfLine,
            "imaginary_axis": ImaginaryAxis}


def spectrum_from_json(doc) -> Spectrum:
    variant = _field(doc, "variant")
    if variant == "point_set":
        return PointSpectrum(_pairs(_field(doc, "points"), "points"))
    if isinstance(variant, str) and variant in _SPECTRA:
        return _SPECTRA[variant]()
    raise MalformedSpecError(f"unknown spectrum variant {variant!r}")


def _spectrum(doc) -> Spectrum:
    return spectrum_from_json(_field(doc, "spectrum"))


def _kernel(doc) -> ResolventSeries:
    return _series(doc, "kernel")


def _grid(doc) -> tuple[float, float, int]:
    grid = _field(doc, "grid")
    n = _field(grid, "n")
    if type(n) is not int or n < 3:
        raise MalformedSpecError('grid "n" must be an integer >= 3')
    t0, L = (_finite(_field(grid, key), key) for key in ("t0", "L"))
    return t0, L, n


def _convolution_terms(doc) -> list[tuple[complex, complex]]:
    b, beta = _terms(doc, "terms", ("b", "beta"))
    return list(zip(b.tolist(), beta.tolist()))


def _period(doc) -> float:
    return _finite(_field(doc, "period"), "period", lower=0.0)


def _matrix(doc) -> np.ndarray:
    rows = _field(doc, "matrix")
    if not isinstance(rows, list) or any(
            not isinstance(r, list) or len(r) != len(rows) for r in rows):
        raise MalformedSpecError("matrix must be square")
    return _pairs(rows, "matrix", depth=2)


def _alpha_grid(doc) -> RegularizerConfig:
    grid = _field(doc, "alpha_grid")
    if not isinstance(grid, list) or not grid:
        raise MalformedSpecError('"alpha_grid" must be a nonempty list')
    return RegularizerConfig(
        tuple(_finite(a, "alpha", lower=0.0) for a in grid))


# The values each problem kind decodes to, with their decoders; a decoder
# reads its fields from the document and raises on a missing or malformed
# one.
_DECODERS = {
    "series": {"series": series_from_json, "spectrum": _spectrum},
    "filter": {"spec": filter_spec_from_json},
    "integral": {"series": _kernel, "grid": _grid},
    "convolution": {"terms": _convolution_terms, "period": _period},
    "matrix": {"series": series_from_json, "matrix": _matrix},
    "sweep": {"series": series_from_json, "matrix": _matrix,
              "regularizer": _alpha_grid},
}


def load_problem(path) -> dict:
    """Read and decode a problem file.

    Returns ``kind``, ``margin`` (optional in the file, default 0) and the
    values of ``_DECODERS[kind]``: ``series`` (a ResolventSeries),
    ``spectrum``, ``spec`` (a FilterSpec), ``grid`` as (t0, L, n),
    ``terms`` as (b, beta) pairs, ``period``, ``matrix`` (a square complex
    array) and ``regularizer`` (a RegularizerConfig, from the file's
    ``alpha_grid``).  Raises MalformedSpecError, or its subclass
    InvalidInputError for a number outside its domain: a sweep's alpha
    grid that is not strictly decreasing is refused here, by every
    subcommand.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedSpecError(f"cannot read problem file: {exc}") from exc
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str):
        raise MalformedSpecError('problem file must be an object with "kind"')
    if kind not in _DECODERS:
        raise MalformedSpecError(f"unknown problem kind {kind!r}")
    problem = {"kind": kind, "margin": _finite(doc.get("margin", 0.0),
                                               "margin", 0.0, strict=False)}
    for name, decode in _DECODERS[kind].items():
        problem[name] = decode(doc)
    return problem


def series_to_json(series: ResolventSeries) -> dict:
    return {"terms": [{"a": _pair(a), "alpha": _pair(al)}
                      for a, al in series.terms]}


def read_signal(path) -> np.ndarray:
    """Read a complex signal from two-column CSV or a JSON pair array;
    every sample must be finite."""
    path = Path(path)
    what = f"signal {path}"
    is_csv = path.suffix.lower() != ".json"
    try:
        text = path.read_text()
        if not is_csv:
            data = json.loads(text)
        else:  # rows with a blank first cell are skipped
            rows = [row for row in text.splitlines()
                    if row.partition(",")[0].strip()]
            if not rows:
                raise MalformedSpecError(f"no samples in {path}")
            data = np.loadtxt(rows, delimiter=",", usecols=(0, 1), ndmin=2,
                              comments=None)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedSpecError(f"cannot read {what}: {exc}") from exc
    return _as_complex(data, what) if is_csv else _pairs(data, what)


def write_signal(path, signal) -> None:
    """Write a complex signal as two-column CSV, each part as ``repr`` of
    its Python float, by one %r format over the interleaved parts'
    ``tolist()`` rather than a format per numpy scalar (an empty signal is
    one empty line)."""
    z = np.ascontiguousarray(signal, dtype=complex)
    text = ("%r,%r\n" * z.size or "\n") % tuple(z.view(float).tolist())
    Path(path).write_text(text)


def write_sweep_csv(path, report: SweepReport) -> None:
    lines = ["alpha,error,residual"]
    lines += [f"{r.alpha!r},{r.error!r},{r.residual!r}"
              for r in report.records]
    Path(path).write_text("\n".join(lines) + "\n")
