"""File formats: JSON problem documents, signal CSV/JSON, sweep CSV.

All complex numbers on the wire are [re, im] pairs.  Problem files carry a
"kind" discriminator and are schema-validated before any computation.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import jsonschema
import numpy as np

from .errors import MalformedSpecError
from .geometry import (
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    Spectrum,
    UnitCircle,
)
from .rational import FilterSpec
from .regularize import SweepReport
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

_PAIR = {"type": "array", "items": {"type": "number"},
         "minItems": 2, "maxItems": 2}

_TERMS = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "required": ["a", "alpha"],
        "properties": {"a": _PAIR, "alpha": _PAIR},
    },
}

_SPECTRUM = {
    "type": "object",
    "required": ["variant"],
    "properties": {
        "variant": {"enum": ["point_set", "unit_circle",
                             "positive_reals", "imaginary_axis"]},
        "points": {"type": "array", "items": _PAIR, "minItems": 1},
    },
}

_GRID = {
    "type": "object",
    "required": ["t0", "L", "n"],
    "properties": {
        "t0": {"type": "number"},
        "L": {"type": "number"},
        "n": {"type": "integer", "minimum": 3},
    },
}

_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "items": _PAIR, "minItems": 1}}

PROBLEM_SCHEMAS = {
    "series": {
        "type": "object",
        "required": ["kind", "terms"],
        "properties": {
            "kind": {"const": "series"},
            "terms": _TERMS,
            "spectrum": _SPECTRUM,
            "margin": {"type": "number", "minimum": 0},
        },
    },
    "filter": {
        "type": "object",
        "required": ["kind", "c", "b"],
        "properties": {
            "kind": {"const": "filter"},
            "c": {"type": "array", "items": _PAIR, "minItems": 2},
            "b": {"type": "array", "items": _PAIR, "minItems": 1},
        },
    },
    "integral": {
        "type": "object",
        "required": ["kind", "kernel", "grid"],
        "properties": {
            "kind": {"const": "integral"},
            "kernel": _TERMS,
            "grid": _GRID,
        },
    },
    "convolution": {
        "type": "object",
        "required": ["kind", "terms", "period"],
        "properties": {
            "kind": {"const": "convolution"},
            "terms": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["b", "beta"],
                    "properties": {"b": _PAIR, "beta": _PAIR},
                },
            },
            "period": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "matrix": {
        "type": "object",
        "required": ["kind", "matrix", "terms"],
        "properties": {
            "kind": {"const": "matrix"},
            "matrix": _MATRIX,
            "terms": _TERMS,
        },
    },
    "sweep": {
        "type": "object",
        "required": ["kind", "matrix", "terms", "alpha_grid"],
        "properties": {
            "kind": {"const": "sweep"},
            "matrix": _MATRIX,
            "terms": _TERMS,
            "alpha_grid": {"type": "array", "minItems": 1,
                           "items": {"type": "number", "exclusiveMinimum": 0}},
        },
    },
}


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def load_problem(path) -> dict:
    """Load and schema-validate a problem file; raises MalformedSpecError."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedSpecError(f"cannot read problem file: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MalformedSpecError('problem file must be an object with "kind"')
    kind = doc["kind"]
    schema = PROBLEM_SCHEMAS.get(kind)
    if schema is None:
        raise MalformedSpecError(f"unknown problem kind {kind!r}")
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise MalformedSpecError(f"invalid problem file: {exc.message}") from exc
    return doc


def series_to_json(series: ResolventSeries) -> dict:
    return {"terms": [{"a": _pair(a), "alpha": _pair(al)}
                      for a, al in series.terms]}


def terms_from_json(terms) -> ResolventSeries:
    return ResolventSeries(tuple((_complex(t["a"]), _complex(t["alpha"]))
                                 for t in terms))


def series_from_json(doc) -> ResolventSeries:
    return terms_from_json(doc["terms"])


def filter_spec_from_json(doc) -> FilterSpec:
    return FilterSpec(tuple(_complex(p) for p in doc["c"]),
                      tuple(_complex(p) for p in doc["b"]))


def spectrum_from_json(doc) -> Spectrum:
    variant = doc["variant"]
    if variant == "point_set":
        pts = doc.get("points")
        if not pts:
            raise MalformedSpecError("point_set spectrum needs points")
        return PointSpectrum(tuple(_complex(p) for p in pts))
    if variant == "unit_circle":
        return UnitCircle()
    if variant == "positive_reals":
        return PositiveHalfLine()
    if variant == "imaginary_axis":
        return ImaginaryAxis()
    raise MalformedSpecError(f"unknown spectrum variant {variant!r}")


def matrix_from_json(rows) -> np.ndarray:
    if any(len(row) != len(rows) for row in rows):
        raise MalformedSpecError("matrix must be square")
    return np.array([[_complex(p) for p in row] for row in rows],
                    dtype=complex)


def read_signal(path) -> np.ndarray:
    """Read a complex signal from two-column CSV or a JSON pair array."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        data = json.loads(text)
        return np.array([_complex(p) for p in data], dtype=complex)
    values = []
    for row in csv.reader(text.splitlines()):
        if not row or not row[0].strip():
            continue
        if len(row) < 2:
            raise MalformedSpecError("signal CSV rows need two columns")
        values.append(complex(float(row[0]), float(row[1])))
    if not values:
        raise MalformedSpecError(f"no samples in {path}")
    return np.array(values, dtype=complex)


def write_signal(path, signal) -> None:
    rows = [f"{float(z.real)!r},{float(z.imag)!r}"
            for z in np.asarray(signal, dtype=complex)]
    Path(path).write_text("\n".join(rows) + "\n")


def write_sweep_csv(path, report: SweepReport) -> None:
    lines = ["alpha,error,residual"]
    lines += [f"{r.alpha!r},{r.error!r},{r.residual!r}"
              for r in report.records]
    Path(path).write_text("\n".join(lines) + "\n")
