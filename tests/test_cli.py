import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvinv import cli, operators, rational
from resolvinv.cli import build_parser, main
from resolvinv.demos import write_demo_files
from resolvinv.errors import MalformedSpecError
from resolvinv.operators import DenseMatrixOperator, apply_series
from resolvinv.rational import FilterSpec
from resolvinv.serialization import (
    filter_spec_from_json,
    load_problem,
    read_signal,
    series_from_json,
    series_to_json,
    spectrum_from_json,
    write_signal,
)
from resolvinv.geometry import (
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    UnitCircle,
)
from resolvinv.series import ResolventSeries, check_admissible
from resolvinv.tolerance import unit_frame


SRC = str(Path(__file__).resolve().parents[1] / "src")
DELETE = object()


def _edit(doc, path, value):
    """Set the value at ``path`` of a JSON document, or delete it."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def run_python(*args):
    """Run the interpreter on this checkout's sources in a fresh process."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demos")
    write_demo_files(d)
    return d


class TestSerialization:
    def test_series_json_round_trip(self):
        s = ResolventSeries(((1.5, 2 - 1j), (0.25, -3j)))
        back = series_from_json(series_to_json(s))
        assert back.terms == s.terms

    def test_signal_csv_round_trip(self, tmp_path):
        sig = np.array([1 + 2j, -0.5, 3.25j])
        path = tmp_path / "sig.csv"
        write_signal(path, sig)
        assert np.array_equal(read_signal(path), sig)

    @given(parts=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
                         2.2250738585072014e-308, 1.7e308, -1.7e308])),
        max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_signal_csv_has_the_bytes_of_a_format_per_scalar(
            self, tmp_path_factory, parts):
        # the writer formats over tolist(); each part must still be the repr
        # of its float, as an f-string per numpy scalar wrote it
        sig = np.array(parts[:len(parts) // 2], dtype=complex)
        sig.imag = parts[len(parts) // 2:][:sig.size]
        want = "\n".join(f"{float(z.real)!r},{float(z.imag)!r}"
                         for z in sig) + "\n"
        path = tmp_path_factory.mktemp("csv") / "sig.csv"
        write_signal(path, sig)
        assert path.read_bytes() == want.encode()
        if sig.size:
            np.testing.assert_array_equal(
                read_signal(path).view(np.uint64), sig.view(np.uint64))

    def test_signal_json(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[1.0, 2.0], [0.0, -1.5]]")
        assert np.array_equal(read_signal(path), [1 + 2j, -1.5j])

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(MalformedSpecError):
            read_signal(path)

    def test_spectrum_variants(self):
        assert isinstance(spectrum_from_json({"variant": "unit_circle"}),
                          UnitCircle)
        assert isinstance(spectrum_from_json({"variant": "positive_reals"}),
                          PositiveHalfLine)
        assert isinstance(spectrum_from_json({"variant": "imaginary_axis"}),
                          ImaginaryAxis)
        pts = spectrum_from_json(
            {"variant": "point_set", "points": [[1, 2]]})
        assert isinstance(pts, PointSpectrum)
        assert pts.points == (1 + 2j,)

    def test_filter_spec_json(self):
        spec = filter_spec_from_json(
            {"c": [[-0.5, 0], [1, 0]], "b": [[1, 0]]})
        assert spec == FilterSpec((-0.5, 1.0), (1.0,))

    def test_load_problem_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "series"}')
        with pytest.raises(MalformedSpecError):
            load_problem(path)

    def test_load_problem_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(MalformedSpecError):
            load_problem(path)

    def test_load_problem_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedSpecError):
            load_problem(path)

    @pytest.mark.parametrize("name, path, value", [
        ("series_admissible", ("spectrum",), DELETE),
        ("series_admissible", ("terms", 0, "a", 0), True),
        ("filter", ("b",), DELETE),
        ("filter", ("c", 1, 0), "1"),
        ("integral", ("grid", "t0"), DELETE),
        ("integral", ("kernel", 1, "alpha"), [1, 2, 3]),
        ("convolution", ("period",), DELETE),
        ("convolution", ("terms", 0, "beta"), {}),
        ("matrix", ("terms",), DELETE),
        ("matrix", ("matrix", 2), [[1, 2]]),
        ("sweep", ("alpha_grid",), DELETE),
        ("sweep", ("alpha_grid", 3), "0.1"),
    ])
    def test_load_problem_rejects_missing_or_mistyped_field(
            self, demo_dir, tmp_path, name, path, value):
        doc = json.loads((demo_dir / f"{name}.json").read_text())
        _edit(doc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(MalformedSpecError):
            load_problem(bad)

    def test_load_problem_decodes_values(self, demo_dir):
        problem = load_problem(demo_dir / "matrix.json")
        assert problem["kind"] == "matrix" and problem["margin"] == 0.0
        assert problem["series"] == ResolventSeries(((1.0, 1.0), (1.0, 3.0)))
        assert problem["matrix"].dtype == complex
        assert problem["matrix"].shape == (4, 4)
        assert problem["matrix"][0, 1] == 0.1

    @pytest.mark.parametrize("text", ["[[1, 2, 3]]", "[[true, 0]]",
                                      '[["1", 0]]', "[]", "[[NaN, 0]]"])
    def test_bad_json_signal_rejected(self, tmp_path, text):
        path = tmp_path / "sig.json"
        path.write_text(text)
        with pytest.raises(MalformedSpecError):
            read_signal(path)


class TestCheckCommand:
    def test_admissible_exits_zero(self, demo_dir, capsys):
        rc = main(["check", str(demo_dir / "series_admissible.json")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["theorem_mode_ok"] and report["separation_ok"]

    def test_inadmissible_exits_two(self, demo_dir, capsys):
        rc = main(["check", str(demo_dir / "series_inadmissible.json")])
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["separation_ok"]

    def test_margin_flag_tightens(self, demo_dir, capsys):
        rc = main(["check", str(demo_dir / "series_admissible.json"),
                   "--margin", "1000"])
        assert rc == 2
        capsys.readouterr()

    def test_missing_file_exits_one(self, capsys):
        rc = main(["check", "/nonexistent/problem.json"])
        assert rc == 1
        capsys.readouterr()

    def test_negative_weight_kernel_prints_its_report(self, tmp_path,
                                                      capsys):
        # b = 0.5 maps to the coefficient -1: judged by the gate, with its
        # report, as a filter's negative residue is
        problem = tmp_path / "conv.json"
        problem.write_text(json.dumps({
            "kind": "convolution", "period": 8,
            "terms": [{"b": [0.5, 0], "beta": [0, -1]}]}))
        rc = main(["check", str(problem)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == ""
        report = json.loads(out)
        assert not report["theorem_mode_ok"] and report["separation_ok"]
        assert report["per_term"][0]["a"] == [-1.0, 0.0]

    @pytest.mark.parametrize("command", ["check", "invert"])
    def test_kernel_weight_past_the_float_range_exits_four(
            self, demo_dir, tmp_path, capsys, command):
        # -2i b beta = -2e308 for b = -1e308, beta = -i
        problem = tmp_path / "conv.json"
        problem.write_text(json.dumps({
            "kind": "convolution", "period": 8,
            "terms": [{"b": [-1e308, 0], "beta": [0, -1]}]}))
        argv = [command, str(problem)]
        if command == "invert":
            argv += ["--input", str(demo_dir / "convolution_y.csv"),
                     "--output", str(tmp_path / "x.csv")]
        assert main(argv) == 4
        assert "error: derived coefficients or poles leave the float range" \
            in capsys.readouterr().err


class TestInvertCommand:
    def test_matrix_recovers_truth(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["invert", str(demo_dir / "matrix.json"),
                   "--input", str(demo_dir / "matrix_y.csv"),
                   "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        x = read_signal(out)
        x0 = read_signal(demo_dir / "matrix_x0.csv")
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)

    def test_filter_recovers_truth(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["invert", str(demo_dir / "filter.json"),
                   "--input", str(demo_dir / "filter_y.csv"),
                   "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        x = read_signal(out)
        x0 = read_signal(demo_dir / "filter_x0.csv")
        assert np.max(np.abs(x - x0)) < 1e-9

    def test_filter_output_and_solution_are_real(self, demo_dir, tmp_path,
                                                 capsys):
        # the demo filter's root 0.5 and its impulse are real, and the
        # shift's scan keeps every imaginary part at +0.0 both ways
        out = tmp_path / "x.csv"
        assert main(["invert", str(demo_dir / "filter.json"),
                     "--input", str(demo_dir / "filter_y.csv"),
                     "--output", str(out)]) == 0
        capsys.readouterr()
        for path in (demo_dir / "filter_y.csv", out):
            imag = read_signal(path).imag
            assert (imag == 0.0).all() and not np.signbit(imag).any()

    def test_filter_series_built_once(self, demo_dir, tmp_path, capsys,
                                      monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rational.filter_to_series(*args, **kwargs)

        monkeypatch.setattr(cli, "filter_to_series", counted)
        monkeypatch.setattr(operators, "filter_to_series", counted)
        rc = main(["invert", str(demo_dir / "filter.json"),
                   "--input", str(demo_dir / "filter_y.csv"),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_convolution_series_built_once(self, demo_dir, tmp_path, capsys,
                                           monkeypatch):
        calls = []
        build = operators.convolution_series

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "convolution_series", counted)
        monkeypatch.setattr(operators, "convolution_series", counted)
        rc = main(["invert", str(demo_dir / "convolution.json"),
                   "--input", str(demo_dir / "convolution_y.csv"),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_integral_recovers_truth(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["invert", str(demo_dir / "integral.json"),
                   "--input", str(demo_dir / "integral_y.csv"),
                   "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        x = read_signal(out)
        x0 = read_signal(demo_dir / "integral_x0.csv")
        assert np.linalg.norm(x - x0) <= 1e-2 * np.linalg.norm(x0)

    def test_convolution_recovers_truth(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["invert", str(demo_dir / "convolution.json"),
                   "--input", str(demo_dir / "convolution_y.csv"),
                   "--output", str(out)])
        assert rc == 0
        capsys.readouterr()
        x = read_signal(out)
        x0 = read_signal(demo_dir / "convolution_x0.csv")
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)

    def _matrix_problem(self, tmp_path, coeffs, poles, eigs):
        terms = [{"a": [float(a), 0.0], "alpha": [p.real, p.imag]}
                 for a, p in zip(coeffs, poles)]
        matrix = np.diag(np.asarray(eigs, dtype=complex))
        matrix[np.arange(len(eigs) - 1), np.arange(1, len(eigs))] = 0.1
        problem = tmp_path / "matrix.json"
        problem.write_text(json.dumps({
            "kind": "matrix", "terms": terms,
            "matrix": [[[z.real, z.imag] for z in row] for row in matrix]}))
        x0 = np.arange(1.0, len(eigs) + 1.0) + 0.5j
        y = apply_series(ResolventSeries(tuple(zip(coeffs, poles))),
                         DenseMatrixOperator(matrix), x0)
        write_signal(tmp_path / "y.csv", y)
        return problem, x0

    def test_24_term_matrix_recovers_truth(self, tmp_path, capsys):
        rng = np.random.default_rng(24)
        coeffs = rng.uniform(0.1, 1.0, 24)
        poles = np.arange(1.0, 25.0) + 0j
        problem, x0 = self._matrix_problem(tmp_path, coeffs, poles,
                                           40.0 + np.arange(8.0))
        out = tmp_path / "x.csv"
        rc = main(["invert", str(problem), "--input", str(tmp_path / "y.csv"),
                   "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().err.count("remainder poles") == 1
        x = read_signal(out)
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)

    def test_repeated_zero_is_a_typed_error(self, tmp_path, capsys):
        # equal weights on a triangle: f has a double zero at its centre
        poles = 1.0 + np.exp(2j * np.pi * np.arange(3) / 3)
        problem, _ = self._matrix_problem(tmp_path, np.ones(3), poles,
                                          10.0 + np.arange(4.0))
        rc = main(["invert", str(problem), "--input", str(tmp_path / "y.csv"),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "repeated zero" in capsys.readouterr().err

    def test_failed_identity_check_exits_four(self, tmp_path, capsys):
        # equal weights on a square: f has a triple zero at its centre,
        # which splits past the repeated-zero test and fails the plan check
        poles = np.array([1.0, 1.0j, -1.0, -1.0j])
        problem, _ = self._matrix_problem(tmp_path, np.ones(4), poles,
                                          10.0 + np.arange(4.0))
        rc = main(["invert", str(problem), "--input", str(tmp_path / "y.csv"),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "error: inversion plan fails the identity check" in (
            capsys.readouterr().err)

    def test_gamma_past_the_float_range_exits_four_without_a_plan(
            self, tmp_path):
        # gamma = sum a_j alpha_j / (sum a_j)^2 is about 1e309 for
        # a = 1e-289 at poles 1e20 and 1e20 + 1e9; the plan was printed
        # with gamma = inf and the solve then stopped
        problem = tmp_path / "gamma.json"
        problem.write_text(json.dumps({
            "kind": "matrix",
            "matrix": [[[10, 0], [0, 0]], [[0, 0], [12, 0]]],
            "terms": [{"a": [1e-289, 0], "alpha": [1e20, 0]},
                      {"a": [1e-289, 0], "alpha": [1e20 + 1e9, 0]}]}))
        write_signal(tmp_path / "y.csv", np.array([1.0, 2.0]))
        proc = run_python("-W", "error", "-m", "resolvinv.cli", "invert",
                          str(problem), "--input", str(tmp_path / "y.csv"),
                          "--output", str(tmp_path / "x.csv"))
        assert proc.returncode == 4
        assert proc.stderr == "error: plan of 1/f leaves the float range\n"

    def test_repeated_pole_exits_two_without_traceback(self, tmp_path):
        problem = tmp_path / "matrix.json"
        problem.write_text(json.dumps({
            "kind": "matrix",
            "terms": [{"a": [1.0, 0.0], "alpha": [2.0, 0.0]},
                      {"a": [0.5, 0.0], "alpha": [2.0, 0.0]}],
            "matrix": [[[10.0, 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [11.0, 0.0]]]}))
        write_signal(tmp_path / "y.csv", np.ones(2))
        proc = run_python("-m", "resolvinv.cli", "invert", str(problem),
                          "--input", str(tmp_path / "y.csv"),
                          "--output", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "error: poles" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_matrix_eigenvalues_computed_once(self, demo_dir, tmp_path,
                                              capsys, monkeypatch):
        eigvals = np.linalg.eigvals
        matrix_calls = []

        def counting(a):
            if np.shape(a) == (4, 4):  # the demo matrix, not the plan's block
                matrix_calls.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        rc = main(["invert", str(demo_dir / "matrix.json"),
                   "--input", str(demo_dir / "matrix_y.csv"),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 0
        capsys.readouterr()
        assert len(matrix_calls) == 1

    def test_missing_io_flags_exit_one(self, demo_dir, capsys):
        rc = main(["invert", str(demo_dir / "matrix.json")])
        assert rc == 1
        capsys.readouterr()

    def test_length_mismatch_exits_one(self, demo_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_signal(bad, np.ones(3))
        rc = main(["invert", str(demo_dir / "matrix.json"),
                   "--input", str(bad), "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name, kind", [
        ("series_admissible", "series"), ("series_inadmissible", "series"),
        ("sweep", "sweep")])
    def test_kind_without_a_solve_is_refused_before_the_gate(
            self, demo_dir, tmp_path, capsys, name, kind):
        # the plan was built and printed first, so the exit code followed
        # the gate: 1 for the admissible series, 2 for the inadmissible one
        rc = main(["invert", str(demo_dir / f"{name}.json"),
                   "--input", str(demo_dir / "sweep_x.csv"),
                   "--output", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "plan:" not in err
        assert err == f"error: cannot invert problem kind {kind!r}\n"
        assert not (tmp_path / "x.csv").exists()


def _run_argv(demo_dir, tmp_path, problem):
    """The CLI call that reads every field of a demo problem."""
    kind = problem.stem
    if kind.startswith("series"):
        return ["check", str(problem)]
    output = ["--output", str(tmp_path / "o.csv")]
    if kind == "sweep":
        return ["sweep", str(problem),
                "--input", str(demo_dir / "sweep_x.csv")] + output
    return ["invert", str(problem),
            "--input", str(demo_dir / f"{kind}_y.csv")] + output


class TestOutOfDomainInput:
    """Well-formed files whose values are out of their domain end in
    exit 1 with an ``error:`` line; an escaping exception would fail
    these in-process calls with its traceback."""

    @staticmethod
    def _edited(demo_dir, tmp_path, name, edit):
        doc = json.loads((demo_dir / name).read_text())
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def _assert_exit_one(self, argv, capsys, message):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {message}" in err

    def test_increasing_alpha_grid(self, demo_dir, tmp_path, capsys):
        sweep = self._edited(demo_dir, tmp_path, "sweep.json",
                             lambda d: d["alpha_grid"].reverse())
        self._assert_exit_one(
            ["sweep", str(sweep), "--input", str(demo_dir / "sweep_x.csv"),
             "--output", str(tmp_path / "o.csv")],
            capsys, "alpha grid must be strictly decreasing")
        # refused when the file is read, so check refuses it too
        self._assert_exit_one(["check", str(sweep)], capsys,
                              "alpha grid must be strictly decreasing")

    def test_grid_without_extent(self, demo_dir, tmp_path, capsys):
        def collapse(doc):
            doc["grid"]["L"] = doc["grid"]["t0"]

        integral = self._edited(demo_dir, tmp_path, "integral.json", collapse)
        self._assert_exit_one(
            ["invert", str(integral),
             "--input", str(demo_dir / "integral_y.csv"),
             "--output", str(tmp_path / "o.csv")],
            capsys, "grid end must exceed grid start")

    def test_input_length_differs_from_grid(self, demo_dir, tmp_path, capsys):
        y = tmp_path / "short.csv"
        write_signal(y, read_signal(demo_dir / "integral_y.csv")[:-1])
        self._assert_exit_one(
            ["invert", str(demo_dir / "integral.json"), "--input", str(y),
             "--output", str(tmp_path / "o.csv")],
            capsys, "data length does not match the grid")

    def test_negative_margin(self, demo_dir, capsys):
        self._assert_exit_one(
            ["check", str(demo_dir / "series_admissible.json"),
             "--margin", "-1"],
            capsys, "margin must be nonnegative")

    def test_non_finite_pole(self, demo_dir, tmp_path, capsys):
        def nan_pole(doc):
            doc["terms"][0]["alpha"] = [float("nan"), 0.0]

        series = self._edited(demo_dir, tmp_path, "series_admissible.json",
                              nan_pole)
        self._assert_exit_one(["check", str(series)], capsys,
                              "non-finite point")

    def test_ragged_matrix(self, demo_dir, tmp_path, capsys):
        def drop_one_entry(doc):
            doc["matrix"][0].pop()

        matrix = self._edited(demo_dir, tmp_path, "matrix.json",
                              drop_one_entry)
        self._assert_exit_one(["check", str(matrix)], capsys,
                              "matrix must be square")

    @pytest.mark.parametrize("name, path, value, message", [
        ("integral.json", ("grid", "n"), 400.0,
         'grid "n" must be an integer >= 3'),
        ("integral.json", ("grid", "L"), float("inf"),
         "L must be a finite number"),
        ("matrix.json", ("matrix", 0, 0, 0), float("nan"),
         "non-finite point in matrix"),
        ("sweep.json", ("alpha_grid", 0), float("inf"),
         "alpha must be a finite number > 0"),
        ("convolution.json", ("period",), float("inf"),
         "period must be a finite number > 0"),
    ])
    def test_non_finite_or_non_integer_field(self, demo_dir, tmp_path, capsys,
                                             name, path, value, message):
        problem = self._edited(demo_dir, tmp_path, name,
                               lambda doc: _edit(doc, path, value))
        self._assert_exit_one(_run_argv(demo_dir, tmp_path, problem), capsys,
                              message)

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_non_finite_margin(self, demo_dir, capsys, margin):
        self._assert_exit_one(
            ["check", str(demo_dir / "series_admissible.json"),
             f"--margin={margin}"],
            capsys, "margin must be nonnegative and finite")

    def test_non_finite_signal_row(self, demo_dir, tmp_path, capsys):
        y = tmp_path / "filter_y.csv"
        rows = (demo_dir / "filter_y.csv").read_text().splitlines()
        y.write_text("\n".join(["nan,0.0"] + rows[1:]) + "\n")
        self._assert_exit_one(
            ["invert", str(demo_dir / "filter.json"), "--input", str(y),
             "--output", str(tmp_path / "o.csv")],
            capsys, f"non-finite point in signal {y}")

    @pytest.mark.parametrize("alphas", [
        [[1.7e308, 1.7e308], [-1.7e308, 1.7e308]],
        [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]],
        [[1e308, 1e308], [-1e308, -1e308], [1e308, -1e308]],
    ], ids=["above", "across", "triangle"])
    @pytest.mark.parametrize("spectrum", [
        {"variant": "point_set", "points": [[10.0, 0.0]]},
        {"variant": "unit_circle"},
        {"variant": "positive_reals"},
        {"variant": "imaginary_axis"},
    ], ids=lambda s: s["variant"])
    def test_poles_near_the_float_limit_exit_without_traceback(
            self, tmp_path, alphas, spectrum):
        # the threshold rtol * max|alpha| overflowed in abs (OverflowError),
        # so did the half line's gap, and the per-pole distances warned;
        # run with warnings as errors
        problem = tmp_path / "huge.json"
        problem.write_text(json.dumps({
            "kind": "series", "spectrum": spectrum,
            "terms": [{"a": [1.0, 0.0], "alpha": a} for a in alphas]}))
        proc = run_python("-W", "error", "-m", "resolvinv.cli", "check",
                          str(problem))
        assert proc.returncode in (0, 2)
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["theorem_mode_ok"]

    _HUGE = [{"a": [1.7e308, 0.0], "alpha": [1.0, 0.0]},
             {"a": [1.7e308, 0.0], "alpha": [3.0, 0.0]}]
    _MATRIX = [[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [12.0, 0.0]]]
    _ON_10 = {"variant": "point_set", "points": [[10.0, 0.0]]}
    _GRID = {"t0": 0.0, "L": 5.0, "n": 8}
    # problem, its signal length, and the exit code each command gives:
    # every solve ends in a solution, with the plan's residues and identity
    # check and the sweep's regularized columns and norms taken in the
    # coefficients' and the data's power-of-two frames
    FLOAT_LIMIT = {
        # summability about 4.3e307, coefficient sum past the float range
        "series": ({"kind": "series", "terms": _HUGE, "spectrum": _ON_10},
                   0, {"check": (0,)}),
        "complex": ({"kind": "series", "spectrum": _ON_10,
                     "terms": [{"a": [1.7e308, 1.7e308], "alpha": [1, 0]},
                               {"a": [1.0, 0.0], "alpha": [3.0, 0.0]}]},
                    0, {"check": (2,)}),
        "matrix": ({"kind": "matrix", "terms": _HUGE, "matrix": _MATRIX},
                   2, {"check": (0,), "invert": (0,)}),
        "sweep": ({"kind": "sweep", "terms": _HUGE, "matrix": _MATRIX,
                   "alpha_grid": [1e-2, 1e-4]},
                  2, {"check": (0,), "sweep": (0,)}),
        "integral": ({"kind": "integral", "kernel": _HUGE, "grid": _GRID},
                     8, {"check": (0,), "invert": (0,)}),
        # the summand 1e308 / 0.5 is past the float range: an inf
        # summability, which is no pole on the spectrum
        "filter": ({"kind": "filter", "c": [[-0.5, 0.0], [1.0, 0.0]],
                    "b": [[1e308, 0.0]]},
                   8, {"check": (0,), "invert": (0,)}),
        # poles near the float range: the zero solve and the sample
        # circle overflowed with a warning; the residues past the float
        # range are now the one error (exit 4)
        "integral_poles": ({"kind": "integral", "grid": _GRID,
                            "kernel": [{"a": [1, 0], "alpha": [1.7e308, 0]},
                                       {"a": [1, 0], "alpha": [1e308, 0]}]},
                           8, {"check": (0,), "invert": (4,)}),
        "matrix_poles": ({"kind": "matrix", "matrix": _MATRIX,
                          "terms": [{"a": [1, 0], "alpha": [1.7e308, 0]},
                                    {"a": [1, 0], "alpha": [-1e308, 1e308]}]},
                         2, {"check": (0,), "invert": (4,)}),
        # residue -5e19, gamma 1e-140, beta -5e-301, taken in the poles'
        # and the coefficients' frames: (alpha - z)^2 overflowed on the
        # way, a false "residues of 1/f leave the float range" (exit 4)
        "matrix_1e160": ({"kind": "matrix", "matrix": _MATRIX,
                          "terms": [{"a": [1e300, 0], "alpha": [1e160, 0]},
                                    {"a": [1e300, 0], "alpha": [3e160, 0]}]},
                         2, {"check": (0,), "invert": (0,)}),
    }

    @pytest.mark.parametrize("name", FLOAT_LIMIT)
    def test_coefficients_near_the_float_limit_exit_without_traceback(
            self, tmp_path, name):
        # the coefficient sums overflowed in fsum (OverflowError), |a| in
        # abs, the zero solve warned, and an inf summability read as a
        # pole on the spectrum; run with warnings as errors
        problem, n, codes = self.FLOAT_LIMIT[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem))
        signal = tmp_path / "y.csv"
        for command, want in codes.items():
            argv = [command, str(path)]
            if command != "check":
                write_signal(signal, np.linspace(1.0, 2.0, n))
                argv += ["--input", str(signal),
                         "--output", str(tmp_path / "x.csv")]
            proc = run_python("-W", "error", "-m", "resolvinv.cli", *argv)
            assert proc.returncode in want, proc.stderr
            assert "Traceback" not in proc.stderr
            if command == "check":
                assert proc.stderr == ""

    def test_subprocess_prints_no_traceback(self, demo_dir, tmp_path):
        y = tmp_path / "short.csv"
        write_signal(y, read_signal(demo_dir / "integral_y.csv")[:-1])
        proc = run_python("-m", "resolvinv.cli", "invert",
                          str(demo_dir / "integral.json"), "--input", str(y),
                          "--output", str(tmp_path / "o.csv"))
        assert proc.returncode == 1
        assert "error: data length" in proc.stderr
        assert "Traceback" not in proc.stderr


FUZZ_VALUES = [None, True, "x", -1, 0, 0.5, 3.0, float("nan"), float("inf"),
               float("-inf"), [], {}, [1], [1, 2, 3], [[1, 2]]]
DEMO_PROBLEMS = ["series_admissible", "series_inadmissible", "matrix",
                 "filter", "integral", "convolution", "sweep"]


def _json_paths(node, prefix=()):
    """Every (path, is_object_field) below a JSON node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,), isinstance(node, dict)
        yield from _json_paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_edited_demo_problem_exits_with_a_code(demo_dir, tmp_path_factory,
                                               data):
    """One deleted field or one replaced value in a demo problem ends in
    an exit code from 0 to 4, never in an exception.  The values hold no
    large integer, so no edit asks for a huge grid."""
    name = data.draw(st.sampled_from(DEMO_PROBLEMS))
    doc = json.loads((demo_dir / f"{name}.json").read_text())
    path, is_field = data.draw(st.sampled_from(list(_json_paths(doc))))
    values = [DELETE] + FUZZ_VALUES if is_field else FUZZ_VALUES
    _edit(doc, path, data.draw(st.sampled_from(values)))
    work = tmp_path_factory.mktemp("fuzz")
    problem = work / f"{name}.json"
    problem.write_text(json.dumps(doc))
    assert main(_run_argv(demo_dir, work, problem)) in range(5)


PROBLEM_KINDS = ["series", "filter", "integral", "convolution", "matrix",
                 "sweep"]
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=4)),
    max_leaves=12)
_number = st.floats(-10, 10) | st.floats() | st.integers(-3, 40)
_pairs = st.lists(st.lists(_number, min_size=2, max_size=2), min_size=1,
                  max_size=4)


def _term_lists(x, y):
    pair = st.lists(_number, min_size=2, max_size=2)
    return st.lists(st.fixed_dictionaries({x: pair, y: pair}), min_size=1,
                    max_size=4)


# every field a problem decoder reads, with values of the expected shape
PROBLEM_FIELDS = {
    "terms": _term_lists("a", "alpha") | _term_lists("b", "beta"),
    "kernel": _term_lists("a", "alpha"),
    "spectrum": st.fixed_dictionaries({
        "variant": st.sampled_from(["point_set", "unit_circle",
                                    "positive_reals", "imaginary_axis"]),
        "points": _pairs}),
    "c": _pairs,
    "b": _pairs,
    "grid": st.fixed_dictionaries({"t0": _number, "L": _number,
                                   "n": st.integers(-3, 40)}),
    "period": _number,
    "matrix": st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.lists(_number, min_size=2, max_size=2), min_size=n,
                 max_size=n), min_size=n, max_size=n)),
    "alpha_grid": st.lists(_number, min_size=1, max_size=4),
    "margin": st.floats(0, 1),
}


@st.composite
def problem_documents(draw):
    """Any JSON document, or a problem of a known kind whose every field
    is, at random, of the expected shape, any JSON value or missing.
    Integers stay small, so no document asks for a huge grid."""
    if draw(st.integers(0, 4)) == 0:
        return draw(json_documents)
    doc = {"kind": draw(st.sampled_from(PROBLEM_KINDS))}
    for name, values in PROBLEM_FIELDS.items():
        form = draw(st.integers(0, 9))
        if form < 8:
            doc[name] = draw(values if form < 7 else json_documents)
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=problem_documents())
def test_random_problem_document_exits_with_a_code(demo_dir,
                                                   tmp_path_factory, doc):
    """``check``, ``invert`` and ``sweep`` on any JSON document end in an
    exit code from 0 to 4, never in an exception."""
    work = tmp_path_factory.mktemp("jsonfuzz")
    problem = work / "problem.json"
    problem.write_text(json.dumps(doc))
    io = ["--input", str(demo_dir / "filter_y.csv"),
          "--output", str(work / "out.csv")]
    for argv in (["check", str(problem)], ["invert", str(problem)] + io,
                 ["sweep", str(problem)] + io):
        assert main(argv) in range(5)


def test_filter_whose_companion_matrix_overflows_exits_four(tmp_path,
                                                            capsys):
    # c_2 / c_3 is past the float range: numpy.roots would end in a
    # LinAlgError traceback, found by the fuzz test above
    problem = tmp_path / "filter.json"
    problem.write_text(json.dumps({
        "kind": "filter",
        "c": [[0.0, 0.0], [0.0, 0.0], [0.0, 1.5937870441849192e57],
              [0.0, 8.865734720108314e-252]],
        "b": [[0.0, 0.0]] * 3}))
    assert main(["check", str(problem)]) == 4
    assert "float range" in capsys.readouterr().err


def test_solution_past_the_float_range_exits_four(demo_dir, tmp_path,
                                                  capsys):
    # one pole at 0 with a = 1/1.12e307: beta = -1.12e307 takes the demo
    # signal, up to 1.00002 in modulus, to 1.12e307, still a float, and
    # 32 times that signal past the float range, which is an error, not
    # an inf in the CSV
    problem = tmp_path / "filter.json"
    problem.write_text(json.dumps({
        "kind": "filter", "c": [[0.0, 0.0], [0.0, 1.1235410651512325e307]],
        "b": [[0.0, 1.0]]}))
    out = tmp_path / "x.csv"
    assert main(["invert", str(problem), "--input",
                 str(demo_dir / "filter_y.csv"), "--output", str(out)]) == 0
    capsys.readouterr()
    y = np.loadtxt(demo_dir / "filter_y.csv", delimiter=",", ndmin=2)
    np.savetxt(tmp_path / "y32.csv", 32.0 * y, delimiter=",")
    out.unlink()
    assert main(["invert", str(problem), "--input",
                 str(tmp_path / "y32.csv"), "--output", str(out)]) == 4
    assert "error: solution exceeds the float range" in capsys.readouterr().err
    assert not out.exists()


class TestDebugLog:
    RUNS = {"invert": ("matrix.json", "matrix_y.csv"),
            "sweep": ("sweep.json", "sweep_x.csv")}

    def _run(self, command, demo_dir, tmp_path):
        problem, signal = self.RUNS[command]
        return main([command, str(demo_dir / problem),
                     "--input", str(demo_dir / signal),
                     "--output", str(tmp_path / "out.csv")])

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_separation_and_zero_count(self, command, demo_dir, tmp_path,
                                       caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="resolvinv")
        assert self._run(command, demo_dir, tmp_path) == 0
        series, spectrum, _ = cli._problem_solver(
            load_problem(demo_dir / self.RUNS[command][0]))
        distance = check_admissible(series, spectrum).separation_distance
        assert [r.getMessage() for r in caplog.records] == [
            f"separation distance {distance:.6g}",
            f"plan zeros: {len(series.terms) - 1}"]

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_default_level_logs_nothing(self, command, demo_dir, tmp_path,
                                        caplog, capsys):
        assert self._run(command, demo_dir, tmp_path) == 0
        assert caplog.records == []

    def test_environment_variable_turns_it_on(self, demo_dir, tmp_path,
                                              monkeypatch):
        problem, signal = self.RUNS["invert"]
        argv = ["-m", "resolvinv.cli", "invert", str(demo_dir / problem),
                "--input", str(demo_dir / signal),
                "--output", str(tmp_path / "out.csv")]
        monkeypatch.delenv("RESOLVENT_INV_LOG", raising=False)
        quiet = run_python(*argv)
        monkeypatch.setenv("RESOLVENT_INV_LOG", "DEBUG")
        loud = run_python(*argv)
        assert "DEBUG" not in quiet.stderr
        assert "DEBUG:resolvinv:separation distance" in loud.stderr
        assert loud.stdout == quiet.stdout


class TestSweepCommand:
    def test_improves_and_writes_csv(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(demo_dir / "sweep.json"),
                   "--input", str(demo_dir / "sweep_x.csv"),
                   "--output", str(out)])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["improved"]
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,error,residual"
        rows = [line.split(",") for line in lines[1:]]
        alphas = [float(r[0]) for r in rows]
        errors = [float(r[1]) for r in rows]
        assert alphas == sorted(alphas, reverse=True)
        assert errors[-1] < errors[0]

    def test_hull_across_an_eigenvalue_exits_two(self, demo_dir, tmp_path,
                                                 capsys):
        # the pole hull [4.5+0.3i, 5.5-0.3i] crosses the eigenvalue 5
        doc = json.loads((demo_dir / "sweep.json").read_text())
        doc["terms"] = [{"a": [1.0, 0.0], "alpha": [4.5, 0.3]},
                        {"a": [2.0, 0.0], "alpha": [5.5, -0.3]}]
        problem = tmp_path / "sweep.json"
        problem.write_text(json.dumps(doc))
        io = ["--input", str(demo_dir / "sweep_x.csv"),
              "--output", str(tmp_path / "o.csv")]
        assert main(["check", str(problem)]) == 2
        assert main(["sweep", str(problem)] + io) == 2
        # invert refuses the kind before the gate: exit 1 whatever the poles
        assert main(["invert", str(problem)] + io) == 1
        assert not (tmp_path / "o.csv").exists()
        capsys.readouterr()

    def test_pole_within_the_resolvent_rule_exits_two_everywhere(
            self, demo_dir, tmp_path, capsys):
        # the pole 5 + 5e-11i is 5e-11 from the eigenvalue 5: within the
        # resolvent rule's SPECTRUM_EPS * |alpha| = 5e-10, at which the
        # sweep's solve stops, and within the gate's one floor
        # SPECTRUM_EPS * max|alpha| = 5e-10, so the hull is not separated
        # and the pole's distance is 0; check used to exit 0 and sweep 3
        doc = json.loads((demo_dir / "sweep.json").read_text())
        doc["terms"] = [{"a": [1.0, 0.0], "alpha": [1.0, 0.0]},
                        {"a": [1.0, 0.0], "alpha": [5.0, 5e-11]}]
        problem = tmp_path / "sweep.json"
        problem.write_text(json.dumps(doc))
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({**doc, "kind": "matrix"}))
        io = ["--input", str(demo_dir / "sweep_x.csv"),
              "--output", str(tmp_path / "o.csv")]
        codes = [main(["check", str(problem)]),
                 main(["invert", str(problem)] + io),
                 main(["sweep", str(problem)] + io),
                 main(["check", str(matrix)]),
                 main(["invert", str(matrix)] + io)]
        # invert refuses a sweep problem before the gate (exit 1)
        assert codes == [2, 1, 2, 2, 2]
        assert not (tmp_path / "o.csv").exists()
        out = capsys.readouterr()
        report = json.loads(out.out.splitlines()[0])
        assert not report["separation_ok"]
        assert report["per_term"][1]["distance"] == 0.0
        assert "not separated" in out.err

    def test_zero_within_the_resolvent_rule_exits_two_everywhere(
            self, demo_dir, tmp_path, capsys):
        # the plan of ((1, 1), (1, 3)) has the zero 2, 4e-11 from the
        # eigenvalue 2 + 4e-11i: within the resolvent rule's
        # SPECTRUM_EPS * |z| = 2e-10, at which the solves stop, and within
        # the gate's floor SPECTRUM_EPS * max|alpha| = 3e-10 of the hull;
        # check used to exit 0, and invert and sweep 3
        doc = json.loads((demo_dir / "sweep.json").read_text())
        doc["matrix"] = [[[2.0, 4e-11], [0.0, 0.0]],
                         [[0.0, 0.0], [10.0, 0.0]]]
        problem = tmp_path / "sweep.json"
        problem.write_text(json.dumps(doc))
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps({**doc, "kind": "matrix"}))
        x = tmp_path / "x.csv"
        write_signal(x, np.ones(2))
        io = ["--input", str(x), "--output", str(tmp_path / "o.csv")]
        codes = [main(["check", str(matrix)]),
                 main(["invert", str(matrix)] + io),
                 main(["check", str(problem)]),
                 main(["sweep", str(problem)] + io)]
        assert codes == [2] * 4
        assert not (tmp_path / "o.csv").exists()
        out = capsys.readouterr()
        assert not json.loads(out.out.splitlines()[0])["separation_ok"]
        assert out.err.count("not separated") == 2

    def test_wrong_kind_exits_one(self, demo_dir, tmp_path, capsys):
        rc = main(["sweep", str(demo_dir / "matrix.json"),
                   "--input", str(demo_dir / "matrix_x0.csv"),
                   "--output", str(tmp_path / "o.csv")])
        assert rc == 1
        capsys.readouterr()


@pytest.mark.parametrize("argv", [["check", "p.json", "--tol", "1e-3"],
                                  ["sweep", "p.json", "--margin", "1"]])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestCounterexampleCommand:
    def test_interior_target(self, capsys):
        rc = main(["counterexample", "--target", "0",
                   "--", "1", "1j", "-1-1j"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["abs_f_at_target"] < 1e-12
        series = series_from_json(out)
        assert series.is_theorem_mode()

    def test_target_outside_hull_exits_two(self, capsys):
        rc = main(["counterexample", "--target", "5", "--", "1", "2"])
        assert rc == 2
        capsys.readouterr()

    def test_poles_within_the_series_pole_gap_are_merged(self):
        # 0 and 1e-13j are distinct vertices of the hull (EPS relative to
        # the pair) but not poles of one series (EPS * max|pole| = 1e-12):
        # this exited 2, "poles 0j and 1e-13j are not distinct"
        proc = run_python("-W", "error", "-m", "resolvinv.cli",
                          "counterexample", "--target", "0.5+1e-14j",
                          "--", "1", "0", "1e-13j")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        out = json.loads(proc.stdout)
        series = series_from_json(out)
        assert series.is_theorem_mode()
        assert sorted(series.poles, key=abs) == [0j, 1 + 0j]
        assert out["abs_f_at_target"] <= 1e-12

    def test_bad_literal_exits_one(self, capsys):
        rc = main(["counterexample", "--target", "0", "--", "zebra"])
        assert rc == 1
        capsys.readouterr()

    # unframed, these ended in an OverflowError traceback, "degenerate
    # barycentric weights" and "outside the convex hull" at the float
    # range's ends, and in exit 2 for a pole or target that is not finite
    @pytest.mark.parametrize("target, poles, code, terms", [
        ("0", ["1e200", "-1e200"], 0, 2),
        ("0", ["1e308", "-1e308", "1e308j"], 0, 2),
        ("1e-320", ["1e-310", "-1e-310", "1e-310j"], 0, 2),
        ("0", ["inf", "-1"], 1, None),
        ("nan", ["1", "-1"], 1, None),
        ("0", ["1e400", "-1"], 1, None),
        ("0", ["1", "-1", "1+nanj"], 1, None),
    ])
    def test_float_range_ends_exit_without_traceback(self, target, poles,
                                                     code, terms):
        proc = run_python("-W", "error", "-m", "resolvinv.cli",
                          "counterexample", "--target", target, "--", *poles)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
        if code == 0:
            out = json.loads(proc.stdout)
            series = series_from_json(out)
            assert len(series.terms) == terms and series.is_theorem_mode()
            assert max(abs(a) for a in series.coefficients) <= 1.0
            # |f(target)| against the sum of |a / (alpha - target)|, both in
            # the poles' frame, where no quotient overflows
            w, k = unit_frame([*series.poles, complex(target)])
            size = sum(abs(a / (al - w[-1]))
                       for a, al in zip(series.coefficients, w[:-1]))
            assert math.ldexp(out["abs_f_at_target"], k) <= 1e-12 * size
        else:
            assert "must be finite" in proc.stderr


class TestDeterminism:
    def test_check_output_is_stable(self, demo_dir, capsys):
        main(["check", str(demo_dir / "series_admissible.json")])
        first = capsys.readouterr().out
        main(["check", str(demo_dir / "series_admissible.json")])
        second = capsys.readouterr().out
        assert first == second

    def test_invert_output_file_is_stable(self, demo_dir, tmp_path, capsys):
        out1 = tmp_path / "x1.csv"
        out2 = tmp_path / "x2.csv"
        for out in (out1, out2):
            main(["invert", str(demo_dir / "matrix.json"),
                  "--input", str(demo_dir / "matrix_y.csv"),
                  "--output", str(out)])
            capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_demo_files_are_stable(self, tmp_path, capsys):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            d.mkdir()
            main(["demo", "--output-dir", str(d)])
            capsys.readouterr()
        for p in sorted(d1.iterdir()):
            assert p.read_bytes() == (d2 / p.name).read_bytes()


class TestColdStart:
    def test_cli_import_skips_heavy_scipy_modules(self):
        # scipy costs most of a CLI call's start-up, and only the dense
        # matrix solves need it
        proc = run_python("-c", "import sys, resolvinv.cli; print(sorted(m "
                          "for m in sys.modules if m == 'scipy' or "
                          "m.startswith('scipy.') or m == 'jsonschema'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    _SCIPY_LOADED = ("print(sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")

    def test_demo_and_small_matrix_invert_and_sweep_import_no_scipy(
            self, tmp_path):
        # the demo matrices (4 x 4 and 8 x 8) solve by one batched
        # np.linalg.solve, without scipy's cached LU factors
        demo = tmp_path / "demo"
        calls = [["demo", "--output-dir", str(demo)],
                 ["invert", str(demo / "matrix.json"),
                  "--input", str(demo / "matrix_y.csv"),
                  "--output", str(tmp_path / "x.csv")],
                 ["sweep", str(demo / "sweep.json"),
                  "--input", str(demo / "sweep_x.csv"),
                  "--output", str(tmp_path / "report.csv")]]
        proc = run_python("-c", "import sys\n"
                          "from resolvinv.cli import main\n"
                          f"for argv in {calls!r}:\n"
                          "    assert main(argv) == 0, argv\n"
                          + self._SCIPY_LOADED)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_volterra_solve_and_integral_invert_import_no_scipy(
            self, demo_dir, tmp_path):
        # the grid's scan is numpy alone
        proc = run_python("-c", "import sys\n"
                          "import numpy as np\n"
                          "import resolvinv as rv\n"
                          "g = rv.GridDerivativeOperator(0.0, 10.0, 5000)\n"
                          "k = rv.ResolventSeries(((1.0, 1.0), (1.0, 2.0)))\n"
                          "rv.solve_exponential_volterra(k, np.cos(g.t), g)\n"
                          + self._SCIPY_LOADED)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        argv = ["invert", str(demo_dir / "integral.json"),
                "--input", str(demo_dir / "integral_y.csv"),
                "--output", str(tmp_path / "x.csv")]
        proc = run_python("-c", "import sys\n"
                          "from resolvinv.cli import main\n"
                          f"assert main({argv!r}) == 0\n"
                          + self._SCIPY_LOADED)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
