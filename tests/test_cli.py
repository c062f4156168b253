"""Command-line interface: CSV ingestion, JSON output, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from smoothfit import cli
from smoothfit.cli import _InputError, _parse_fast, _read_csv, _write_json, main
from smoothfit.errors import NumericError

from conftest import make_gap_dataset, run_module


def write_csv(path, x, y, header=None):
    d = x.shape[1]
    header = header or [f"x{i}" for i in range(1, d + 1)] + ["y"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, yi in zip(x, y):
            writer.writerow([f"{v:.10f}" for v in row] + [f"{yi:.10f}"])


@pytest.fixture(scope="module")
def csv3(tmp_path_factory):
    rng = np.random.default_rng(50)
    x = rng.uniform(0, 1, (60, 3))
    y = x[:, 0] ** 2 + x[:, 1] ** 3 + x[:, 2] ** 4 + rng.normal(0, 0.1, 60)
    path = tmp_path_factory.mktemp("data") / "three.csv"
    write_csv(path, x, y)
    return str(path)


@pytest.fixture(scope="module")
def csv1(tmp_path_factory):
    rng = np.random.default_rng(51)
    x = rng.uniform(0, 1, (50, 1))
    y = x[:, 0] ** 2 + rng.normal(0, 0.1, 50)
    path = tmp_path_factory.mktemp("data") / "one.csv"
    write_csv(path, x, y)
    return str(path)


class TestFit:
    def test_fit_with_selection(self, csv3, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main([
            "fit", csv3, "--smoother", "ll", "--method", "pls",
            "--candidates", "8", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["components"]) == 3
        assert all(len(c) == 25 for c in doc["components"])
        assert len(doc["slopes"]) == 3
        assert doc["selection"]["method"] == "pls"
        assert doc["converged"]

    @pytest.mark.parametrize("smoother", ["ll", "nw"])
    def test_final_backfit_reuses_the_selection_workspace(
        self, csv3, tmp_path, monkeypatch, smoother
    ):
        # The backfit starts cold on the selection's workspace, so the
        # output is byte for byte the output of a fresh workspace.
        name = f"backfit_{smoother}"
        backfit = getattr(cli, name)
        seen = []

        def shared(*args, workspace=None, **kwargs):
            seen.append(workspace)
            return backfit(*args, workspace=workspace, **kwargs)

        def fresh(*args, workspace=None, **kwargs):
            return backfit(*args, **kwargs)

        argv = ["fit", csv3, "--smoother", smoother, "--candidates", "8"]
        outs = []
        for stub in (shared, fresh):
            monkeypatch.setattr(cli, name, stub)
            outs.append(tmp_path / f"{stub.__name__}.json")
            assert main([*argv, "--out", str(outs[-1])]) == 0
        (ws,) = seen
        h = tuple(json.loads(outs[0].read_text())["bandwidths"])
        assert any(entry[-1] == h for entry in ws._fits)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_fixed_bandwidths_bypass_selection(self, csv3, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", csv3, "--h", "0.2,0.25,0.3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["bandwidths"] == [0.2, 0.25, 0.3]
        assert "selection" not in doc

    def test_round_trip_reproduces_curves(self, csv3, tmp_path):
        first = tmp_path / "first.json"
        assert main([
            "fit", csv3, "--method", "pls", "--candidates", "8",
            "--out", str(first),
        ]) == 0
        doc = json.loads(first.read_text())
        hs = ",".join(repr(v) for v in doc["bandwidths"])
        second = tmp_path / "second.json"
        assert main(["fit", csv3, "--h", hs, "--out", str(second)]) == 0
        redo = json.loads(second.read_text())
        assert redo["components"] == doc["components"]
        assert redo["intercept"] == doc["intercept"]

    def test_header_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        rng = np.random.default_rng(0)
        write_csv(
            path, rng.uniform(0, 1, (10, 3)), np.zeros(10),
            header=["x1", "x2", "y"],
        )
        assert main(["fit", str(path), "--h", "0.2,0.2"]) == 2

    def test_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "range.csv"
        # Blank lines count: the second file's bad row is on line 6, not
        # on the fourth line from the top with data.
        for text, line in [("x1,y\n0.5,0\n1.4,0\n0.3,0\n", 3),
                           ("x1,y\n0.5,1\n\n\n0.2,2\n1.5,3\n", 6)]:
            path.write_text(text)
            assert main(["fit", str(path), "--h", "0.2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"smoothfit: line {line}: covariate outside [0, 1]")

    def test_rescale_minmax(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-3.0, 7.0, (40, 1))
        y = x[:, 0] + rng.normal(0, 0.1, 40)
        path = tmp_path / "wide.csv"
        write_csv(path, x, y)
        out = tmp_path / "fit.json"
        code = main([
            "fit", str(path), "--rescale", "minmax", "--h", "0.3",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rescale"]["x1"]["min"] == pytest.approx(x.min())
        assert doc["rescale"]["x1"]["max"] == pytest.approx(x.max())

    def test_non_numeric_exits_2(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1,y\n0.5,1.0\noops,2.0\n")
        assert main(["fit", str(path), "--h", "0.2"]) == 2

    @pytest.mark.parametrize("rescale", [[], ["--rescale", "minmax"]])
    def test_nan_covariate_exits_2_without_output(self, tmp_path, capsys, rescale):
        path = tmp_path / "nan.csv"
        path.write_text("x1,x2,y\n0.5,0.2,1.0\n0.4,nan,2.0\n0.1,0.9,0.5\n")
        out = tmp_path / "sel.json"
        code = main(["select", str(path), "--method", "pl-star", *rescale,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "line 3: non-finite value" in capsys.readouterr().err

    def test_non_finite_result_is_a_numeric_failure(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(NumericError):
            _write_json({"bandwidths": [0.2, float("nan")]}, str(out))
        assert not out.exists()

    def test_numeric_failure_exits_3(self, csv1):
        # Positive but hopeless bandwidth: no grid point can see the
        # data, which is a solver-level failure, not an input error.
        assert main(["fit", csv1, "--h", "0.001"]) == 3

    def test_grid_point_without_observations_exits_3(self, tmp_path):
        # Covariate 0 has no observation within 0.1 of 0.458333.
        data = make_gap_dataset(d=2)
        path = tmp_path / "gap.csv"
        write_csv(path, data.x, data.y)
        proc = run_module("smoothfit", "fit", str(path), "--h", "0.1,0.2")
        assert proc.returncode == 3
        assert "empty kernel neighborhood on axis 0 at 0.458333" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestSelect:
    def test_select_emits_trace(self, csv1, tmp_path):
        out = tmp_path / "sel.json"
        code = main([
            "select", csv1, "--method", "pl-star", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "pl_star"
        assert len(doc["bandwidths"]) == 1
        assert len(doc["trace"]) == doc["outer_iterations"]

    def test_plugin_requires_local_linear(self, csv1):
        assert main(["select", csv1, "--method", "pl", "--smoother", "nw"]) == 2

    def test_deterministic(self, csv1, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["select", csv1, "--method", "pls", "--candidates", "10"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestSimulate:
    def test_small_study(self, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "simulate", "--model", "m2", "--n", "50", "--reps", "2",
            "--seed", "1", "--out", str(out),
            "--csv-prefix", str(tmp_path / "plot"),
        ]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert len(doc["replicates"]) == 2
        assert doc["schema_version"] == 1
        quant = (tmp_path / "plot_quantiles.csv").read_text().splitlines()
        assert quant[0] == "selector,rank,level,ase"
        assert len(quant) > 1

    def test_repeat_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["simulate", "--model", "m2", "--n", "50", "--reps", "2",
                "--seed", "1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_zero_reps_exits_2(self, tmp_path):
        assert main([
            "simulate", "--model", "m2", "--n", "50", "--reps", "0",
        ]) == 2

    def test_bad_selector_exits_2(self):
        # A repeated selector used to run twice and keep one record.
        for selectors in ("pls", "pls1,pls1", "ase1,pls1,ase1"):
            assert main([
                "simulate", "--model", "m2", "--n", "50", "--reps", "1",
                "--selectors", selectors,
            ]) == 2

    @pytest.mark.parametrize("model, selectors", [
        ("m1", ["--selectors", "pl_star"]), ("m2", []),
    ])
    def test_selector_without_nadaraya_watson_exits_2(self, model, selectors):
        assert main([
            "simulate", "--model", model, "--n", "100", "--reps", "1",
            "--smoother", "nw", *selectors,
        ]) == 2

    def test_thread_cap_invalid_exits_2(self, tmp_path, capsys):
        # A worker count below 1 is rejected as a bad --reps is.
        out = tmp_path / "never.json"
        argv = ["simulate", "--model", "m2", "--n", "50", "--reps", "1",
                "--out", str(out)]
        for workers in ("0", "-3"):
            assert main(argv + ["--workers", workers]) == 2
        assert capsys.readouterr().err.count("workers must be") == 2
        assert not out.exists()


class TestUnwritableOutput:
    SIMULATE = ["simulate", "--model", "m2", "--n", "50", "--reps", "1"]

    @pytest.mark.parametrize("argv, target", [
        (["fit", "{csv}", "--h", "0.3,0.3,0.3", "--out", "{missing}/x.json"],
         "{missing}/x.json"),
        (["fit", "{csv}", "--h", "0.3,0.3,0.3", "--out", "{tmp}"], "{tmp}"),
        (["select", "{csv}", "--candidates", "6", "--out", "{missing}/x.json"],
         "{missing}/x.json"),
        ([*SIMULATE, "--out", "{missing}/x.json"], "{missing}/x.json"),
        ([*SIMULATE, "--out", "{tmp}/r.json", "--csv-prefix", "{missing}/plot"],
         "{missing}/plot_quantiles.csv"),
    ], ids=["fit", "fit-directory", "select", "simulate", "csv-prefix"])
    def test_exits_2_with_one_line(self, csv3, tmp_path, capsys, argv, target):
        # Each of these used to end in a FileNotFoundError or
        # IsADirectoryError traceback.
        names = dict(csv=csv3, tmp=tmp_path, missing=tmp_path / "missing")
        assert main([a.format(**names) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"smoothfit: cannot write {target.format(**names)}: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("argv", [
        [*SIMULATE, "--out", "-", "--csv-prefix", "{missing}/plot"],
        [*SIMULATE, "--out", "{missing}/x.json"],
        [*SIMULATE, "--out", "{tmp}/kept.json", "--csv-prefix", "{missing}/plot"],
    ], ids=["stdout-csv-prefix", "out", "file-csv-prefix"])
    def test_simulate_checks_every_output_before_the_study(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        def study(config):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_study", study)
        kept = tmp_path / "kept.json"
        kept.write_text("as it was\n", encoding="utf-8")
        names = dict(tmp=tmp_path, missing=tmp_path / "missing")
        assert main([a.format(**names) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("smoothfit: cannot write ") and err.count("\n") == 1
        assert kept.read_text(encoding="utf-8") == "as it was\n"


class TestEntryPoint:
    def test_module_invocation(self, csv1):
        proc = run_module("smoothfit.cli", "fit", csv1, "--h", "0.3")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["bandwidths"] == [0.3]

    def test_package_invocation_is_the_cli(self, csv3):
        proc = run_module("smoothfit", "--help")
        assert proc.returncode == 0
        assert "select" in proc.stdout
        outs = []
        for module in ("smoothfit", "smoothfit.cli"):
            proc = run_module(module, "select", csv3, "--candidates", "6", "--out", "-")
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["command"] == "select"


# The CSV reader before numpy's parser took the well-formed files: every
# file must give bitwise the same arrays, or the same error, as this.


def _ref_read_csv(path):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise _InputError("input file is empty")
        header = [c.strip() for c in header]
        d = len(header) - 1
        expected = [f"x{i}" for i in range(1, d + 1)] + ["y"]
        if d < 1 or header != expected:
            raise _InputError(
                f"header must be x1,...,xd,y; got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise _InputError(
                    f"line {lineno}: expected {d + 1} fields, found {len(row)}"
                )
            try:
                values = [float(c) for c in row]
            except ValueError:
                raise _InputError(f"line {lineno}: non-numeric value") from None
            if not all(map(math.isfinite, values)):
                raise _InputError(f"line {lineno}: non-finite value")
            rows.append(values)
        if not rows:
            raise _InputError("no data rows")
    arr = np.asarray(rows, dtype=float)
    return arr[:, :d], arr[:, d]


def _outcome(read, path):
    try:
        return read(path)
    except _InputError as err:
        return str(err)


class TestReadCsv:
    def _same(self, path):
        new, ref = _outcome(_read_csv, path), _outcome(_ref_read_csv, path)
        if isinstance(ref, str):
            assert new == ref
            return ref
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return None

    def test_random_doubles_parse_bitwise(self, tmp_path):
        rng = np.random.default_rng(60)
        x = rng.uniform(0, 1, (500, 3))
        x[:5] = [0.0, 1.0, 5e-324]
        y = rng.normal(0, 1e3, 500) * 10.0 ** rng.integers(-30, 30, 500)
        path = tmp_path / "many.csv"
        lines = ["x1,x2,x3,y"] + [
            ",".join(f"{v:{fmt}}" for v in (*row, yi))
            for row, yi, fmt in zip(x, y, ["", ".17g", ".6e", ".3f"] * 125)
        ]
        path.write_text("\n".join(lines) + "\n")
        assert _parse_fast(path.read_text().split("\n", 1)[1], 3) is not None
        assert self._same(path) is None

    @pytest.mark.parametrize("text", [
        "x1,x2,y\r\n0.1,0.2,3\r\n0.4,0.5,6\r\n",
        "x1,x2,y\n0.1,0.2,3\n\n\n0.4,0.5,6\n\n",
        "x1,x2,y\n0.1,0.2,3\n0.4,0.5,6",
        "x1,x2,y\n 0.1 ,0.2,  3\n0.4,\t0.5 ,6\n",
        "x1,x2,y\n1e-1,2.5E-1,+3e2\n4e-01,.5,-6.\n",
        "x1,x2,y\n0.1,0.2,1_0\n0.4,0.5,6\n",
        'x1,x2,y\n"0.1",0.2,3\n0.4,"0.5","6"\n',
        'x1,x2,y\n0.1,0.2,"3\n"\n0.4,0.5,6\n',
        "x1,x2,y\r0.1,0.2,3\r0.4,0.5,6\r",
    ])
    def test_valid_files_match_the_row_loop(self, tmp_path, text):
        path = tmp_path / "valid.csv"
        path.write_bytes(text.encode())
        assert self._same(path) is None

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,y\n0.1,0.2,3\n   \n0.4,0.5,6\n", "line 3: expected 3 fields, found 1"),
        ("x1,x2,y\n0.1,0.2\n0.3,0.4,0.5,0.6\n", "line 2: expected 3 fields, found 2"),
        ("x1,x2,y\n0.1,0.2,3\n0.4,nan,6\n", "line 3: non-finite value"),
        ("x1,x2,y\n0.1,0.2,inf\n0.4,0.5,6\n", "line 2: non-finite value"),
        ("x1,x2,y\n0.1,0.2,3\n# note,0.5,6\n", "line 3: non-numeric value"),
        ("x1,x2,y\n0.1,0.2,3\n0.4,half,6\n", "line 3: non-numeric value"),
        ("x1,x2,y\n0.1,,3\n", "line 2: non-numeric value"),
        ("x1,x2,y\n\n\n", "no data rows"),
        ("", "input file is empty"),
    ])
    def test_invalid_files_fail_like_the_row_loop(self, tmp_path, text, message):
        path = tmp_path / "invalid.csv"
        path.write_bytes(text.encode())
        assert self._same(path) == message
        assert main(["fit", str(path), "--h", "0.2,0.2"]) == 2


class TestSearchBox:
    @pytest.mark.parametrize("box, h0", [("0.05,0.3", 0.1), ("0.2,0.5", 0.2)])
    def test_candidates_start_and_end_on_the_box(self, box, h0):
        # At n = 20000 the box used to round-trip through factors of
        # n^(-1/5) and end at 0.30000000000000004.
        rng = np.random.default_rng(3)
        data = cli.Dataset(x=rng.uniform(0, 1, (20000, 2)), y=np.zeros(20000))
        args = cli.build_parser().parse_args(["select", "in.csv", "--box", box])
        spec = cli._search_spec(args, data)
        lo, hi = (float(c) for c in box.split(","))
        assert spec.candidates[0] == lo and spec.candidates[-1] == hi
        assert spec.candidates.size == 25
        np.testing.assert_array_equal(spec.h0, [h0, h0])


class TestNonFiniteOptions:
    def test_box_with_infinite_end_exits_2(self, csv3, capsys):
        assert main(["select", csv3, "--box", "0.05,inf"]) == 2
        err = capsys.readouterr().err
        assert "--box" in err and "Warning" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_bandwidth_exits_2(self, csv3, capsys, value):
        assert main(["fit", csv3, "--h", f"{value},0.1,0.1"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("h, message", [
        ("0.3,0.3", "need 3 bandwidths, got 2"),
        ("0.3,0.3,0.3,0.3", "need 3 bandwidths, got 4"),
        ("0.3,0,0.3", "bandwidth must be finite and positive, got 0.0"),
        ("0.3,0.3,-0.1", "bandwidth must be finite and positive, got -0.1"),
        ("0.3,,0.3", "cannot parse bandwidths '0.3,,0.3'"),
    ])
    def test_bad_bandwidths_exit_2_with_the_library_message(self, csv3, capsys, h, message):
        assert main(["fit", csv3, "--h", h]) == 2
        assert capsys.readouterr().err == f"smoothfit: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pilot_factor_exits_2_on_select(self, csv3, capsys, value):
        # Checked whether or not the method uses a pilot, as a study does.
        for command, *flags in (["select", "--method", "pl-star"],
                                ["select", "--method", "pls"],
                                ["fit", "--h", "0.3,0.3,0.3"]):
            assert main([command, csv3, *flags, "--pilot-factor", value]) == 2
            err = capsys.readouterr().err
            assert "pilot factor must be positive and finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pilot_factor_exits_2_on_simulate(self, value):
        assert main(["simulate", "--model", "m2", "--n", "50", "--reps", "1",
                     "--pilot-factor", value]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["simulate", "--model", "m2", "--n", "50", "--reps", "1",
                     "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_covariate_variance_exits_2(self, value):
        assert main(["simulate", "--model", "m2", "--n", "50", "--reps", "1",
                     "--cov-var", value]) == 2
