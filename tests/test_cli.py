import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from hypkernels import cli, geometry, learning
from hypkernels.geometry import BallPoint, Curvature, TangentVector, exp0
from hypkernels.kernels import MAX_GRAM_SIZE, gram
from hypkernels.learning import init_params

SRC = Path(__file__).resolve().parents[1] / "src"
QUICKSTART = SRC.parent / "configs" / "quickstart.json"
# The committed golden files and the script that rewrites them: a change
# that moves a byte of them is a declared replay break (see README).
GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)
VARIANTS = ("da", "ahl", "ahpoly", "ahrbf", "ahlap", "base", "ahrad")
VARIANT_EXTRA = {
    "ahpoly": {"offset": 1.0, "degree": 2},
    "ahrbf": {"bandwidth": 1.0},
    "ahlap": {"bandwidth": 1.0},
}


@pytest.fixture
def features_csv(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("x0,x1\n0.1,0.2\n-0.3,0.05\n0.0,0.4\n")
    return path


@pytest.fixture
def gram_config(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({
        "version": 1,
        "curvature": 1.0,
        "projection": {"kind": "exp0"},
        "kernel": {"variant": "ahrad", "m": 2, "truncation": 5, "init_seed": 3},
    }))
    return path


@pytest.fixture
def train_config(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({
        "version": 1,
        "task": "fsl",
        "kernel": {"variant": "ahrad", "m": 2, "truncation": 5, "init_seed": 0},
        "dataset": {"seed": 0, "noise_sigma": 0.35},
        "episode": {"n_way": 5, "n_shot": 1, "n_query": 3},
        "optimizer": {"mode": "adam", "lr": 0.05, "steps": 4},
        "train_seed": 1,
        "eval": {"episodes": 10, "seed": 2},
    }))
    return path


class TestGramCommand:
    def test_matches_library_bit_for_bit(self, tmp_path, features_csv, gram_config):
        out = tmp_path / "G.csv"
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(gram_config), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        got = np.array([[complex(v) for v in row] for row in rows])

        cfg = json.loads(gram_config.read_text())
        curvature = Curvature(cfg["curvature"])
        _, config = cli._gram_config(cli._gram_values(cfg), 2)
        feats, _ = cli._read_features(str(features_csv))
        points = [exp0(TangentVector(row), curvature) for row in feats]
        expected = gram(config, points).entries
        assert np.array_equal(got, expected)

    def test_label_column_skipped(self, tmp_path, gram_config):
        feats = tmp_path / "labeled.csv"
        feats.write_text("label,x0,x1\na,0.1,0.2\nb,0.3,0.1\n")
        out = tmp_path / "G.csv"
        assert cli.main(["gram", "--features", str(feats),
                         "--config", str(gram_config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_bad_cell_reports_position(self, tmp_path, gram_config, capsys):
        feats = tmp_path / "bad.csv"
        feats.write_text("x0,x1\n0.1,0.2\n0.3,oops\n")
        rc = cli.main(["gram", "--features", str(feats),
                       "--config", str(gram_config), "--out", str(tmp_path / "G")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "column 2" in err

    def test_ragged_row_rejected(self, tmp_path, gram_config):
        feats = tmp_path / "ragged.csv"
        feats.write_text("x0,x1\n0.1\n")
        assert cli.main(["gram", "--features", str(feats),
                         "--config", str(gram_config),
                         "--out", str(tmp_path / "G")]) == 2

    def test_empty_data_rejected(self, tmp_path, gram_config):
        feats = tmp_path / "empty.csv"
        feats.write_text("x0,x1\n")
        assert cli.main(["gram", "--features", str(feats),
                         "--config", str(gram_config),
                         "--out", str(tmp_path / "G")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, features_csv):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"version": 1, "kernel": {"variant": "da"},
                                   "smoothing": True}))
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "G")]) == 2

    def test_config_keys_checked_before_features(self, tmp_path, capsys):
        # Unknown keys and the projection are reported before the features
        # file is read: here it does not exist.
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"version": 1, "kernel": {"variant": "ahl"},
                                   "smoothing": True}))
        assert cli.main(["gram", "--features", str(tmp_path / "missing.csv"),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "G")]) == 2
        assert capsys.readouterr().err == "error: unknown key(s) ['smoothing'] in config\n"

    def test_missing_version_rejected(self, tmp_path, features_csv):
        cfg = tmp_path / "nover.json"
        cfg.write_text(json.dumps({"kernel": {"variant": "da"}}))
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "G")]) == 2

    def test_malformed_json_rejected(self, tmp_path, features_csv, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"version": 1,,}')
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "G")]) == 2
        assert "line" in capsys.readouterr().err

    def test_invalid_curvature_is_geometry_error(self, tmp_path, features_csv):
        cfg = tmp_path / "curv.json"
        cfg.write_text(json.dumps({"version": 1, "curvature": -1.0,
                                   "kernel": {"variant": "da"}}))
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "G")]) == 3

    def test_default_truncation_is_runconfig_default(self, tmp_path, features_csv):
        outs = []
        for extra in ({}, {"truncation": 8}):
            cfg = tmp_path / f"ahrad{len(extra)}.json"
            cfg.write_text(json.dumps({
                "version": 1, "kernel": {"variant": "ahrad", "init_seed": 3, **extra},
            }))
            out = tmp_path / f"G{len(extra)}.csv"
            assert cli.main(["gram", "--features", str(features_csv),
                             "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_numerical_error_exit_code(self, tmp_path, features_csv, gram_config,
                                       monkeypatch, capsys):
        def fail(config, points):
            raise ArithmeticError("squared distance -1 below rounding tolerance")

        monkeypatch.setattr(cli, "gram", fail)
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(gram_config),
                         "--out", str(tmp_path / "G")]) == cli.EXIT_NUMERICAL_ERROR == 5
        assert "numerical error:" in capsys.readouterr().err


def _write_features(path, x):
    lines = [",".join(f"x{k}" for k in range(x.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n")


def _write_gram_config(path, variant, c):
    path.write_text(json.dumps({
        "version": 1, "curvature": c, "projection": {"kind": "exp0"},
        "kernel": {"variant": variant, "m": 2, "truncation": 50, "init_seed": 0,
                   "init_scale": 0.1, **VARIANT_EXTRA.get(variant, {})},
    }))


class TestGramWriter:
    """`cli.gram_csv` against the per-entry writer it replaced
    (tests/oracle.py), and the batched projection against exp0 of each
    row, byte for byte."""

    @pytest.mark.parametrize("c", [0.02, 1.0])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gram_command_matches_per_entry_reference(self, tmp_path, variant, c):
        cfg = tmp_path / "cfg.json"
        _write_gram_config(cfg, variant, c)
        curvature = Curvature(c)
        _, config = cli._gram_config(cli._gram_values(json.loads(cfg.read_text())), 8)
        for n in (1, 2, 33, 128):
            feats = tmp_path / f"x{n}.csv"
            _write_features(feats, np.random.default_rng([n, 8]).standard_normal((n, 8)))
            out = tmp_path / f"G{n}.csv"
            assert cli.main(["gram", "--features", str(feats), "--config", str(cfg),
                             "--out", str(out)]) == 0
            x, _ = cli._read_features(str(feats))
            points = [exp0(TangentVector(row), curvature) for row in x]
            assert out.read_text() == oracle.gram_csv(gram(config, points).entries), n

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_complex_points(self, variant):
        rng = np.random.default_rng(7)
        curvature = Curvature(1.0)
        _, config = cli._gram_config(cli._gram_values(
            {"kernel": {"variant": variant, "m": 2, **VARIANT_EXTRA.get(variant, {})},
             "curvature": 1.0}), 3)
        Z = rng.standard_normal((17, 3)) + 1j * rng.standard_normal((17, 3))
        Z *= 0.9 / np.linalg.norm(Z, axis=1, keepdims=True) * rng.uniform(0, 1, (17, 1))
        G = gram(config, [BallPoint(z, curvature) for z in Z]).entries
        # Complex points give complex128 entries for every variant.  da, ahl
        # and ahpoly are complex off the diagonal; the other families are
        # real, with -0.0 imaginary parts in the lower triangle.
        assert G.dtype == np.complex128
        if variant in ("da", "ahl", "ahpoly"):
            assert np.count_nonzero(G.imag) == 17 * 16
        else:
            assert np.signbit(G.imag[np.tril_indices(17, -1)]).all()

    def test_complex_matrix_refused(self):
        # gram reads real features, so a complex matrix here is a bug.
        G = np.array([[1.5, 0.25 - 1e-4j], [0.25 + 1e-4j, 2.0]])
        with pytest.raises(TypeError, match="complex"):
            cli.gram_csv(G)
        with pytest.raises(TypeError, match="complex"):
            cli.gram_csv(G.real.astype(np.complex128))

    def test_hand_built_hermitian(self):
        # Real symmetric matrices of special values: signed zeros,
        # subnormals, nan and infinities.
        values = [0.0, -0.0, 5e-324, -1e-320, 1e-300, 1e-20, 0.1, 1 / 3, -2.25,
                  1.0, 123456789.0, 1e300, -1e300, np.nan, np.inf, -np.inf]
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 24):
            G = rng.choice(values, (n, n))
            lower = np.tril_indices(n, -1)
            G[lower] = G.T[lower]
            assert cli.gram_csv(G) == oracle.gram_csv(G), n

    def test_projection_calls_exp0_only_for_poles(self, tmp_path, monkeypatch):
        # The features are projected in one call of the projection layer
        # and the m poles of diff.materialize in another; the single-vector
        # geometry.exp0 is not called.
        calls = []
        for name in ("exp0", "_exp0"):
            original = getattr(geometry, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            for module in (geometry, learning):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        cfg = tmp_path / "cfg.json"
        _write_gram_config(cfg, "ahrad", 1.0)
        feats = tmp_path / "x.csv"
        _write_features(feats, np.random.default_rng(0).standard_normal((128, 8)))
        assert cli.main(["gram", "--features", str(feats), "--config", str(cfg),
                         "--out", str(tmp_path / "G.csv")]) == 0
        assert calls == ["_exp0", "_exp0"]


class TestReader:
    @staticmethod
    def _per_cell(path):
        """The array that float() of each cell gives, for a file with a
        header row and no bad cell."""
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        start = 1 if header[0].strip().lower() == "label" else 0
        return np.array([[float(cell) for cell in row[start:]] for row in rows if row])

    @pytest.mark.parametrize("text,label", [
        ('x0,x1\n"0.5","-1e-3"\n\n 0.25 ,\t7\n\n', False),
        ("label,x0,x1\na,1,2\n\nb , 3.5e10 ,-0.0\n", True),
        ('label,x0\n"x,y",0.1\n', True),
    ], ids=["quoted-blank-spaces", "label-blank-spaces", "quoted-label"])
    def test_accepted_files_parse_as_per_cell_float(self, tmp_path, text, label):
        feats = tmp_path / "x.csv"
        feats.write_text(text)
        x, labels = cli._read_features(str(feats))
        want = self._per_cell(feats)
        assert x.dtype == np.float64 and x.shape == want.shape
        assert x.tobytes() == want.tobytes()
        assert bool(labels) == label

    def test_random_values_bit_identical_to_per_cell_float(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-300, 300, (50, 6))
        feats = tmp_path / "x.csv"
        _write_features(feats, x)
        got, _ = cli._read_features(str(feats))
        assert got.tobytes() == x.tobytes() == self._per_cell(feats).tobytes()

    @pytest.mark.parametrize("text,message", [
        ("x0,x1\n0.1,0.2\n0.3,oops\n", "line 3, column 2: not a number: 'oops'"),
        ("x0,x1\n0.1,0.2\n1e999,0.3\n", "line 3, column 1: non-finite value"),
        ("label,x0,x1\na,0.1,0.2\n\nb,0.3,nan\n", "line 4, column 3: non-finite value"),
        ("x0,x1\n0.1,inf\n0.1\n", "line 2, column 2: non-finite value"),
        ("x0,x1\n0.1,x\n0.1\n", "line 2, column 2: not a number: 'x'"),
        ("x0,x1\n0.1,0.2\n0.1\n0.2,y\n", "line 3: expected 2 columns, got 1"),
        ("x0,x1\n0.1,0.2,0.3\n0.1,0.2,0.3\n", "line 2: expected 2 columns, got 3"),
    ], ids=["bad-cell", "overflow", "nan-after-blank", "inf-before-ragged",
            "bad-before-ragged", "ragged-before-bad", "all-rows-wide"])
    def test_first_bad_cell_named(self, tmp_path, text, message):
        # The message names the first fault in file order, as a reader
        # that checks cell by cell would.
        feats = tmp_path / "x.csv"
        feats.write_text(text)
        with pytest.raises(cli.ConfigFileError) as err:
            cli._read_features(str(feats))
        assert str(err.value) == f"{feats}: {message}"

    def test_first_bad_line_reported(self, tmp_path):
        # A non-finite cell on line 2 is reported before a non-number on line 5.
        feats = tmp_path / "x.csv"
        feats.write_text("x0,x1\n0.1,inf\n0.1,0.2\n0.3,0.4\n0.5,oops\n")
        with pytest.raises(cli.ConfigFileError, match="line 2, column 2: non-finite"):
            cli._read_features(str(feats))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_cells(self, tmp_path, cell):
        feats = tmp_path / "x.csv"
        feats.write_text(f"label,x0,x1\na,0.1,0.2\nb,0.3,{cell}\n")
        with pytest.raises(cli.ConfigFileError) as err:
            cli._read_features(str(feats))
        assert str(err.value) == f"{feats}: line 3, column 3: non-finite value"


class TestGramSizeLimit:
    def test_largest_accepted_size(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_gram_config(cfg, "ahl", 1.0)
        x = np.random.default_rng(5).standard_normal((MAX_GRAM_SIZE + 1, 8))
        feats = tmp_path / "x.csv"
        _write_features(feats, x[:MAX_GRAM_SIZE])
        out = tmp_path / "G.csv"
        assert cli.main(["gram", "--features", str(feats), "--config", str(cfg),
                         "--out", str(out)]) == 0
        cells = [line.split(",") for line in out.read_text().splitlines()]
        assert len(cells) == MAX_GRAM_SIZE
        assert all(len(row) == MAX_GRAM_SIZE for row in cells)
        # ahl entries are real on real features, so each lower cell is the
        # text of its mirror.
        assert all(cells[i][j] == cells[j][i]
                   for i in range(MAX_GRAM_SIZE) for j in range(i))

    def test_one_more_point_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_gram_config(cfg, "ahl", 1.0)
        feats = tmp_path / "x.csv"
        _write_features(feats, np.random.default_rng(5).standard_normal(
            (MAX_GRAM_SIZE + 1, 8)))
        assert cli.main(["gram", "--features", str(feats), "--config", str(cfg),
                         "--out", str(tmp_path / "G.csv")]) == cli.EXIT_GEOMETRY_ERROR
        assert capsys.readouterr().err == (
            f"geometry error: point set of size {MAX_GRAM_SIZE + 1} exceeds the "
            f"maximum {MAX_GRAM_SIZE}\n")
        assert not (tmp_path / "G.csv").exists()


def test_gram_builds_no_point_per_row(tmp_path, monkeypatch):
    # Every BallPoint, however it is made, sets its coords through the
    # class attribute.  The poles are one matrix, so none is built.
    built = []

    class Counted:
        def __set__(self, point, coords):
            built.append(point)
            point.__dict__["coords"] = coords

        def __get__(self, point, owner=None):
            return self if point is None else point.__dict__["coords"]

    monkeypatch.setattr(BallPoint, "coords", Counted(), raising=False)
    cfg = tmp_path / "cfg.json"
    _write_gram_config(cfg, "ahrad", 1.0)
    feats = tmp_path / "x.csv"
    _write_features(feats, np.random.default_rng(6).standard_normal((128, 8)))
    assert cli.main(["gram", "--features", str(feats), "--config", str(cfg),
                     "--out", str(tmp_path / "G.csv")]) == 0
    assert built == []
    point = BallPoint(np.zeros(2), Curvature(1.0))   # the counter sees a point
    assert {id(p) for p in built} == {id(point)}


def _config_case(command, tmp_path, top=None, kernel=None):
    """A gram or train config with the given top-level and kernel keys,
    and the arguments that run it."""
    cfg = {"version": 1,
           "kernel": {"variant": "ahrad", "m": 2, "truncation": 3, **(kernel or {})}}
    cfg.update(top or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    if command == "train":
        return ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    feats = tmp_path / "x.csv"
    feats.write_text("x0,x1\n0.1,0.2\n-0.3,0.05\n")
    return ["gram", "--features", str(feats), "--config", str(path),
            "--out", str(tmp_path / "G.csv")]


CLIP = {"kind": "clip", "eps": 0.1}


@pytest.mark.parametrize("command", ["gram", "train"])
@pytest.mark.parametrize("top,kernel,message", [
    ({"curvature": "x"}, None, 'curvature must be a number, got "x"'),
    ({"curvature": None}, None, "curvature must be a number, got null"),
    ({"curvature": [1]}, None, "curvature must be a number, got [1]"),
    (None, {"m": "two"}, 'kernel.m must be a number, got "two"'),
    (None, {"m": 0}, "kernel.m must be at least 1, got 0"),
    (None, {"truncation": 0}, "kernel.truncation must be at least 1, got 0"),
    (None, {"m": 2.7}, "kernel.m must be an integer, got 2.7"),
    ({"projection": {**CLIP, "beta": "x"}}, None,
     'projection.beta must be a number, got "x"'),
    ({"projection": {**CLIP, "beta": True}}, None,
     "projection.beta must be a number, got true"),
], ids=["curvature-str", "curvature-null", "curvature-list", "m-str", "m-0",
        "truncation-0", "m-fraction", "beta-str", "beta-bool"])
def test_config_numbers_are_checked(tmp_path, capsys, command, top, kernel, message):
    args = _config_case(command, tmp_path, top, kernel)
    assert cli.main(args) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["gram", "train"])
def test_integral_numbers_accepted(tmp_path, command):
    # An integer field may be written as an integral float, and a float
    # field as an integer.
    top = {"curvature": 1}
    if command == "train":
        top["optimizer"] = {"steps": 0.0}
    args = _config_case(command, tmp_path, top, {"m": 2.0, "truncation": 3, "init_scale": 1})
    assert cli.main(args) == cli.EXIT_OK


RUN_BASE = {"version": 1, "task": "fsl",
            "kernel": {"variant": "ahrad", "m": 2, "truncation": 3},
            "optimizer": {"steps": 2}, "eval": {"episodes": 4}}
CHECK_BASE = {"version": 1, "trials": 5, "points": 4, "m": 2,
              "curvatures": [1.0], "dims": [2]}

# Config mistakes, each with the exit code and a stderr fragment it gives:
# (patch to the base config, code, prefix, fragment).  A dict value in the
# patch updates the base's section of that name.
RUN_PROBES = {
    "optimizer-mode": ({"optimizer": {"mode": "nope"}}, 2, "error",
                       "unknown optimizer mode 'nope'"),
    "blocks": ({"optimizer": {"blocks": ["nope"]}}, 2, "error",
               "unknown parameter block 'nope'"),
    "blocks-not-list": ({"optimizer": {"blocks": 5}}, 2, "error",
                        "optimizer.blocks must be a list, got 5"),
    "score-mode": ({"score_mode": "nope"}, 2, "error", "unknown score mode 'nope'"),
    "n_way-50": ({"episode": {"n_way": 50}}, 2, "error", "cannot sample 50 ways"),
    "depth-1": ({"dataset": {"depth": 1}}, 2, "error",
                "dataset.depth must be at least 2, got 1"),
    "episodes-0": ({"eval": {"episodes": 0}}, 2, "error",
                   "eval.episodes must be at least 1, got 0"),
    "n_shot-20": ({"episode": {"n_shot": 20}}, 2, "error", "fewer than 23 samples"),
    "n_shot-0": ({"episode": {"n_shot": 0}}, 2, "error",
                 "episode.n_shot must be at least 1, got 0"),
    "n_query-0": ({"episode": {"n_query": 0}}, 2, "error",
                  "episode.n_query must be at least 1, got 0"),
    "n_way-0": ({"episode": {"n_way": 0}}, 2, "error",
                "episode.n_way must be at least 1, got 0"),
    "sts-batch-0": ({"task": "sts", "sts": {"batch": 0}}, 2, "error",
                    "sts.batch must be at least 1, got 0"),
    "variant": ({"kernel": {"variant": "nope"}}, 3, "geometry error",
                "unknown kernel variant 'nope'"),
    "init-scale-nan": ({"kernel": {"init_scale": float("nan")}}, 2, "error",
                       "NaN is not a JSON number"),
    "section-not-object": ({"dataset": 5}, 2, "error", "dataset must be an object, got 5"),
}
EVAL_PROBES = ("score-mode", "n_way-50", "n_shot-20", "episodes-0", "n_shot-0",
               "n_query-0", "n_way-0", "variant")
CHECK_PROBES = {
    "points-str": ({"points": "x"}, 2, "error", 'points must be a number, got "x"'),
    "tol-str": ({"tol": {"psd": "x"}}, 2, "error", 'tol.psd must be a number, got "x"'),
    "tol-negative": ({"tol": {"isometry": -1}}, 2, "error",
                     "tol.isometry must be at least 0, got -1.0"),
    "curvature-negative": ({"curvatures": [-1]}, 3, "geometry error",
                           "curvature must be positive and finite"),
    "dims-0": ({"dims": [0]}, 2, "error", "dims[0] must be at least 1, got 0"),
    "dims-not-list": ({"dims": 2}, 2, "error", "dims must be a list, got 2"),
    "trials-fraction": ({"trials": 2.5}, 2, "error", "trials must be an integer, got 2.5"),
    "seed-negative": ({"seed": -1}, 2, "error", "seed must be at least 0, got -1"),
    "curvatures-empty": ({"curvatures": []}, 2, "error", "curvatures must not be empty"),
    "dims-empty": ({"dims": []}, 2, "error", "dims must not be empty"),
}


def _patched(base, patch):
    return {**base, **{k: {**base[k], **v} if isinstance(v, dict) and k in base else v
                       for k, v in patch.items()}}


def _probe_args(command, case, tmp_path):
    cfg = tmp_path / "cfg.json"
    if command == "check":
        cfg.write_text(json.dumps(_patched(CHECK_BASE, CHECK_PROBES[case][0])))
        return ["check", "--suite", "all", "--config", str(cfg),
                "--out", str(tmp_path / "report.ndjson")]
    run = _patched(RUN_BASE, RUN_PROBES[case][0])
    cfg.write_text(json.dumps(run))
    if command == "train":
        return ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    # Every eval probe keeps the base's parameter shapes.
    params = tmp_path / "params.json"
    run_config = cli._run_config_from_json(RUN_BASE)
    params.write_text(json.dumps(cli._params_to_json(init_params(run_config))))
    return ["eval", "--params", str(params), "--config", str(cfg)]


@pytest.mark.parametrize("command,case", [
    *[("train", case) for case in RUN_PROBES],
    *[("eval", case) for case in EVAL_PROBES],
    *[("check", case) for case in CHECK_PROBES],
])
def test_config_mistakes_map_to_documented_codes(tmp_path, capsys, command, case):
    # Each mistake exits with its table code and one stderr line, never
    # with a traceback and exit 1, the suite-failure code.
    _, code, prefix, fragment = (CHECK_PROBES if command == "check" else RUN_PROBES)[case]
    args = _probe_args(command, case, tmp_path)
    with np.errstate(all="ignore"):
        assert cli.main(args) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{prefix}: ") and fragment in lines[0]


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_train_curvature_must_be_a_json_boolean(tmp_path, capsys, value):
    # bool("false") is True: only a JSON boolean is read as one.
    args = _config_case("train", tmp_path, {"train_curvature": value}, None)
    assert cli.main(args) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"error: train_curvature must be true or false, got {json.dumps(value)}\n")


@pytest.mark.parametrize("value", [True, False])
def test_train_curvature_booleans_accepted(value):
    run = cli._run_config_from_json({"version": 1, "train_curvature": value})
    assert run.train_curvature is value


@pytest.mark.parametrize("command,case", [
    (command, case) for command in ("train", "eval")
    for case in ("optimizer-mode", "blocks", "score-mode")])
def test_bad_run_config_fails_before_the_dataset(tmp_path, capsys, monkeypatch,
                                                command, case):
    # The run config rejects these values as it is built, before the
    # dataset is generated or any episode is evaluated.
    args = _probe_args(command, case, tmp_path)
    built = []

    def dataset(config):
        built.append(config)
        raise AssertionError("dataset generated for a bad config")

    monkeypatch.setattr(learning, "_run_dataset", dataset)
    monkeypatch.setattr(cli, "_run_dataset", dataset)
    _, code, prefix, fragment = RUN_PROBES[case]
    assert cli.main(args) == code == cli.EXIT_INPUT_ERROR
    assert not built
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}: ") and fragment in err


def test_failure_outside_the_table_propagates(tmp_path, train_config, monkeypatch):
    def fail(config):
        raise TypeError("not a config mistake")

    monkeypatch.setattr(cli, "train", fail)
    with pytest.raises(TypeError, match="not a config mistake"):
        cli.main(["train", "--config", str(train_config), "--out", str(tmp_path / "run")])


def test_module_runs_as_script(tmp_path):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"version": 1, "dims": [0]}))
    proc = subprocess.run(
        [sys.executable, "-m", "hypkernels.cli", "check", "--suite", "psd",
         "--config", str(cfg), "--out", str(tmp_path / "report.ndjson")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == cli.EXIT_INPUT_ERROR
    assert proc.stderr == "error: dims[0] must be at least 1, got 0\n"


class TestParser:
    def test_build_parser_returns_fresh_parsers(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()

    def test_commands_in_one_process_match_separate_processes(
            self, tmp_path, features_csv, gram_config, train_config):
        check_cfg = tmp_path / "check.json"
        check_cfg.write_text(json.dumps({
            "version": 1, "seed": 0, "trials": 20, "points": 6, "m": 2,
            "curvatures": [1.0], "dims": [2],
        }))

        def commands(out):
            return [
                ["gram", "--features", str(features_csv), "--config", str(gram_config),
                 "--out", str(out / "G1.csv")],
                ["train", "--config", str(train_config), "--out", str(out / "run")],
                ["check", "--suite", "psd", "--config", str(check_cfg),
                 "--out", str(out / "check.ndjson")],
                ["gram", "--features", str(features_csv), "--config", str(gram_config),
                 "--out", str(out / "G2.csv")],
            ]

        one, separate = tmp_path / "one", tmp_path / "separate"
        one.mkdir()
        separate.mkdir()
        codes = [cli.main(argv) for argv in commands(one)]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        separate_codes = [
            subprocess.run([sys.executable, "-c",
                            "import sys; from hypkernels import cli; "
                            "raise SystemExit(cli.main(sys.argv[1:]))", *argv],
                           env=env, timeout=120).returncode
            for argv in commands(separate)
        ]
        assert codes == separate_codes == [0, 0, 0, 0]
        names = sorted(str(p.relative_to(one)) for p in one.rglob("*") if p.is_file())
        assert len(names) == 6
        for name in names:
            assert (one / name).read_bytes() == (separate / name).read_bytes(), name


class TestUnwritableOutput:
    """A path that cannot be written is an input error (exit 2), not a
    suite failure (exit 1) or a traceback."""

    def test_gram(self, tmp_path, features_csv, gram_config, capsys):
        out = tmp_path / "missing" / "G.csv"
        assert cli.main(["gram", "--features", str(features_csv),
                         "--config", str(gram_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_check(self, tmp_path, capsys):
        cfg = tmp_path / "check.json"
        cfg.write_text(json.dumps({"version": 1, "points": 6, "curvatures": [1.0],
                                   "dims": [2]}))
        out = tmp_path / "missing" / "report.ndjson"
        assert cli.main(["check", "--suite", "psd", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_train(self, tmp_path, train_config, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        assert cli.main(["train", "--config", str(train_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        out = tmp_path / "run"
        (out / "params.json").mkdir(parents=True)
        assert cli.main(["train", "--config", str(train_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {out / 'params.json'}: ")

    def test_eval(self, tmp_path, train_config, capsys):
        run = tmp_path / "run"
        assert cli.main(["train", "--config", str(train_config), "--out", str(run)]) == 0
        out = tmp_path / "missing" / "eval.json"
        capsys.readouterr()
        assert cli.main(["eval", "--params", str(run / "params.json"),
                         "--config", str(train_config), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("accuracy ")
        assert captured.err.startswith(f"error: cannot write {out}: ")


class TestKnownOutputs:
    def test_zero_pole_ahl_gram_is_all_ones(self, tmp_path):
        # With zero poles b(z) = -z, so the numerator cancels the
        # denominator and the kernel is identically 1.
        feats = tmp_path / "rows.csv"
        feats.write_text("x0,x1\n0.1,0.2\n0.1,0.2\n0.1,0.2\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1,
            "kernel": {"variant": "ahl", "m": 2, "init_scale": 0.0},
        }))
        out = tmp_path / "G.csv"
        assert cli.main(["gram", "--features", str(feats),
                         "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == "1,1,1\n1,1,1\n1,1,1\n"

    def test_quickstart_matches_golden_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(QUICKSTART), "--out", str(out)]) == 0
        for name in regenerate.TRAIN_FILES:
            assert (out / name).read_bytes() == (GOLDEN / "quickstart" / name).read_bytes(), name

    @pytest.mark.parametrize("name", [n for n in regenerate.SETS if n != "quickstart"])
    def test_matches_golden_files(self, name, tmp_path):
        for f, data in regenerate.produce(name, tmp_path).items():
            assert data == (GOLDEN / name / f).read_bytes(), f

    def test_zero_noise_dataset_evaluates_perfectly(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "task": "fsl",
            "kernel": {"variant": "ahrad", "m": 2, "truncation": 4},
            "dataset": {"seed": 0, "noise_sigma": 0.0},
            "optimizer": {"lr": 0.05, "steps": 0},
            "eval": {"episodes": 20, "seed": 1},
        }))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        stored = json.loads((out / "eval.json").read_text())
        assert stored["final"]["accuracy"] == 1.0

    def test_zero_steps_is_evaluation_only(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "task": "fsl",
            "kernel": {"variant": "ahrad", "m": 2, "truncation": 4},
            "dataset": {"seed": 0},
            "optimizer": {"steps": 0},
            "eval": {"episodes": 5, "seed": 1},
        }))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "loss_trace.csv").read_text() == "step,loss\n"
        assert (out / "eval.json").exists()


class TestCheckCommand:
    def make_config(self, tmp_path):
        path = tmp_path / "check.json"
        path.write_text(json.dumps({
            "version": 1, "seed": 0, "trials": 100, "points": 12, "m": 2,
            "curvatures": [1.0], "dims": [2],
        }))
        return path

    def test_all_suites_pass(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "report.ndjson"
        assert cli.main(["check", "--suite", "all", "--config", str(cfg),
                         "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["verdict"] == "pass" for r in records)
        assert {r["suite"] for r in records} == {"psd", "isometry", "identities"}

    def test_impossible_tolerance_fails(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "report.ndjson"
        assert cli.main(["check", "--suite", "isometry", "--config", str(cfg),
                         "--out", str(out), "--tol", "0"]) == 1

    @pytest.mark.parametrize("suite,key", [("isometry", "curvatures"), ("psd", "dims"),
                                           ("isometry", "dims"), ("psd", "curvatures")])
    def test_empty_grid_is_an_input_error(self, tmp_path, capsys, suite, key):
        # An empty grid would run no check and pass: it is refused.
        cfg = tmp_path / "check.json"
        cfg.write_text(json.dumps({"version": 1, key: []}))
        out = tmp_path / "report.ndjson"
        assert cli.main(["check", "--suite", suite, "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {key} must not be empty\n"
        assert not out.exists()

    def test_config_seed_checked_under_the_option(self, tmp_path, capsys):
        # --seed overrides the config's seed, which is still checked.
        cfg = tmp_path / "check.json"
        cfg.write_text(json.dumps({"version": 1, "seed": -1}))
        assert cli.main(["check", "--suite", "identities", "--config", str(cfg),
                         "--out", str(tmp_path / "r"), "--seed", "0"]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"

    def test_multiplier_outside_the_ball_is_a_suite_failure(self, tmp_path, monkeypatch):
        # A b(Z) row outside the ball fails the contraction identity: a
        # failing record and exit 1, not a geometry error.
        oracle.push_multiplier_outside(monkeypatch)
        cfg = self.make_config(tmp_path)
        out = tmp_path / "report.ndjson"
        assert cli.main(["check", "--suite", "identities", "--config", str(cfg),
                         "--out", str(out)]) == cli.EXIT_SUITE_FAILURE
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["verdict"] for r in records] == ["fail", "fail"]

    def test_unknown_suite(self, tmp_path):
        cfg = self.make_config(tmp_path)
        assert cli.main(["check", "--suite", "spectral", "--config", str(cfg),
                         "--out", str(tmp_path / "r")]) == 2


class TestTrainEval:
    def test_artifacts_written(self, tmp_path, train_config):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(train_config),
                         "--out", str(out)]) == 0
        assert (out / "loss_trace.csv").exists()
        assert (out / "params.json").exists()
        assert (out / "eval.json").exists()
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 5

    def test_rerun_byte_identical(self, tmp_path, train_config):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(train_config), "--out", str(a)])
        cli.main(["train", "--config", str(train_config), "--out", str(b)])
        for name in ("loss_trace.csv", "params.json", "eval.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_run(self, tmp_path, train_config):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(train_config), "--out", str(a)])
        cli.main(["train", "--config", str(train_config), "--out", str(b),
                  "--seed", "99"])
        assert (a / "loss_trace.csv").read_text() != (b / "loss_trace.csv").read_text()

    def test_eval_matches_train_report(self, tmp_path, train_config, capsys):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(train_config), "--out", str(out)])
        report = tmp_path / "eval.json"
        assert cli.main(["eval", "--params", str(out / "params.json"),
                         "--config", str(train_config),
                         "--out", str(report)]) == 0
        stored = json.loads((out / "eval.json").read_text())["final"]
        fresh = json.loads(report.read_text())
        assert fresh["accuracy"] == pytest.approx(stored["accuracy"], abs=1e-12)
        assert fresh["mean_loss"] == pytest.approx(stored["mean_loss"], abs=1e-12)

    def test_eval_rejects_mismatched_params(self, tmp_path, train_config):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(train_config), "--out", str(out)])
        blob = json.loads((out / "params.json").read_text())
        blob["radial_raws"] = blob["radial_raws"][:-2]
        bad = tmp_path / "bad_params.json"
        bad.write_text(json.dumps(blob))
        assert cli.main(["eval", "--params", str(bad),
                         "--config", str(train_config)]) == 2

    def test_numerical_error_exit_code(self, tmp_path, train_config, monkeypatch,
                                       capsys):
        def fail(config):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "train", fail)
        assert cli.main(["train", "--config", str(train_config),
                         "--out", str(tmp_path / "run")]) == cli.EXIT_NUMERICAL_ERROR
        assert "numerical error:" in capsys.readouterr().err

    def test_eval_numerical_error_exit_code(self, tmp_path, train_config,
                                            monkeypatch, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(train_config),
                         "--out", str(out)]) == 0

        def fail(*args, **kwargs):
            raise FloatingPointError("overflow in exp")

        monkeypatch.setattr(learning, "evaluate", fail)
        capsys.readouterr()
        assert cli.main(["eval", "--params", str(out / "params.json"),
                         "--config", str(train_config)]) == cli.EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.err == "numerical error: overflow in exp\n"
        assert captured.out == ""

    def test_boundary_eval_exit_code(self, tmp_path, capsys, monkeypatch):
        # At curvature 100 the unclamped exp0 rounds the projected points
        # onto the ball boundary and the scores are nan: eval, and train at
        # its initial eval, exit 5.
        oracle.unclamp_exp0(monkeypatch)
        cfg = tmp_path / "boundary.json"
        cfg.write_text(json.dumps({
            "version": 1, "task": "fsl", "curvature": 100.0,
            "kernel": {"variant": "ahl", "truncation": 4},
            "optimizer": {"steps": 2}, "eval": {"episodes": 20},
        }))
        params = tmp_path / "params.json"
        run = cli._run_config_from_json(json.loads(cfg.read_text()))
        params.write_text(json.dumps(cli._params_to_json(init_params(run))))
        with np.errstate(all="ignore"):
            assert cli.main(["eval", "--params", str(params),
                             "--config", str(cfg)]) == cli.EXIT_NUMERICAL_ERROR
            rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == cli.EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("numerical error: non-finite scores") == 2

    @pytest.mark.parametrize("variant,mode", [("ahrad", "distance"),
                                              ("base", "similarity"),
                                              ("ahrbf", "similarity"),
                                              ("ahlap", "similarity")])
    def test_boundary_eval_exit_code_in_normalised_variants(self, tmp_path, variant,
                                                            mode, capsys, monkeypatch):
        # Variants that normalise or clamp the kernel exit 5 on boundary
        # points too.
        oracle.unclamp_exp0(monkeypatch)
        cfg = tmp_path / "boundary.json"
        cfg.write_text(json.dumps({
            "version": 1, "task": "fsl", "curvature": 100.0, "score_mode": mode,
            "kernel": {"variant": variant, "truncation": 4}, "eval": {"episodes": 200},
        }))
        params = tmp_path / "params.json"
        run = cli._run_config_from_json(json.loads(cfg.read_text()))
        params.write_text(json.dumps(cli._params_to_json(init_params(run))))
        with np.errstate(all="ignore"):
            assert cli.main(["eval", "--params", str(params),
                             "--config", str(cfg)]) == cli.EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error: non-finite scores")

    def test_curvature_100_runs(self, tmp_path, capsys):
        # With the clamped exp0 the points of the boundary tests above stay
        # inside the ball: train and eval exit 0 with finite results.
        cfg = tmp_path / "c100.json"
        cfg.write_text(json.dumps({
            "version": 1, "task": "fsl", "curvature": 100.0,
            "kernel": {"variant": "ahl", "truncation": 4},
            "optimizer": {"steps": 2}, "eval": {"episodes": 20},
        }))
        run = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        report = tmp_path / "eval.json"
        assert cli.main(["eval", "--params", str(run / "params.json"),
                         "--config", str(cfg), "--out", str(report)]) == 0
        evals = json.loads((run / "eval.json").read_text())
        for res in (evals["initial"], evals["final"], json.loads(report.read_text())):
            assert all(np.isfinite(v) for v in res.values())
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["train", "gram"])
    def test_nan_clip_beta_is_input_error(self, tmp_path, features_csv, command,
                                          capsys):
        # The clip parameters are checked as the config is read (exit 2),
        # not when the points come out non-finite: a NaN is refused with
        # the file, which is strict JSON, and a beta that Projection
        # rejects (a GeometryError) is an input error, not exit 3.
        cfg = tmp_path / "clip.json"
        for beta, message in ((float("nan"), f"{cfg}: NaN is not a JSON number"),
                              (0, "beta must be positive, got 0.0"),
                              (-1, "beta must be positive, got -1.0")):
            projection = {"kind": "clip", "beta": beta, "eps": 0.1}
            if command == "train":
                cfg.write_text(json.dumps({"version": 1, "task": "fsl",
                                           "projection": projection}))
                args = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
            else:
                cfg.write_text(json.dumps({"version": 1, "projection": projection,
                                           "kernel": {"variant": "ahl"}}))
                args = ["gram", "--features", str(features_csv), "--config", str(cfg),
                        "--out", str(tmp_path / "G.csv")]
            assert cli.main(args) == cli.EXIT_INPUT_ERROR
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("log_c", [1000, -1000])
    def test_eval_rejects_curvature_overflow(self, tmp_path, train_config, log_c,
                                             capsys):
        # exp(log_c) must be a positive finite curvature; the file is
        # rejected as it is read, not by a traceback.
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(train_config),
                         "--out", str(out)]) == 0
        blob = json.loads((out / "params.json").read_text())
        blob["log_c"] = log_c
        bad = tmp_path / "bad_params.json"
        bad.write_text(json.dumps(blob))
        capsys.readouterr()
        assert cli.main(["eval", "--params", str(bad),
                         "--config", str(train_config)]) == cli.EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: log_c = ")
        assert captured.out == ""

    @pytest.mark.parametrize("key,value,message", [
        ("log_c", "x", 'log_c must be a number, got "x"'),
        ("log_c", True, "log_c must be a number, got true"),
        ("fixed_c", True, "fixed_c must be a number, got true"),
        ("fixed_c", None, "fixed_c must be a number, got null"),
        ("log_c", float("nan"), "NaN is not a JSON number"),
        ("pole_raws", {"a": 1}, 'pole_raws must be a list of numbers, got {"a": 1}'),
        ("pole_raws", "x", 'pole_raws must be a list of numbers, got "x"'),
        ("pole_raws", [[0.1, "x"]], 'pole_raws[0][1] must be a number, got "x"'),
        ("pole_raws", [[0.1, True]], "pole_raws[0][1] must be a number, got true"),
        ("pole_raws", [[0.1], [0.1, 0.2]], "pole_raws must have rows of equal length"),
        ("weight_logits", [0.1, None], "weight_logits[1] must be a number, got null"),
        ("radial_raws", 3, "radial_raws must be a list of numbers, got 3"),
        ("affine", [["1"]], 'affine[0][0] must be a number, got "1"'),
    ])
    def test_eval_checks_params_numbers(self, tmp_path, train_config, capsys, key, value,
                                        message):
        # log_c is a number or null, fixed_c a number and each array a list
        # (of lists) of numbers; the message names the key or the entry, and
        # true is not read as 1.
        run_config = cli._run_config_from_json(json.loads(train_config.read_text()))
        blob = cli._params_to_json(init_params(run_config))
        blob[key] = value
        bad = tmp_path / "bad_params.json"
        bad.write_text(json.dumps(blob))
        assert cli.main(["eval", "--params", str(bad),
                         "--config", str(train_config)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.endswith(f"{message}\n")

    @pytest.mark.parametrize("key", ["weight_logits", "affine", "derived"])
    def test_eval_requires_every_params_key(self, tmp_path, train_config, capsys, key):
        # Each key is read, so a missing one is an input error, not a KeyError.
        run_config = cli._run_config_from_json(json.loads(train_config.read_text()))
        blob = cli._params_to_json(init_params(run_config))
        del blob[key]
        bad = tmp_path / "bad_params.json"
        bad.write_text(json.dumps(blob))
        assert cli.main(["eval", "--params", str(bad),
                         "--config", str(train_config)]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: params file lacks key(s) ['{key}']\n"

    @pytest.mark.parametrize("option,value,message", [
        ("--seed", "-1", "--seed must be at least 0, got -1"),
        ("--tol", "nan", "--tol must be finite, got nan"),
        ("--tol", "inf", "--tol must be finite, got inf"),
        ("--tol", "-0.5", "--tol must be at least 0, got -0.5"),
    ])
    def test_check_options_checked(self, tmp_path, capsys, option, value, message):
        # The options pass the checks of the config keys they override,
        # before any suite runs: a NaN tolerance is no strict JSON in the
        # report, and an infinite one passes every suite.
        cfg = tmp_path / "check.json"
        cfg.write_text('{"version": 1}')
        out = tmp_path / "report.ndjson"
        assert cli.main(["check", "--suite", "all", "--config", str(cfg), "--out", str(out),
                         option, value]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_config_non_finite_constants_refused(self, tmp_path, capsys, constant):
        # Configs are strict JSON; Python's json module would accept these.
        cfg = tmp_path / "check.json"
        cfg.write_text('{"version": 1, "tol": {"psd": %s}}' % constant)
        assert cli.main(["check", "--suite", "psd", "--config", str(cfg),
                         "--out", str(tmp_path / "r")]) == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {cfg}: {constant} is not a JSON number\n"

    def test_ahpoly_runs_with_default_offset(self, tmp_path):
        cfg = tmp_path / "poly.json"
        cfg.write_text(json.dumps({
            "version": 1, "task": "fsl", "kernel": {"variant": "ahpoly"},
            "optimizer": {"steps": 3}, "eval": {"episodes": 2},
        }))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 0

    def test_params_report_round_trip(self, tmp_path, train_config):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(train_config), "--out", str(out)])
        blob = json.loads((out / "params.json").read_text())
        p = cli._params_from_json(blob)
        assert cli._params_to_json(p) == blob

    def test_alphas_nonnegative(self, tmp_path, train_config):
        out = tmp_path / "run"
        cli.main(["train", "--config", str(train_config), "--out", str(out)])
        blob = json.loads((out / "params.json").read_text())
        assert all(a >= 0 for a in blob["derived"]["alphas"])


class TestEntryPoint:
    def test_entry_raises_system_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.argv", ["hypkernels"])
        with pytest.raises(SystemExit):
            cli.entry()
