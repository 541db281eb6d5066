import json

import numpy as np
import pytest

from hypkernels import cli
from hypkernels.geometry import Curvature, TangentVector, exp0
from hypkernels.kernels import gram
from hypkernels.learning import init_params


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
        config = cli._kernel_config_from_json(cfg["kernel"], 2, curvature.c)
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

    def test_complex_entries_round_trip(self, tmp_path):
        # Clip projection of mirrored features gives complex off-diagonals
        # only when coordinates mix; real features keep entries real, so
        # check the complex formatter directly instead.
        assert cli.fmt_complex(complex(1.5, 0.0)) == "1.5"
        z = complex(0.123456789012345678, -9.87654321e-5)
        assert complex(cli.fmt_complex(z)) == z


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

        monkeypatch.setattr(cli, "evaluate", fail)
        capsys.readouterr()
        assert cli.main(["eval", "--params", str(out / "params.json"),
                         "--config", str(train_config)]) == cli.EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.err == "numerical error: overflow in exp\n"
        assert captured.out == ""

    def test_boundary_eval_exit_code(self, tmp_path, capsys):
        # At curvature 100 the projected points round onto the ball boundary
        # and the scores are nan: eval, and train at its initial eval, exit 5.
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
