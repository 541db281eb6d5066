"""The config schema: every `RunConfig` field's rule is written once, in
`learning.RUN_FIELDS`, and holds for a config built in Python and for a
JSON config read by the CLI alike, before any dataset is generated."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypkernels import cli, learning
from hypkernels.geometry import GeometryError
from hypkernels.kernels import ConfigError
from hypkernels.learning import RUN_FIELDS, Projection, RunConfig, _checked

ROOT = Path(__file__).resolve().parents[1]


def _bad_values(spec):
    """(case, value, own) for one schema entry: values of the wrong kind,
    out of its bound or not among its choices, and NaN for a float; own
    marks the failures that raise the entry's error class."""
    if spec.kind in ("number", "integer"):
        yield "str", "x", False
        yield "bool", True, False
        yield "list", [1], False
        if spec.kind == "integer":
            yield "fraction", 2.5, False
        else:
            yield "nan", math.nan, False
            yield "inf", math.inf, False
        if spec.rule is not None:
            op, b = spec.rule.split()
            yield "out-of-bound", float(b) - 1 if op == ">=" else float(b), True
    elif spec.kind == "bool":
        yield "str", "false", False
        yield "int", 1, False
    elif spec.kind == "choice":
        yield "int", 5, True
        yield "unknown", "nope", True
    elif spec.kind == "choices":
        yield "str", "poles", False
        yield "unknown", ["nope"], True
    else:
        yield "str", "exp0", False


CASES = [pytest.param(name, value, own, id=f"{spec.path}-{case}")
         for name, spec in RUN_FIELDS.items() for case, value, own in _bad_values(spec)]


def _expected_error(name, own):
    return RUN_FIELDS[name].error if own else ValueError


@pytest.mark.parametrize("name,value,own", CASES)
def test_run_config_rejects_at_construction(name, value, own):
    spec = RUN_FIELDS[name]
    with pytest.raises(ValueError) as err:
        RunConfig(**{name: value})
    assert type(err.value) is _expected_error(name, own)
    message = str(err.value)
    assert message.startswith(spec.path) or message.startswith("unknown "), message


def _nested(path, value):
    """A config fragment holding value at the JSON path."""
    *sections, key = path.split(".")
    fragment = {key: value}
    for section in reversed(sections):
        fragment = {section: fragment}
    return fragment


CLI_CASES = [pytest.param(command, *case.values, id=f"{command}-{case.id}")
             for command in ("train", "gram") for case in CASES
             if command == "train" or case.values[0] in cli.GRAM_FIELDS]


@pytest.mark.parametrize("command,name,value,own", CLI_CASES)
def test_cli_rejects_before_the_dataset(tmp_path, capsys, monkeypatch, command, name,
                                        value, own):
    # The CLI exits with one stderr line, RunConfig's own message, before
    # a dataset is generated; it refuses NaN with the file (strict JSON),
    # and reads 1e999 as an infinite number.
    spec = RUN_FIELDS[name]
    base = {"version": 1, "kernel": {"variant": "ahl"}}
    if command == "train":
        base.update({"optimizer": {"steps": 1}, "eval": {"episodes": 2}})
    fragment = _nested(spec.path, value)
    section = next(iter(fragment))
    if isinstance(fragment[section], dict) and section in base:
        fragment[section] = {**base[section], **fragment[section]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **fragment}).replace("Infinity", "1e999"))
    if command == "train":
        args = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    else:
        feats = tmp_path / "x.csv"
        feats.write_text("x0,x1\n0.1,0.2\n-0.3,0.05\n")
        args = ["gram", "--features", str(feats), "--config", str(cfg),
                "--out", str(tmp_path / "G.csv")]
    built = []

    def dataset(config):
        built.append(config)
        raise AssertionError("dataset generated for a bad config")

    monkeypatch.setattr(learning, "_run_dataset", dataset)
    monkeypatch.setattr(cli, "_run_dataset", dataset)
    code = cli.main(args)
    lines = capsys.readouterr().err.splitlines()
    assert not built and len(lines) == 1, lines
    if isinstance(value, float) and math.isnan(value):
        message = f"{cfg}: NaN is not a JSON number"
    elif spec.kind == "projection":
        message = f"projection must be an object, got {json.dumps(value)}"
    else:
        with pytest.raises(ValueError) as err:
            RunConfig(**{name: value})
        message = str(err.value)
    if _expected_error(name, own) is ValueError:
        assert code == cli.EXIT_INPUT_ERROR and lines[0] == f"error: {message}"
    else:
        assert code == cli.EXIT_GEOMETRY_ERROR and lines[0] == f"geometry error: {message}"


def test_only_the_variant_and_curvature_bounds_exit_3():
    assert {name: spec.error for name, spec in RUN_FIELDS.items()
            if spec.error is not ValueError} == {"variant": ConfigError,
                                                 "curvature": GeometryError}


def test_defaults_pass_their_entries():
    # RunConfig skips the check of a field that holds its default, so
    # every default must pass its entry unchanged.
    for f in dataclasses.fields(RunConfig):
        spec = RUN_FIELDS[f.name]
        assert f.default is spec.default
        assert _checked(spec, spec.default) is spec.default, f.name


def test_values_are_normalised_to_their_kind():
    run = RunConfig(m=2.0, steps=np.int64(3), curvature=1, lr=np.float32(0.5),
                    blocks=["poles"], offset=None)
    assert type(run.m) is int and run.m == 2
    assert type(run.steps) is int and run.steps == 3
    assert type(run.curvature) is float and type(run.lr) is float
    assert run.blocks == ("poles",) and run.offset is None
    assert RunConfig(m=2.0) == RunConfig(m=2)


def test_benchmark_eval_run_is_accepted():
    # perfbench/workloads.py builds RunConfig(**run) from this file: no
    # dim, and None for the hyperparameters that ahrad does not take.
    run = json.loads((ROOT / "perfbench" / "eval_params.json").read_text())["run"]
    config = RunConfig(**run)
    assert config.offset is config.degree is config.bandwidth is None
    assert config.dim == 8


def test_cli_reads_every_field_through_the_table():
    cfg = {"version": 1}
    for spec in RUN_FIELDS.values():
        value = spec.default
        if spec.kind == "projection":
            value = {"kind": "clip", "beta": 0.9, "eps": 0.2}
        elif spec.kind == "choices":
            value = list(value)
        section, _, key = spec.path.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
    run = cli._run_config_from_json(cfg)
    assert run == RunConfig(projection=Projection("clip", 0.9, 0.2))


TYPES = {"number": "number", "integer": "integer", "bool": "boolean", "choice": "string",
         "choices": "list of strings", "projection": "object"}


def _readme_rows() -> dict:
    text = (ROOT / "README.md").read_text()
    start = text.index("<!-- config reference:")
    rows = {}
    for line in text[start:].splitlines()[3:]:
        if not line.startswith("|"):
            break
        cells = [c.replace("`", "").strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows


def test_readme_reference_matches_the_table():
    rows = _readme_rows()
    assert set(rows) == {spec.path for spec in RUN_FIELDS.values()}
    for spec in RUN_FIELDS.values():
        kind, default, rule = rows[spec.path]
        assert kind == TYPES[spec.kind] + (" or null" if spec.nullable else ""), spec.path
        if spec.kind == "projection":
            assert default == json.dumps({"kind": spec.default.kind})
            assert rule == "see below"
            continue
        assert default == json.dumps(spec.default), spec.path
        expected = (", ".join(spec.rule) if spec.kind in ("choice", "choices")
                    else spec.rule or "—")
        if spec.error is not ValueError:
            expected += " (exit 3)"
        assert rule == expected, spec.path
