"""The config schema: every `RunConfig` field's rule is written once, in
`learning.RUN_FIELDS`, and holds for a config built in Python and for a
JSON config read by the CLI alike, before any dataset is generated.  The
CLI's other inputs (the check config, the params file, the projection
object and the check options) are checked against tables of the same
entries (`cli.CHECK_FIELDS`, `cli.PARAMS_FIELDS`, `cli.PROJECTION_FIELDS`)."""

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
    elif spec.kind in ("numbers", "integers", "array"):
        yield "str", "x", False
        yield "entry-str", ["x"], False
        yield "entry-bool", [True], False
        if spec.kind == "array":
            yield "ragged", [[0.1], [0.1, 0.2]], False
            yield "row-and-number", [[0.1], 0.2], False
            yield "row-entry-str", [[0.1, "x"]], False
        else:
            yield "empty", [], False
        if spec.rule is not None:
            op, b = spec.rule.split()
            yield "entry-out-of-bound", [float(b) - 1 if op == ">=" else float(b)], True
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
         "choices": "list of strings", "projection": "object", "numbers": "list of numbers",
         "integers": "list of integers", "array": "list (of lists) of numbers"}


def _readme_rows(marker: str) -> dict:
    text = (ROOT / "README.md").read_text()
    start = text.index(f"<!-- {marker} reference:")
    rows = {}
    for line in text[start:].splitlines()[3:]:
        if not line.startswith("|"):
            break
        cells = [c.replace("`", "").strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows


def _assert_reference(marker: str, schema: dict, absent: str | None = None):
    """The README table after marker lists schema; absent is the default
    column of a field without a default."""
    rows = _readme_rows(marker)
    assert set(rows) == {spec.path for spec in schema.values()}
    for spec in schema.values():
        kind, default, rule = rows[spec.path]
        assert kind == TYPES[spec.kind] + (" or null" if spec.nullable else ""), spec.path
        if spec.kind == "projection":
            assert default == json.dumps({"kind": spec.default.kind})
            assert rule == "see below"
            continue
        assert default == (absent if spec.default is None else json.dumps(spec.default))
        expected = (", ".join(spec.rule) if spec.kind in ("choice", "choices")
                    else spec.rule or "—")
        if spec.error is not ValueError:
            expected += " (exit 3)"
        assert rule == expected, spec.path


def test_readme_reference_matches_the_table():
    _assert_reference("config", RUN_FIELDS)


@pytest.mark.parametrize("marker,schema,absent", [
    pytest.param("check config", cli.CHECK_FIELDS, "per suite", id="check"),
    pytest.param("params file", cli.PARAMS_FIELDS, "required", id="params"),
])
def test_readme_input_references_match_their_tables(marker, schema, absent):
    _assert_reference(marker, schema, absent)


# The CLI's other inputs: every entry is checked by `_checked`, with
# messages that start with its path, and raises ValueError (exit 2).
INPUT_TABLES = {"check": cli.CHECK_FIELDS, "params": cli.PARAMS_FIELDS,
                "projection": cli.PROJECTION_FIELDS}
INPUT_CASES = [pytest.param(table, name, value, id=f"{table}-{spec.path}-{case}")
               for table, schema in INPUT_TABLES.items() for name, spec in schema.items()
               for case, value, _ in _bad_values(spec)]


def _message(spec, value):
    with pytest.raises(ValueError) as err:
        _checked(spec, value)
    assert type(err.value) is ValueError
    return str(err.value)


@pytest.mark.parametrize("table,name,value", INPUT_CASES)
def test_input_tables_reject_with_the_path(table, name, value):
    spec = INPUT_TABLES[table][name]
    message = _message(spec, value)
    assert message.startswith(spec.path) or message.startswith("unknown "), message


@pytest.mark.parametrize("table,name,value", [
    case for case in INPUT_CASES if case.values[0] == "check"])
def test_check_rejects_before_any_suite(tmp_path, capsys, monkeypatch, table, name, value):
    # One stderr line, _checked's message at the key's path (or the file's
    # refusal of NaN), exit 2, and no suite run.
    spec = cli.CHECK_FIELDS[name]
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"version": 1, **_nested(spec.path, value)})
                   .replace("Infinity", "1e999"))

    def suite(*args, **kwargs):
        raise AssertionError("suite run for a bad config")

    for suite_name in ("_psd_reports", "check_isometry", "check_identities"):
        monkeypatch.setattr(cli, suite_name, suite)
    out = tmp_path / "report.ndjson"
    code = cli.main(["check", "--suite", "all", "--config", str(cfg), "--out", str(out)])
    if isinstance(value, float) and math.isnan(value):
        message = f"{cfg}: NaN is not a JSON number"
    else:
        message = _message(spec, value)
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_check_reads_every_key_through_the_table():
    cfg = {"version": 1}
    given = {"curvatures": [1.0, 2], "dims": [3, 4.0]}
    for name, spec in cli.CHECK_FIELDS.items():
        section, _, key = spec.path.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[key] = given.get(name, spec.default)
    values = cli._checked_fields(cfg, cli.CHECK_FIELDS)
    assert values == {**{name: spec.default for name, spec in cli.CHECK_FIELDS.items()},
                      "curvatures": (1.0, 2.0), "dims": (3, 4)}
    assert list(values) == list(cli.CHECK_FIELDS)
    assert cli._checked_fields({"version": 1}, cli.CHECK_FIELDS) == {
        name: spec.default for name, spec in cli.CHECK_FIELDS.items()}


def test_check_order_is_the_table_order():
    # Tolerances, then seed, trials, points, m, curvatures, dims: the first
    # bad key in that order is the one reported.
    assert [spec.path for spec in cli.CHECK_FIELDS.values()] == [
        "tol.psd", "tol.isometry", "tol.identities", "tol.identities_boundary",
        "seed", "trials", "points", "m", "curvatures", "dims"]
    cfg = {"version": 1, "dims": [0], "m": 0, "tol": {"identities": -1}}
    with pytest.raises(ValueError, match="^tol.identities must be at least 0"):
        cli._checked_fields(cfg, cli.CHECK_FIELDS)


def test_array_kind_reads_a_float_array():
    spec = cli.PARAMS_FIELDS["pole_raws"]
    a = _checked(spec, [[1, 2.5], [np.float32(0.5), 0]])
    assert a.dtype == np.float64 and a.tolist() == [[1.0, 2.5], [0.5, 0.0]]
    assert _checked(spec, [1, 2]).tolist() == [1.0, 2.0]
    assert _checked(cli.PARAMS_FIELDS["affine"], None) is None
    assert _message(cli.PARAMS_FIELDS["affine"], [[None]]) == (
        "affine[0][0] must be a number, got null")
    assert _message(spec, [[1.0, 2.0], []]) == "pole_raws[1] must not be empty"
    assert _message(spec, [[[1.0]]]) == "pole_raws[0][0] must be a number, got [1.0]"

