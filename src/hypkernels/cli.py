"""Command-line entry point: gram computation, validation suites, training.

Exit codes: 0 success, 1 a validation suite failed.  A command raises
on failure, and `main` turns the exception into one stderr line and the
code of the first row of `FAILURES` that it matches:

    DivergenceError            4  divergence:
    GeometryError, ConfigError 3  geometry error: (a kernel config its
                                  variant rejects, an unknown one included)
    ArithmeticError            5  numerical error:
    any other ValueError       2  error: (ConfigFileError: an input, config
                                  or output path; or a value from the
                                  inputs that the library rejected)

Any other exception is a bug and propagates.  Every command is
deterministic given config plus seeds; floating-point output is
formatted with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checks import (check_identities, check_isometry, check_psd,
                     random_multiplier, sample_ball_coords)
from .diff import ParamVector, materialize
from .geometry import Curvature, GeometryError
from .kernels import HYPERPARAMETERS, ConfigError, KernelConfig, RadialCoeffs, gram
from .learning import (RUN_FIELDS, DivergenceError, FieldSpec, Projection, RunConfig, _checked,
                       _run_dataset, _run_eval, init_params, params_to_kernel_config, train)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_GEOMETRY_ERROR = 3
EXIT_DIVERGENCE = 4
EXIT_NUMERICAL_ERROR = 5

CONFIG_VERSION = 1


class ConfigFileError(ValueError):
    pass


# (class, exit code, stderr prefix), first match wins: GeometryError and
# ConfigError are ValueErrors.
FAILURES = (
    (DivergenceError, EXIT_DIVERGENCE, "divergence"),
    (GeometryError, EXIT_GEOMETRY_ERROR, "geometry error"),
    (ConfigError, EXIT_GEOMETRY_ERROR, "geometry error"),
    (ArithmeticError, EXIT_NUMERICAL_ERROR, "numerical error"),
    (ValueError, EXIT_INPUT_ERROR, "error"),
)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def gram_csv(entries: np.ndarray) -> str:
    """The CSV text of a real symmetric matrix, one row per line.

    Each upper-triangle entry is formatted once, in one pass, and a
    lower-triangle cell reuses the text of its mirror, taken from the
    transpose of the upper rows.  The output is exact only if the lower
    triangle holds the bit-exact mirror of the upper one, as
    `kernels.gram` guarantees.  TypeError on a complex matrix: the
    kernels are real on the real features that `gram` reads.
    """
    if np.iscomplexobj(entries):
        raise TypeError("gram_csv writes real matrices, got complex entries")
    n = entries.shape[0]
    values = entries[~np.tri(n, k=-1, dtype=bool)].tolist()
    cells = (("%.17g," * len(values))[:-1] % tuple(values)).split(",")
    ends = np.cumsum(np.arange(n, 0, -1)).tolist()
    upper = [cells[end - n + i:end] for i, end in enumerate(ends)]
    # Column i of the padded upper rows holds the texts of row i's lower
    # cells in its first i places.
    mirrors = list(zip(*[[""] * i + row for i, row in enumerate(upper)]))
    return "".join([",".join(mirrors[i][:i] + tuple(row)) + "\n"
                    for i, row in enumerate(upper)])


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigFileError(f"{context} must be an object, got {json.dumps(obj)}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigFileError(f"unknown key(s) {sorted(unknown)} in {context}")


def _load_json(path: str) -> dict:
    """The object of a strict-JSON file: NaN and Infinity are refused."""
    def refuse(name):
        raise ConfigFileError(f"{path}: {name} is not a JSON number")

    try:
        with open(path) as fh:
            obj = json.load(fh, parse_constant=refuse)
    except OSError as exc:
        raise ConfigFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigFileError(f"{path}: top level must be an object")
    if obj.get("version") != CONFIG_VERSION:
        raise ConfigFileError(f"{path}: missing or unsupported version (expected {CONFIG_VERSION})")
    return obj


def _number(obj: dict, key: str, default=None, *, integer: bool = False,
            bound=None, context: str = ""):
    """obj[key] (default when absent) as the config number context + key."""
    if key not in obj:
        return default
    return _checked(FieldSpec(context + key, "integer" if integer else "number", rule=bound),
                    obj[key])


def _numbers(obj: dict, key: str, default: list, **checks) -> list:
    """obj[key], or default when the key is absent: a JSON list whose
    entries each pass `_number`'s checks, named key[i]."""
    values = obj.get(key, default)
    if not isinstance(values, list):
        raise ConfigFileError(f"{key} must be a list, got {json.dumps(values)}")
    entries = {f"{key}[{i}]": v for i, v in enumerate(values)}
    return [_number(entries, name, **checks) for name in entries]


def _parse_projection(obj: dict) -> Projection:
    """The projection of a config; parameters the clip projection rejects
    are an input error, as any other config value that fails."""
    _check_keys(obj, {"kind", "beta", "eps"}, "projection")
    try:
        return Projection(obj.get("kind", "exp0"),
                          _number(obj, "beta", context="projection."),
                          _number(obj, "eps", context="projection."))
    except GeometryError as exc:
        raise ConfigFileError(str(exc)) from exc


def _field_values(cfg: dict, schema: dict) -> dict:
    """The RunConfig arguments that cfg holds at the JSON paths of schema
    (`learning.RUN_FIELDS` or a part), a projection read as a Projection:
    RunConfig checks them.  Unknown keys and non-object sections fail."""
    names = {}   # section ("" for the top level) -> {key: field name}
    for name, spec in schema.items():
        section, _, key = spec.path.rpartition(".")
        names.setdefault(section, {})[key] = name
    top = names.pop("")
    _check_keys(cfg, {"version", *top, *names}, "config")
    values = {top[key]: v for key, v in cfg.items() if key in top}
    for section, keys in names.items():
        obj = cfg.get(section, {})
        _check_keys(obj, keys.keys(), section)
        values.update({keys[key]: v for key, v in obj.items()})
    if "projection" in values:
        values["projection"] = _parse_projection(values["projection"])
    return values


# The fields of a gram config; its features give the dimension.
GRAM_FIELDS = {name: spec for name, spec in RUN_FIELDS.items()
               if spec.path.split(".")[0] in ("kernel", "curvature", "projection")}


def _gram_values(cfg: dict) -> dict:
    values = _field_values(cfg, GRAM_FIELDS)
    if values.get("variant") is None:
        raise ConfigFileError("kernel.variant is required")
    return values


def _gram_config(values: dict, dim: int) -> tuple[RunConfig, KernelConfig]:
    """The run config of `_gram_values` at a feature dimension, and its kernel config."""
    run_config = RunConfig(dim=dim, **values)
    return run_config, params_to_kernel_config(run_config, init_params(run_config))


def _read_features(path: str):
    """CSV features: header row, optional leading label column.  Blank
    lines are skipped.  The cells are converted by one map(float) and
    checked for finiteness at once; a file that fails is read again cell
    by cell to name its first bad line and column."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigFileError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigFileError(f"{path}: empty feature file")
    header = rows[0]
    if not header:
        raise ConfigFileError(f"{path}: line 1: empty header")
    has_label = header[0].strip().lower() == "label"
    start = 1 if has_label else 0
    if len(header) - start < 1:
        raise ConfigFileError(f"{path}: header declares no feature columns")
    data = [row for row in rows[1:] if row]
    if not data:
        raise ConfigFileError(f"{path}: no data rows")
    shape = (len(data), len(header) - start)
    features = None
    if set(map(len, data)) == {len(header)}:
        cells = itertools.chain.from_iterable(row[start:] for row in data)
        try:
            features = np.fromiter(map(float, cells), np.float64, shape[0] * shape[1])
        except ValueError:
            pass
    if features is None or not np.isfinite(features).all():
        _raise_first_bad_cell(path, rows, len(header), start)
    labels = [row[0].strip() for row in data] if has_label else []
    return features.reshape(shape), labels


def _raise_first_bad_cell(path: str, rows: list, width: int, start: int):
    """ConfigFileError naming the first ragged row, non-number or
    non-finite value of the data rows."""
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise ConfigFileError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        for colno, cell in enumerate(row[start:], start=start + 1):
            try:
                v = float(cell)
            except ValueError as exc:
                raise ConfigFileError(
                    f"{path}: line {lineno}, column {colno}: not a number: {cell!r}"
                ) from exc
            if not math.isfinite(v):
                raise ConfigFileError(
                    f"{path}: line {lineno}, column {colno}: non-finite value"
                )
    raise AssertionError("no bad cell in a feature file that failed to parse")


def _write_outputs(files: dict) -> None:
    """Write each {path: text}; ConfigFileError when a path cannot be
    written."""
    for path, text in files.items():
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigFileError(f"cannot write {path}: {exc}") from exc


def _output_dir(path: str) -> Path:
    """path as a directory, made with its parents; ConfigFileError when it
    cannot be."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigFileError(f"cannot write {out_dir}: {exc}") from exc
    return out_dir


def cmd_gram(args) -> int:
    values = _gram_values(_load_json(args.config))   # before the features are read
    features, _ = _read_features(args.features)
    run_config, config = _gram_config(values, features.shape[1])
    G = gram(config, run_config.projection.apply(features, run_config.curvature))
    _write_outputs({args.out: gram_csv(G.entries)})
    return EXIT_OK


CHECK_KEYS = {
    "version", "seed", "trials", "points", "m", "curvatures", "dims", "tol",
}
DEFAULT_TOLS = {
    "psd": 1e-8,
    "isometry": 1e-10,
    "identities": 1e-11,
    "identities_boundary": 1e-8,
}
# Default (curvatures, dims) of the psd and isometry suites.
PSD_GRID = ([0.25, 1.0, 2.0], [1, 2, 8])
ISOMETRY_GRID = ([0.25, 1.0, 2.5], [1, 4, 16])


# Kernel variants of the PSD suite; each takes its `kernels.HYPERPARAMETERS`
# from these values and the radial coefficients drawn per (curvature, dim).
PSD_VARIANTS = ("ahl", "ahpoly", "ahrbf", "ahlap", "ahrad")
PSD_VALUES = {"offset": 1.0, "degree": 2, "bandwidth": 1.0}


def _grid(cfg: dict, default: tuple) -> tuple:
    """The (curvatures, dims) of a suite: the config's lists where given."""
    return (_numbers(cfg, "curvatures", default[0]),
            _numbers(cfg, "dims", default[1], integer=True, bound=">= 1"))


def _psd_reports(seed, tol, n_points, m, grid):
    """(report, record fields) of each PSD check over the grid."""
    rng = np.random.default_rng(seed)
    curvatures, dims = grid
    for c in curvatures:
        for dim in dims:
            curvature = Curvature(c)
            points = sample_ball_coords(rng, n_points, dim, curvature)
            params = random_multiplier(rng, m, dim, curvature)
            values = {**PSD_VALUES, "radial": RadialCoeffs(rng.uniform(0.1, 1.0, 51))}
            for variant in PSD_VARIANTS:
                config = KernelConfig(variant, params=params, **{
                    name: values[name] for name in HYPERPARAMETERS[variant]})
                report = check_psd(config, points, tol=tol, seed=seed)
                yield report, {"suite": "psd", "variant": config.variant,
                               "curvature": c, "dim": dim}


def cmd_check(args) -> int:
    if args.suite not in ("psd", "isometry", "identities", "all"):
        raise ConfigFileError(f"unknown suite {args.suite!r}")
    cfg = _load_json(args.config)
    _check_keys(cfg, CHECK_KEYS, "config")
    tol_obj = cfg.get("tol", {})
    _check_keys(tol_obj, set(DEFAULT_TOLS), "tol")
    tols = {k: _number(tol_obj, k, v, bound=">= 0", context="tol.")
            for k, v in DEFAULT_TOLS.items()}
    # The options pass the checks of the config keys they override.
    if args.tol is not None:
        tols = dict.fromkeys(tols, _number(vars(args), "tol", bound=">= 0", context="--"))
    seed = (_number(vars(args), "seed", integer=True, bound=">= 0", context="--")
            if args.seed is not None
            else _number(cfg, "seed", 0, integer=True, bound=">= 0"))
    trials = _number(cfg, "trials", 1000, integer=True, bound=">= 1")
    n_points = _number(cfg, "points", 32, integer=True, bound=">= 1")
    m = _number(cfg, "m", 3, integer=True, bound=">= 1")
    psd_grid, isometry_grid = _grid(cfg, PSD_GRID), _grid(cfg, ISOMETRY_GRID)
    reports = []
    if args.suite in ("psd", "all"):
        reports += _psd_reports(seed, tols["psd"], n_points, m, psd_grid)
    if args.suite in ("isometry", "all"):
        curvatures, dims = isometry_grid
        reports += [(check_isometry(Curvature(c), dim, trials, tols["isometry"], seed),
                     {"suite": "isometry"}) for c in curvatures for dim in dims]
    if args.suite in ("identities", "all"):
        reports += [
            (check_identities(trials, tols["identities"], seed), {"suite": "identities"}),
            (check_identities(max(trials // 2, 1), tols["identities_boundary"], seed,
                              near_boundary=True), {"suite": "identities"}),
        ]
    _write_outputs({args.out: "".join(
        json.dumps({**rep.to_record(), **fields}, sort_keys=True) + "\n"
        for rep, fields in reports)})
    return EXIT_OK if all(rep.passed for rep, _ in reports) else EXIT_SUITE_FAILURE


def _run_config_from_json(cfg: dict, seed_override=None) -> RunConfig:
    values = _field_values(cfg, RUN_FIELDS)
    if seed_override is not None:
        values["train_seed"] = seed_override
    return RunConfig(**values)


def _params_to_json(p: ParamVector) -> dict:
    params, radial, curvature = materialize(p)
    return {
        "version": CONFIG_VERSION,
        "pole_raws": p.pole_raws.tolist(),
        "weight_logits": p.weight_logits.tolist(),
        "radial_raws": p.radial_raws.tolist(),
        "log_c": p.log_c,
        "fixed_c": p.fixed_c,
        "affine": None if p.affine is None else p.affine.tolist(),
        "derived": {
            "weights": params.weights.tolist(),
            "alphas": radial.alphas.tolist(),
            "curvature": curvature.c,
            "poles": np.stack([params.poles.real, params.poles.imag], axis=-1).tolist(),
        },
    }


def _array(obj: dict, key: str) -> np.ndarray:
    """obj[key], a JSON list (of lists) of finite numbers, as a float64
    array; ConfigFileError naming the key, or its first bad entry."""
    def entries(v, name):
        if isinstance(v, list):
            return [entries(x, f"{name}[{i}]") for i, x in enumerate(v)]
        return _checked(FieldSpec(name, "number"), v)

    try:
        if not isinstance(obj[key], list):
            raise ValueError(f"{key} must be a list of numbers, got {json.dumps(obj[key])}")
        values = entries(obj[key], key)
    except ValueError as exc:
        raise ConfigFileError(str(exc)) from None
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:
        raise ConfigFileError(f"{key} must have rows of equal length") from None


def _params_from_json(obj: dict) -> ParamVector:
    required = {"version", "pole_raws", "weight_logits", "radial_raws",
                "log_c", "fixed_c", "affine", "derived"}
    _check_keys(obj, required, "params file")
    if missing := required - set(obj):
        raise ConfigFileError(f"params file lacks key(s) {sorted(missing)}")
    return ParamVector(
        _array(obj, "pole_raws"),
        _array(obj, "weight_logits"),
        _array(obj, "radial_raws"),
        log_c=None if obj["log_c"] is None else _number(obj, "log_c"),
        fixed_c=_number(obj, "fixed_c"),
        affine=None if obj["affine"] is None else _array(obj, "affine"),
    )


def _eval_to_json(res) -> dict:
    return {
        "accuracy": res.accuracy,
        "ci_halfwidth": res.ci_halfwidth,
        "mean_loss": res.mean_loss,
    }


def cmd_train(args) -> int:
    run_config = _run_config_from_json(_load_json(args.config), args.seed)
    out_dir = _output_dir(args.out)
    run = train(run_config)
    evals = {"initial": _eval_to_json(run.initial_eval),
             "final": _eval_to_json(run.final_eval)}
    _write_outputs({
        out_dir / "loss_trace.csv": "step,loss\n" + "".join(
            f"{i},{fmt(v)}\n" for i, v in enumerate(run.loss_trace)),
        out_dir / "params.json": json.dumps(
            _params_to_json(run.final_params), sort_keys=True, indent=2) + "\n",
        out_dir / "eval.json": json.dumps(evals, sort_keys=True, indent=2) + "\n",
    })
    return EXIT_OK


def cmd_eval(args) -> int:
    run_config = _run_config_from_json(_load_json(args.config), args.seed)
    p = _params_from_json(_load_json(args.params))
    if p.pole_raws.shape != (run_config.m, run_config.dim) or \
            p.radial_raws.size != run_config.truncation + 1:
        raise ConfigFileError("parameter file does not match the run configuration")
    res = _run_eval(run_config, _run_dataset(run_config), p)
    print(f"accuracy {fmt(res.accuracy)} ci {fmt(res.ci_halfwidth)}")
    if args.out:
        _write_outputs(
            {args.out: json.dumps(_eval_to_json(res), sort_keys=True, indent=2) + "\n"}
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypkernels",
        description="Adaptive hyperbolic kernels: gram matrices, validation "
                    "suites, training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gram = sub.add_parser("gram", help="compute a Gram matrix from features")
    p_gram.add_argument("--features", required=True)
    p_gram.add_argument("--config", required=True)
    p_gram.add_argument("--out", required=True)
    p_gram.set_defaults(func=cmd_gram)

    p_check = sub.add_parser("check", help="run validation suites")
    p_check.add_argument("--suite", required=True)
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--out", required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.set_defaults(func=cmd_check)

    p_train = sub.add_parser("train", help="run a seeded training job")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate saved parameters")
    p_eval.add_argument("--params", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
