"""Command-line entry point: gram computation, validation suites, training.

Exit codes: 0 success, 1 a validation suite failed.  A command raises
on failure, and `main` turns the exception into one stderr line and the
code of the first row of `FAILURES` that it matches:

    ConfigFileError            2  error: (input, config or output path)
    DivergenceError            4  divergence:
    GeometryError, ConfigError 3  geometry error: (a kernel config its
                                  variant rejects, an unknown one included)
    ArithmeticError            5  numerical error:
    any other ValueError       2  error: (a value from the inputs that
                                  the library rejected)

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
                     random_multiplier, sample_ball_points)
from .diff import DEFAULT_BLOCKS, ParamVector, materialize
from .geometry import Curvature, GeometryError
from .kernels import ConfigError, KernelConfig, RadialCoeffs, gram
from .learning import (DivergenceError, Projection, RunConfig, _run_dataset,
                       _run_eval, init_params, params_to_kernel_config, train)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_GEOMETRY_ERROR = 3
EXIT_DIVERGENCE = 4
EXIT_NUMERICAL_ERROR = 5

CONFIG_VERSION = 1


class ConfigFileError(ValueError):
    pass


# (class, exit code, stderr prefix), first match wins: ConfigFileError,
# GeometryError and ConfigError are ValueErrors.
FAILURES = (
    (ConfigFileError, EXIT_INPUT_ERROR, "error"),
    (DivergenceError, EXIT_DIVERGENCE, "divergence"),
    (GeometryError, EXIT_GEOMETRY_ERROR, "geometry error"),
    (ConfigError, EXIT_GEOMETRY_ERROR, "geometry error"),
    (ArithmeticError, EXIT_NUMERICAL_ERROR, "numerical error"),
    (ValueError, EXIT_INPUT_ERROR, "error"),
)


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _format(spec: str, values: np.ndarray) -> list:
    """Each row of values (or each value) as text, by one %-operation."""
    count = len(values)
    if not count:
        return []
    return (((spec + ",") * count)[:-1] % tuple(values.ravel().tolist())).split(",")


def _format_entries(z: np.ndarray) -> list:
    """Each complex entry as text: its real part, followed by a signed
    imaginary part and "j" when that is nonzero, each to 17 significant
    digits.  The real and the complex entries are each formatted by one
    %-operation."""
    if not z.imag.any():
        return _format("%.17g", z.real)
    real = z.imag == 0.0
    out = np.empty(z.size, dtype=object)
    out[real] = _format("%.17g", z.real[real])
    out[~real] = _format("%.17g%+.17gj",
                         np.stack([z.real[~real], z.imag[~real]], axis=-1))
    return out.tolist()


def gram_csv(entries: np.ndarray) -> str:
    """The CSV text of a Hermitian matrix, one row per line.

    Each upper-triangle entry is formatted once, in one pass.  A
    lower-triangle cell reuses the text of its mirror, taken from the
    transpose of the upper rows, unless its imaginary part is nonzero;
    then its own value, the mirror's conjugate, is formatted.  The
    output is exact only if the lower triangle holds the bit-exact
    conjugates of the upper one, as `kernels.gram` guarantees.
    """
    n = entries.shape[0]
    cells = _format_entries(entries[~np.tri(n, k=-1, dtype=bool)])
    ends = np.cumsum(np.arange(n, 0, -1)).tolist()
    upper = [cells[end - n + i:end] for i, end in enumerate(ends)]
    # Column i of the padded upper rows holds the texts of row i's lower
    # cells in its first i places.
    padded = [[""] * i + row for i, row in enumerate(upper)]
    if entries.imag.any():
        lower = np.tril_indices(n, -1)
        rows, cols = (idx[entries.imag[lower] != 0.0] for idx in lower)
        for i, j, text in zip(rows.tolist(), cols.tolist(),
                              _format_entries(entries[rows, cols])):
            padded[j][i] = text
    mirrors = list(zip(*padded))
    return "".join([",".join(mirrors[i][:i] + tuple(row)) + "\n"
                    for i, row in enumerate(upper)])


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigFileError(f"{context} must be an object, got {json.dumps(obj)}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigFileError(f"unknown key(s) {sorted(unknown)} in {context}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
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
            minimum=None, context: str = ""):
    """obj[key], or default when the key is absent: a JSON number (a bool
    is not one), integral when integer is set, and at least minimum when
    that is given.  Returns an int for integer fields, a float otherwise;
    ConfigFileError names context + key and the value when it fails."""
    if key not in obj:
        return default
    v = obj[key]
    name = context + key
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigFileError(f"{name} must be a number, got {json.dumps(v)}")
    if integer:
        if not (isinstance(v, int) or (math.isfinite(v) and v == int(v))):
            raise ConfigFileError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    else:
        v = float(v)
    if minimum is not None and not v >= minimum:
        raise ConfigFileError(f"{name} must be at least {minimum}, got {v!r}")
    return v


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


# Numeric kernel keys: (integer?, minimum).  Absent keys take the
# RunConfig defaults.
KERNEL_NUMBERS = {
    "m": (True, 1), "truncation": (True, 1), "offset": (False, None),
    "degree": (True, None), "bandwidth": (False, None), "init_seed": (True, 0),
    "init_scale": (False, None),
}


def _kernel_fields(kobj: dict) -> dict:
    _check_keys(kobj, {"variant", *KERNEL_NUMBERS}, "kernel")
    fields = {k: _number(kobj, k, integer=integer, minimum=minimum, context="kernel.")
              for k, (integer, minimum) in KERNEL_NUMBERS.items() if k in kobj}
    if "variant" in kobj:
        fields["variant"] = str(kobj["variant"])
    return fields


def _kernel_config_from_json(kobj: dict, dim: int, curvature: float) -> KernelConfig:
    fields = _kernel_fields(kobj)
    if kobj.get("variant") is None:
        raise ConfigFileError("kernel.variant is required")
    run_config = RunConfig(dim=dim, curvature=curvature, **fields)
    return params_to_kernel_config(run_config, init_params(run_config))


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
    cfg = _load_json(args.config)
    _check_keys(cfg, {"version", "curvature", "projection", "kernel"}, "config")
    projection = _parse_projection(cfg.get("projection", {}))
    features, _ = _read_features(args.features)
    curvature = Curvature(_number(cfg, "curvature", 1.0))
    config = _kernel_config_from_json(cfg.get("kernel", {}), features.shape[1], curvature.c)
    G = gram(config, projection.apply(features, curvature.c))
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


# Kernel variants of the PSD suite and their hyperparameters; ahrad also
# takes the radial coefficients drawn for each (curvature, dim) cell.
PSD_VARIANTS = (
    ("ahl", {}),
    ("ahpoly", {"offset": 1.0, "degree": 2}),
    ("ahrbf", {"bandwidth": 1.0}),
    ("ahlap", {"bandwidth": 1.0}),
    ("ahrad", {}),
)


def _grid(cfg: dict, default: tuple) -> tuple:
    """The (curvatures, dims) of a suite: the config's lists where given."""
    return (_numbers(cfg, "curvatures", default[0]),
            _numbers(cfg, "dims", default[1], integer=True, minimum=1))


def _psd_reports(seed, tol, n_points, m, grid):
    """(report, record fields) of each PSD check over the grid."""
    rng = np.random.default_rng(seed)
    curvatures, dims = grid
    for c in curvatures:
        for dim in dims:
            curvature = Curvature(c)
            points = sample_ball_points(rng, n_points, dim, curvature)
            params = random_multiplier(rng, m, dim, curvature)
            radial = RadialCoeffs(rng.uniform(0.1, 1.0, 51))
            for variant, extra in PSD_VARIANTS:
                config = KernelConfig(
                    variant, params=params,
                    radial=radial if variant == "ahrad" else None, **extra,
                )
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
    tols = {k: _number(tol_obj, k, v, context="tol.") for k, v in DEFAULT_TOLS.items()}
    if args.tol is not None:
        tols = dict.fromkeys(tols, args.tol)
    seed = (args.seed if args.seed is not None
            else _number(cfg, "seed", 0, integer=True, minimum=0))
    trials = _number(cfg, "trials", 1000, integer=True, minimum=1)
    n_points = _number(cfg, "points", 32, integer=True, minimum=1)
    m = _number(cfg, "m", 3, integer=True, minimum=1)
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


RUN_KEYS = {
    "version", "task", "kernel", "curvature", "train_curvature", "projection",
    "dataset", "episode", "optimizer", "train_seed", "eval", "score_mode", "sts",
}
DATASET_KEYS = {"seed", "depth", "branching", "dim", "noise_sigma",
                "samples_per_leaf", "step_length"}
EPISODE_KEYS = {"n_way", "n_shot", "n_query"}
OPTIMIZER_KEYS = {"mode", "lr", "steps", "blocks"}
EVAL_KEYS = {"episodes", "seed"}
STS_KEYS = {"temperature", "batch"}


def _run_config_from_json(cfg: dict, seed_override=None) -> RunConfig:
    _check_keys(cfg, RUN_KEYS, "config")
    kernel = _kernel_fields(cfg.get("kernel", {}))
    dobj = cfg.get("dataset", {})
    _check_keys(dobj, DATASET_KEYS, "dataset")
    eobj = cfg.get("episode", {})
    _check_keys(eobj, EPISODE_KEYS, "episode")
    oobj = cfg.get("optimizer", {})
    _check_keys(oobj, OPTIMIZER_KEYS, "optimizer")
    vobj = cfg.get("eval", {})
    _check_keys(vobj, EVAL_KEYS, "eval")
    sobj = cfg.get("sts", {})
    _check_keys(sobj, STS_KEYS, "sts")
    train_seed = (int(seed_override) if seed_override is not None
                  else _number(cfg, "train_seed", 1, integer=True, minimum=0))
    train_curvature = cfg.get("train_curvature", False)
    if not isinstance(train_curvature, bool):
        raise ConfigFileError("train_curvature must be true or false, "
                              f"got {json.dumps(train_curvature)}")
    blocks = oobj.get("blocks", list(DEFAULT_BLOCKS))
    if not isinstance(blocks, list):
        raise ConfigFileError(f"optimizer.blocks must be a list, got {json.dumps(blocks)}")

    def count(obj, key, default, context, minimum=None):
        return _number(obj, key, default, integer=True, minimum=minimum, context=context)

    return RunConfig(
        task=cfg.get("task", "fsl"),
        curvature=_number(cfg, "curvature", 1.0),
        train_curvature=train_curvature,
        projection=_parse_projection(cfg.get("projection", {})),
        dataset_seed=count(dobj, "seed", 0, "dataset.", minimum=0),
        depth=count(dobj, "depth", 3, "dataset."),
        branching=count(dobj, "branching", 3, "dataset."),
        dim=count(dobj, "dim", 8, "dataset."),
        noise_sigma=_number(dobj, "noise_sigma", 0.35, context="dataset."),
        samples_per_leaf=count(dobj, "samples_per_leaf", 12, "dataset."),
        step_length=_number(dobj, "step_length", 1.0, context="dataset."),
        n_way=count(eobj, "n_way", 5, "episode.", minimum=1),
        n_shot=count(eobj, "n_shot", 1, "episode.", minimum=1),
        n_query=count(eobj, "n_query", 3, "episode.", minimum=1),
        optimizer_mode=oobj.get("mode", "adam"),
        lr=_number(oobj, "lr", 0.05, context="optimizer."),
        steps=count(oobj, "steps", 200, "optimizer.", minimum=0),
        blocks=tuple(blocks),
        train_seed=train_seed,
        eval_episodes=count(vobj, "episodes", 200, "eval.", minimum=1),
        eval_seed=count(vobj, "seed", 2, "eval.", minimum=0),
        score_mode=cfg.get("score_mode", "distance"),
        sts_temperature=_number(sobj, "temperature", 0.5, context="sts."),
        sts_batch=count(sobj, "batch", 8, "sts.", minimum=1),
        **kernel,
    )


def _params_to_json(p: ParamVector) -> dict:
    params, radial, curvature = materialize(p)
    return {
        "version": CONFIG_VERSION,
        "pole_raws": [[float(x) for x in row] for row in p.pole_raws],
        "weight_logits": [float(x) for x in p.weight_logits],
        "radial_raws": [float(x) for x in p.radial_raws],
        "log_c": p.log_c,
        "fixed_c": p.fixed_c,
        "affine": [[float(x) for x in row] for row in p.affine]
        if p.affine is not None
        else None,
        "derived": {
            "weights": [float(w) for w in params.weights],
            "alphas": [float(a) for a in radial.alphas],
            "curvature": curvature.c,
            "poles": [[[w.real, w.imag] for w in pole.coords]
                      for pole in params.poles],
        },
    }


def _params_from_json(obj: dict) -> ParamVector:
    required = {"version", "pole_raws", "weight_logits", "radial_raws",
                "log_c", "fixed_c", "affine", "derived"}
    _check_keys(obj, required, "params file")
    if obj.get("version") != CONFIG_VERSION:
        raise ConfigFileError("unsupported params file version")
    return ParamVector(
        np.array(obj["pole_raws"], dtype=np.float64),
        np.array(obj["weight_logits"], dtype=np.float64),
        np.array(obj["radial_raws"], dtype=np.float64),
        log_c=obj.get("log_c"),
        fixed_c=float(obj.get("fixed_c", 1.0)),
        affine=np.array(obj["affine"], dtype=np.float64)
        if obj.get("affine") is not None
        else None,
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
