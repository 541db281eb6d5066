"""Command-line entry point: gram computation, validation suites, training.

Exit codes: 0 success, 1 validation-suite failure, 2 input/parse error,
3 geometry error, 4 training divergence, 5 numerical error (an
ArithmeticError escaping `gram`, `train` or `eval`).  Every
command is deterministic given config plus seeds; floating-point output
is formatted with 17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .checks import (check_identities, check_isometry, check_psd,
                     random_multiplier, sample_ball_points)
from .diff import DEFAULT_BLOCKS, ParamVector, materialize
from .geometry import Curvature, GeometryError, TangentVector, clip_project, exp0
from .kernels import ConfigError, KernelConfig, RadialCoeffs, gram
from .learning import (DivergenceError, Projection, RunConfig, evaluate,
                       gen_tree_dataset, init_params, params_to_kernel_config,
                       train)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_GEOMETRY_ERROR = 3
EXIT_DIVERGENCE = 4
EXIT_NUMERICAL_ERROR = 5

CONFIG_VERSION = 1


class ConfigFileError(ValueError):
    pass


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return fmt(z.real)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _check_keys(obj: dict, allowed: set, context: str) -> None:
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


def _parse_projection(obj: dict) -> Projection:
    _check_keys(obj, {"kind", "beta", "eps"}, "projection")
    return Projection(obj.get("kind", "exp0"), obj.get("beta"), obj.get("eps"))


# Kernel keys and how each is read; absent keys take the RunConfig defaults.
KERNEL_KEYS = {
    "variant": str, "m": int, "truncation": int, "offset": float,
    "degree": int, "bandwidth": float, "init_seed": int, "init_scale": float,
}


def _kernel_fields(kobj: dict) -> dict:
    _check_keys(kobj, KERNEL_KEYS.keys(), "kernel")
    return {k: read(kobj[k]) for k, read in KERNEL_KEYS.items() if k in kobj}


def _kernel_config_from_json(kobj: dict, dim: int, curvature: float) -> KernelConfig:
    fields = _kernel_fields(kobj)
    if kobj.get("variant") is None:
        raise ConfigFileError("kernel.variant is required")
    run_config = RunConfig(dim=dim, curvature=curvature, **fields)
    return params_to_kernel_config(run_config, init_params(run_config))


def _read_features(path: str):
    """CSV features: header row, optional leading label column."""
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
    features = []
    labels = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ConfigFileError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        if has_label:
            labels.append(row[0].strip())
        vals = []
        for colno, cell in enumerate(row[start:], start=start + 1):
            try:
                v = float(cell)
            except ValueError as exc:
                raise ConfigFileError(
                    f"{path}: line {lineno}, column {colno}: not a number: {cell!r}"
                ) from exc
            if not np.isfinite(v):
                raise ConfigFileError(
                    f"{path}: line {lineno}, column {colno}: non-finite value"
                )
            vals.append(v)
        features.append(vals)
    if not features:
        raise ConfigFileError(f"{path}: no data rows")
    return np.array(features), labels


def _project_features(features: np.ndarray, projection: Projection,
                      curvature: Curvature):
    points = []
    for row in features:
        if projection.kind == "exp0":
            points.append(exp0(TangentVector(row), curvature))
        else:
            points.append(
                clip_project(row, curvature, projection.beta, projection.eps)
            )
    return points


def cmd_gram(args) -> int:
    try:
        cfg = _load_json(args.config)
        _check_keys(cfg, {"version", "curvature", "projection", "kernel"}, "config")
        projection = _parse_projection(cfg.get("projection", {}))
        features, _ = _read_features(args.features)
    except (ConfigFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        curvature = Curvature(float(cfg.get("curvature", 1.0)))
        config = _kernel_config_from_json(
            cfg.get("kernel", {}), features.shape[1], curvature.c
        )
        points = _project_features(features, projection, curvature)
        G = gram(config, points)
    except ConfigFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (GeometryError, ConfigError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY_ERROR
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    with open(args.out, "w", newline="") as fh:
        for row in G.entries:
            fh.write(",".join(fmt_complex(complex(v)) for v in row) + "\n")
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


# Kernel variants of the PSD suite and their hyperparameters; ahrad also
# takes the radial coefficients drawn for each (curvature, dim) cell.
PSD_VARIANTS = (
    ("ahl", {}),
    ("ahpoly", {"offset": 1.0, "degree": 2}),
    ("ahrbf", {"bandwidth": 1.0}),
    ("ahlap", {"bandwidth": 1.0}),
    ("ahrad", {}),
)


def _psd_suite(cfg, seed, tol, out_records):
    rng = np.random.default_rng(seed)
    ok = True
    n_points = int(cfg.get("points", 32))
    m = int(cfg.get("m", 3))
    for c in cfg.get("curvatures", [0.25, 1.0, 2.0]):
        for dim in cfg.get("dims", [1, 2, 8]):
            curvature = Curvature(float(c))
            points = sample_ball_points(rng, n_points, int(dim), curvature)
            params = random_multiplier(rng, m, int(dim), curvature)
            radial = RadialCoeffs(rng.uniform(0.1, 1.0, 51))
            for variant, extra in PSD_VARIANTS:
                config = KernelConfig(
                    variant, params=params,
                    radial=radial if variant == "ahrad" else None, **extra,
                )
                report = check_psd(config, points, tol=tol, seed=seed)
                rec = report.to_record()
                rec["suite"] = "psd"
                rec["variant"] = config.variant
                rec["curvature"] = float(c)
                rec["dim"] = int(dim)
                out_records.append(rec)
                ok = ok and report.passed
    return ok


def cmd_check(args) -> int:
    if args.suite not in ("psd", "isometry", "identities", "all"):
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        cfg = _load_json(args.config)
        _check_keys(cfg, CHECK_KEYS, "config")
        tols = dict(DEFAULT_TOLS)
        tol_obj = cfg.get("tol", {})
        _check_keys(tol_obj, set(DEFAULT_TOLS), "tol")
        tols.update({k: float(v) for k, v in tol_obj.items()})
    except ConfigFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    if args.tol is not None:
        tols = {k: float(args.tol) for k in tols}
    trials = int(cfg.get("trials", 1000))
    records = []
    ok = True
    if args.suite in ("psd", "all"):
        ok = _psd_suite(cfg, seed, tols["psd"], records) and ok
    if args.suite in ("isometry", "all"):
        for c in cfg.get("curvatures", [0.25, 1.0, 2.5]):
            for dim in cfg.get("dims", [1, 4, 16]):
                rep = check_isometry(
                    Curvature(float(c)), int(dim), trials, tols["isometry"], seed
                )
                rec = rep.to_record()
                rec["suite"] = "isometry"
                records.append(rec)
                ok = ok and rep.passed
    if args.suite in ("identities", "all"):
        rep = check_identities(trials, tols["identities"], seed)
        rec = rep.to_record()
        rec["suite"] = "identities"
        records.append(rec)
        ok = ok and rep.passed
        rep = check_identities(
            max(trials // 2, 1), tols["identities_boundary"], seed,
            near_boundary=True,
        )
        rec = rep.to_record()
        rec["suite"] = "identities"
        records.append(rec)
        ok = ok and rep.passed
    with open(args.out, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


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
    train_seed = int(seed_override if seed_override is not None
                     else cfg.get("train_seed", 1))
    return RunConfig(
        task=cfg.get("task", "fsl"),
        curvature=float(cfg.get("curvature", 1.0)),
        train_curvature=bool(cfg.get("train_curvature", False)),
        projection=_parse_projection(cfg.get("projection", {})),
        dataset_seed=int(dobj.get("seed", 0)),
        depth=int(dobj.get("depth", 3)),
        branching=int(dobj.get("branching", 3)),
        dim=int(dobj.get("dim", 8)),
        noise_sigma=float(dobj.get("noise_sigma", 0.35)),
        samples_per_leaf=int(dobj.get("samples_per_leaf", 12)),
        step_length=float(dobj.get("step_length", 1.0)),
        n_way=int(eobj.get("n_way", 5)),
        n_shot=int(eobj.get("n_shot", 1)),
        n_query=int(eobj.get("n_query", 3)),
        optimizer_mode=oobj.get("mode", "adam"),
        lr=float(oobj.get("lr", 0.05)),
        steps=int(oobj.get("steps", 200)),
        blocks=tuple(oobj.get("blocks", list(DEFAULT_BLOCKS))),
        train_seed=train_seed,
        eval_episodes=int(vobj.get("episodes", 200)),
        eval_seed=int(vobj.get("seed", 2)),
        score_mode=cfg.get("score_mode", "distance"),
        sts_temperature=float(sobj.get("temperature", 0.5)),
        sts_batch=int(sobj.get("batch", 8)),
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
    try:
        cfg = _load_json(args.config)
        run_config = _run_config_from_json(cfg, args.seed)
    except (ConfigFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = train(run_config)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    with open(out_dir / "loss_trace.csv", "w", newline="") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(run.loss_trace):
            fh.write(f"{i},{fmt(v)}\n")
    with open(out_dir / "params.json", "w") as fh:
        json.dump(_params_to_json(run.final_params), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / "eval.json", "w") as fh:
        json.dump(
            {
                "initial": _eval_to_json(run.initial_eval),
                "final": _eval_to_json(run.final_eval),
            },
            fh, sort_keys=True, indent=2,
        )
        fh.write("\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        cfg = _load_json(args.config)
        run_config = _run_config_from_json(cfg, args.seed)
        pobj = _load_json(args.params)
        p = _params_from_json(pobj)
    except (ConfigFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if p.pole_raws.shape != (run_config.m, run_config.dim) or \
            p.radial_raws.size != run_config.truncation + 1:
        print("error: parameter file does not match the run configuration",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    dataset = gen_tree_dataset(
        run_config.dataset_seed, run_config.depth, run_config.branching,
        run_config.dim, run_config.noise_sigma, run_config.samples_per_leaf,
        run_config.step_length,
    )
    kconfig = params_to_kernel_config(run_config, p)
    try:
        res = evaluate(
            kconfig, dataset, run_config.n_way, run_config.n_shot,
            run_config.n_query, run_config.eval_episodes, run_config.eval_seed,
            run_config.score_mode, run_config.projection,
        )
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    print(f"accuracy {fmt(res.accuracy)} ci {fmt(res.ci_halfwidth)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(_eval_to_json(res), fh, sort_keys=True, indent=2)
            fh.write("\n")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())
