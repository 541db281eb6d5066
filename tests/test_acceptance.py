"""End-to-end acceptance suite.

Each test certifies one release criterion and prints a single PASS/FAIL
line (visible with `pytest -s`).  Tolerances are part of the contract;
loosening them is not a fix.
"""

import json
import time

import numpy as np

import oracle
from hypkernels import _gmath as gm
from hypkernels import cli
from hypkernels.checks import check_isometry, random_multiplier, sample_ball_points
from hypkernels.diff import ParamVector
from hypkernels.geometry import BallPoint, Curvature, mobius_map
from hypkernels.kernels import KernelConfig, RadialCoeffs, base_kernel, evaluate as kernel_eval, gram
from hypkernels.learning import (
    Episode,
    Projection,
    RunConfig,
    _fsl_loss,
    _kernel_from_raws,
    _sts_loss,
    _zsl_loss,
    evaluate,
    gen_tree_dataset,
    shuffle_labels,
    train,
)
from hypkernels.rkhs import MultiplierParams, dbr_kernel, multiplier_b


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\n[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _variant_configs(params, radial):
    return [
        KernelConfig("ahl", params=params),
        KernelConfig("ahpoly", params=params, offset=1.0, degree=2),
        KernelConfig("ahpoly", params=params, offset=1.0, degree=3),
        KernelConfig("ahrbf", params=params, bandwidth=1.0),
        KernelConfig("ahlap", params=params, bandwidth=1.0),
        KernelConfig("ahrad", params=params, radial=radial),
    ]


def test_01_psd_family_sweep():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_ratio = 0.0
    count = 0
    for c in (0.25, 1.0, 2.0):
        curv = Curvature(c)
        for n in (1, 2, 8):
            points = sample_ball_points(rng, 32, n, curv)
            for m in (1, 3):
                params = random_multiplier(rng, m, n, curv)
                radial = RadialCoeffs(rng.uniform(0.1, 1.0, 51))
                for config in _variant_configs(params, radial):
                    G = gram(config, points)
                    eigs = np.linalg.eigvalsh(G.entries)
                    ratio = eigs[0] / max(1.0, abs(eigs[-1]))
                    worst_ratio = min(worst_ratio, ratio)
                    count += 1
    elapsed = time.time() - start
    ok = worst_ratio >= -1e-8 and elapsed < 120.0
    report(1, "psd-family-sweep", ok,
           f"{count} grams, worst min/max eig ratio {worst_ratio:.2e}, {elapsed:.1f}s")
    assert worst_ratio >= -1e-8
    assert elapsed < 120.0


def test_02_isometry():
    worst = 0.0
    for c in (0.25, 1.0, 2.5):
        for n in (1, 4, 16):
            rep = check_isometry(Curvature(c), n, 1000, 1e-10, seed=0)
            worst = max(worst, rep.max_abs_error)
    ok = worst < 1e-10
    report(2, "da-metric-isometry", ok, f"max |delta - rho| = {worst:.2e}")
    assert ok


def _sweep_points(t):
    c = Curvature((0.25, 1.0, 2.0)[t % 3])
    dim = (1, 2, 8)[(t // 3) % 3]
    return c, dim


def test_03_mobius_averaging():
    rng = np.random.default_rng(1)
    worst = 0.0
    for t in range(1000):
        curv, dim = _sweep_points(t)
        a, z = sample_ball_points(rng, 2, dim, curv, r_max_frac=0.9)
        closed = multiplier_b(MultiplierParams((a,), np.zeros(1)), z).coords
        explicit = 0.5 * (mobius_map(a, z).coords + mobius_map(-a, z).coords)
        worst = max(worst, float(np.abs(closed - explicit).max()))
    ok = worst < 1e-12
    report(3, "mobius-averaging-closed-form", ok, f"max abs err = {worst:.2e}")
    assert ok


def _factorization_error(curv, a, z_i, z_j):
    c = curv.c
    phi_i = mobius_map(a, z_i).coords
    phi_j = mobius_map(a, z_j).coords
    lhs = 1.0 - c * np.vdot(phi_i, phi_j)
    rhs = (
        (1.0 - c * a.norm**2)
        * (1.0 - c * np.vdot(z_i.coords, z_j.coords))
        / ((1.0 - c * np.vdot(z_i.coords, a.coords))
           * (1.0 - c * np.vdot(a.coords, z_j.coords)))
    )
    return abs(lhs - rhs) / abs(rhs)


def test_04_factorization_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for t in range(1000):
        curv, dim = _sweep_points(t)
        a, z_i, z_j = sample_ball_points(rng, 3, dim, curv, r_max_frac=0.9)
        worst = max(worst, _factorization_error(curv, a, z_i, z_j))
    worst_boundary = 0.0
    for t in range(1000):
        curv, dim = _sweep_points(t)
        a, z_i, z_j = sample_ball_points(rng, 3, dim, curv, r_max_frac=0.9)
        target = 0.999 / np.sqrt(curv.c)
        z_i = BallPoint(z_i.coords * (target / z_i.norm), curv)
        z_j = BallPoint(z_j.coords * (target / z_j.norm), curv)
        worst_boundary = max(worst_boundary, _factorization_error(curv, a, z_i, z_j))
    ok = worst < 1e-12 and worst_boundary < 1e-8
    report(4, "denominator-factorization", ok,
           f"rel err {worst:.2e}, near-boundary {worst_boundary:.2e}")
    assert worst < 1e-12
    assert worst_boundary < 1e-8


def test_05_multiplier_symmetries():
    rng = np.random.default_rng(3)
    worst_origin = 0.0
    worst_odd = 0.0
    worst_sign = 0.0
    for t in range(1000):
        curv, dim = _sweep_points(t)
        params = random_multiplier(rng, int(rng.integers(1, 4)), dim, curv)
        z_i, z_j = sample_ball_points(rng, 2, dim, curv, r_max_frac=0.9)
        origin = BallPoint(np.zeros(dim, dtype=np.complex128), curv)
        worst_origin = max(worst_origin, multiplier_b(params, origin).norm)
        b_p = multiplier_b(params, z_i).coords
        b_m = multiplier_b(params, -z_i).coords
        worst_odd = max(worst_odd, float(np.abs(b_p + b_m).max()))
        worst_sign = max(
            worst_sign,
            abs(dbr_kernel(params, z_i, z_j) - dbr_kernel(params, -z_i, -z_j)),
        )
    ok = worst_origin < 1e-15 and worst_odd < 1e-12 and worst_sign < 1e-12
    report(5, "multiplier-symmetries", ok,
           f"|b(0)| {worst_origin:.2e}, oddness {worst_odd:.2e}, "
           f"sign symmetry {worst_sign:.2e}")
    assert worst_origin < 1e-15
    assert worst_odd < 1e-12
    assert worst_sign < 1e-12


def test_06_base_kernel_bounds():
    rng = np.random.default_rng(4)
    lo, hi = np.inf, -np.inf
    worst_diag = 0.0
    max_offdiag = 0.0
    for t in range(1000):
        curv, dim = _sweep_points(t)
        params = random_multiplier(rng, 2, dim, curv)
        z_i, z_j = sample_ball_points(rng, 2, dim, curv, r_max_frac=0.9)
        v = base_kernel(params, z_i, z_j)
        lo, hi = min(lo, v), max(hi, v)
        max_offdiag = max(max_offdiag, v)
        worst_diag = max(worst_diag, abs(base_kernel(params, z_i, z_i) - 1.0))
    ok = lo >= 0.0 and hi <= 1.0 + 1e-12 and worst_diag <= 1e-12 \
        and max_offdiag < 1.0 - 1e-9
    report(6, "base-kernel-bounds", ok,
           f"range [{lo:.2e}, {hi:.10f}], diag err {worst_diag:.2e}, "
           f"off-diag max {max_offdiag:.10f}")
    assert lo >= 0.0 and hi <= 1.0 + 1e-12
    assert worst_diag <= 1e-12
    assert max_offdiag < 1.0 - 1e-9


def test_07_radial_truncation_tail():
    rng = np.random.default_rng(5)
    worst_excess = -np.inf
    for t in range(200):
        curv, dim = _sweep_points(t)
        params = random_multiplier(rng, 2, dim, curv)
        raw100 = np.sqrt(rng.uniform(0.0, 1.0, 101))  # alphas <= 1
        raw100[0] = max(raw100[0], 0.1)
        cfg50 = KernelConfig("ahrad", params=params,
                             radial=RadialCoeffs(raw100[:51]))
        cfg100 = KernelConfig("ahrad", params=params,
                              radial=RadialCoeffs(raw100))
        z_i, z_j = sample_ball_points(rng, 2, dim, curv, r_max_frac=0.9)
        beta = base_kernel(params, z_i, z_j)
        diff = abs(kernel_eval(cfg50, z_i, z_j) - kernel_eval(cfg100, z_i, z_j))
        bound = beta**51 / (1.0 - beta) + 1e-14
        worst_excess = max(worst_excess, diff - bound)
    ok = worst_excess <= 0.0
    report(7, "radial-series-truncation", ok,
           f"max (|K50-K100| - tail bound) = {worst_excess:.2e}")
    assert ok


def test_08_gradient_contract():
    proj = Projection()
    run = RunConfig(variant="ahrad")
    worst = {"fsl": 0.0, "zsl": 0.0, "sts": 0.0}
    for draw in range(50):
        rng = np.random.default_rng(100 + draw)

        def make_params(affine: bool) -> ParamVector:
            return ParamVector(
                0.4 * rng.standard_normal((2, 2)),
                rng.standard_normal(2),
                0.6 + 0.3 * rng.standard_normal(3),
                affine=0.3 * rng.standard_normal((2, 3)) if affine else None,
            )

        def kernel_of(view):
            return _kernel_from_raws(view, run)

        def leaves_of(view):
            return gm.KernelLeaves.from_view(view, "ahrad")

        episode = Episode(
            0.5 * rng.standard_normal((2, 1, 2)),
            0.5 * rng.standard_normal((2, 1, 2)),
            (0, 1),
        )
        p = make_params(affine=False)
        worst["fsl"] = max(worst["fsl"], oracle.worst_grad_error(
            lambda v: _fsl_loss(kernel_of(v), episode, "distance", proj),
            lambda v: oracle.episode_loss(leaves_of(v), episode, "distance", proj),
            p,
        ))

        semantics = [list(0.5 * rng.standard_normal(2)) for _ in range(2)]
        visual = 0.5 * rng.standard_normal((2, 2))
        labels = np.array([0, 1])
        p = make_params(affine=True)
        worst["zsl"] = max(worst["zsl"], oracle.worst_grad_error(
            lambda v: _zsl_loss(kernel_of(v), v.affine, semantics, visual,
                                labels, "distance", proj),
            lambda v: oracle.zsl_loss(leaves_of(v), v.affine, semantics, visual,
                                      labels, "distance", proj),
            p,
        ))

        anchors = 0.5 * rng.standard_normal((2, 2))
        positives = 0.5 * rng.standard_normal((2, 2))
        negatives = 0.5 * rng.standard_normal((2, 2))
        p = make_params(affine=False)
        worst["sts"] = max(worst["sts"], oracle.worst_grad_error(
            lambda v: _sts_loss(kernel_of(v), anchors, positives, negatives,
                                0.5, proj),
            lambda v: oracle.sts_loss(leaves_of(v), anchors, positives, negatives,
                                      0.5, proj),
            p,
        ))
    ok = max(worst.values()) < 1e-4
    report(8, "gradient-vs-finite-differences", ok,
           ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert ok, worst


TREE_SIGMA = 0.5
TRAIN_CURVATURE = 0.02


def _seeded_run(seed: int) -> RunConfig:
    return RunConfig(
        task="fsl", variant="ahrad", m=2, truncation=6,
        curvature=TRAIN_CURVATURE, noise_sigma=TREE_SIGMA,
        dataset_seed=seed, init_seed=seed, train_seed=seed + 10,
        eval_seed=seed + 100, lr=0.05, steps=300, eval_episodes=500,
    )


def test_09_desk_scale_learning():
    lines = []
    ok = True
    for seed in (0, 1, 2):
        start = time.time()
        config = _seeded_run(seed)
        run = train(config)
        elapsed = time.time() - start
        dataset = gen_tree_dataset(seed, 3, 3, 8, TREE_SIGMA, 12)
        base = evaluate(None, dataset, 5, 1, 3, 500, seed + 100,
                        baseline="euclidean")
        seed_ok = (
            0.55 <= base.accuracy <= 0.75
            and run.final_eval.accuracy >= base.accuracy - 0.01
            and run.final_eval.mean_loss < run.initial_eval.mean_loss
            and elapsed < 300.0
        )
        ok = ok and seed_ok
        lines.append(
            f"seed {seed}: base {base.accuracy:.3f}, trained "
            f"{run.final_eval.accuracy:.3f}, loss "
            f"{run.initial_eval.mean_loss:.3f}->{run.final_eval.mean_loss:.3f}, "
            f"{elapsed:.0f}s"
        )
    report(9, "desk-scale-learning", ok, "; ".join(lines))
    assert ok, lines


def test_10_chance_level_sanity():
    dataset = shuffle_labels(gen_tree_dataset(0, 3, 3, 8, TREE_SIGMA, 12), seed=1)
    res = evaluate(None, dataset, 5, 1, 3, 500, seed=0, baseline="euclidean")
    ok = abs(res.accuracy - 0.2) <= res.ci_halfwidth
    report(10, "chance-level-sanity", ok,
           f"accuracy {res.accuracy:.4f}, ci halfwidth {res.ci_halfwidth:.4f}")
    assert ok


def test_11_cli_round_trip(tmp_path):
    feats = tmp_path / "feats.csv"
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((6, 3))
    feats.write_text(
        "x0,x1,x2\n" + "\n".join(",".join(f"{v}" for v in r) for r in rows) + "\n"
    )
    gram_cfg = tmp_path / "gram.json"
    gram_cfg.write_text(json.dumps({
        "version": 1, "curvature": 1.0,
        "kernel": {"variant": "ahrad", "m": 2, "truncation": 8, "init_seed": 1},
    }))
    out = tmp_path / "G.csv"
    assert cli.main(["gram", "--features", str(feats),
                     "--config", str(gram_cfg), "--out", str(out)]) == 0
    got = np.array([
        [complex(v) for v in line.split(",")]
        for line in out.read_text().splitlines()
    ])
    cfg = json.loads(gram_cfg.read_text())
    config = cli._kernel_config_from_json(cfg["kernel"], 3, 1.0)
    from hypkernels.geometry import TangentVector, exp0

    points = [exp0(TangentVector(r), Curvature(1.0)) for r in rows]
    expected = gram(config, points).entries
    bitwise = np.array_equal(got, expected)

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "version": 1, "task": "fsl",
        "kernel": {"variant": "ahrad", "m": 2, "truncation": 6, "init_seed": 0},
        "curvature": TRAIN_CURVATURE,
        "dataset": {"seed": 0, "noise_sigma": TREE_SIGMA},
        "optimizer": {"lr": 0.05, "steps": 10},
        "train_seed": 1, "eval": {"episodes": 20, "seed": 2},
    }))
    a, b = tmp_path / "runA", tmp_path / "runB"
    assert cli.main(["train", "--config", str(train_cfg), "--out", str(a)]) == 0
    assert cli.main(["train", "--config", str(train_cfg), "--out", str(b)]) == 0
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("loss_trace.csv", "params.json", "eval.json")
    )
    ok = bitwise and identical
    report(11, "cli-round-trip", ok,
           f"gram bitwise {bitwise}, rerun byte-identical {identical}")
    assert bitwise
    assert identical


def test_12_coefficient_report(tmp_path):
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "version": 1, "task": "fsl",
        "kernel": {"variant": "ahrad", "m": 2, "truncation": 10, "init_seed": 0},
        "curvature": TRAIN_CURVATURE,
        "dataset": {"seed": 0, "noise_sigma": TREE_SIGMA},
        "optimizer": {"lr": 0.05, "steps": 15},
        "train_seed": 1, "eval": {"episodes": 20, "seed": 2},
    }))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(train_cfg), "--out", str(out)]) == 0
    blob = json.loads((out / "params.json").read_text())
    alphas = blob["derived"]["alphas"]
    nonneg = all(a >= 0.0 for a in alphas)
    round_trip = cli._params_to_json(cli._params_from_json(blob)) == blob
    ok = nonneg and round_trip
    report(12, "coefficient-report", ok,
           f"{len(alphas)} alphas, min {min(alphas):.2e}, "
           f"round-trip {round_trip}")
    assert nonneg
    assert round_trip
