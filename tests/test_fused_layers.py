"""The fused layers of the batched forward against their composed references.

Each layer of the forward (exp0 and clip projections in `geometry`;
cross-entropy in `learning`; multiplier b(Z), de Branges-Rovnyak matrix, Gram distance and
the weights' softmax in `rkhs`; base normalisation and radial Horner
polynomial in `kernels`)
is one tape node with a closed-form VJP.  `oracle.COMPOSED` builds the
same layers from generic `diff` operators.  Forward values must be
bit-identical (the arithmetic is the same, so evaluation is unchanged)
and gradients must agree to 1e-12 relative to each block's largest
entry: per layer on stacked leading axes with the curvature on the tape,
and through whole losses for every variant, score mode, projection and
task, at the branch points (zero-norm rows take the tanh(r)/r series, a
zero pole, a query on its prototype meets the clamp and the ahlap sqrt).
The composed exp0 has no tanh clamp, so the rows past the clamp, and the
rows whose squared norm overflows, are checked against the closed form
of the map there, (1 - 2e-9) x/(sqrt(c)|x|).
The whole-loss cases substitute each layer wherever it is bound and
require exactly the layers the case reads to have run in composed form.
A tape-size guard keeps the layers fused.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracle
from hypkernels import geometry, kernels, learning, rkhs
from hypkernels.cli import _run_config_from_json
from hypkernels.diff import Node, ParamVector, backward, grad, sqrt, value
from hypkernels.kernels import VARIANTS
from hypkernels.learning import (
    Projection,
    RunConfig,
    _kernel_from_raws,
    _scores,
    _sts_loss,
    _zsl_loss,
    gen_tree_dataset,
    init_params,
)

GRAD_RTOL = 1e-12
# Node constructions (leaves included) in one gradient of the quickstart
# step; the composed layers needed 89, the fused ones need 13.
MAX_TAPE_NODES = 13
QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
PROJECTIONS = {"exp0": Projection(), "clip": Projection("clip", beta=0.9, eps=0.2)}
# The module that defines each fused layer.
OWNERS = {"_exp0": geometry, "_clip": geometry, "_multiplier": rkhs, "_dbr": rkhs,
          "_gram_distance": rkhs, "_base": kernels, "_radial": kernels,
          "_cross_entropy": learning, "softmax": rkhs}


def _assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= GRAD_RTOL * np.max(
        np.abs(ref), initial=0.0)


def _layer_grads(layer, args, on_tape, seed=0):
    """Value of layer(*args) and the gradients of a random linear
    functional of it, with args[i] on one tape where on_tape[i]."""
    tape = []
    nodes = [Node(a, tape) if t else a for a, t in zip(args, on_tape)]
    out = layer(*nodes)
    weights = np.random.default_rng(seed).standard_normal(np.shape(value(out)))
    backward((out * weights).sum())
    return [value(out)] + [n.grad for n in nodes if isinstance(n, Node)]


def _compare(fused, composed, args, on_tape, seed=0):
    """fused(*args) and composed(*args) with args[i] on one tape where
    on_tape[i]: identical values, and matching gradients of a random
    linear functional of the output."""
    (v_fused, *g_fused), (v_comp, *g_comp) = (
        _layer_grads(layer, args, on_tape, seed) for layer in (fused, composed))
    np.testing.assert_array_equal(v_fused, v_comp)
    assert len(g_fused) == len(g_comp) == sum(on_tape)
    for a, b in zip(g_fused, g_comp):
        _assert_close(a, b)


def _ball_points(rng, shape, c):
    x = 0.5 * rng.standard_normal(shape)
    return np.tanh(np.sqrt(c) * np.linalg.norm(x, axis=-1, keepdims=True)) * x / (
        np.sqrt(c) * np.linalg.norm(x, axis=-1, keepdims=True))


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_exp0(on_tape):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5, 3))
    x[0, 1] = 0.0
    x[1, 4] = 0.0
    _compare(geometry._exp0, oracle.exp0, (x, np.array(0.7)), on_tape)


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_exp0_without_series_rows(on_tape):
    """No row below r^2 = 1e-8: the VJP forms no series branch."""
    x = np.random.default_rng(18).standard_normal((2, 5, 3))
    _compare(geometry._exp0, oracle.exp0, (x, np.array(0.7)), on_tape)


def test_exp0_series_rows_leave_other_rows_bits():
    """A row's gradient has the same bits whether or not its batch holds
    rows on the series branch (a zero row and one with r^2 = 1e-10)."""
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 5, 3))
    g = rng.standard_normal(x.shape)
    mixed = x.copy()
    mixed[0, 1] = 0.0
    mixed[1, 2] *= 1e-5 / np.sqrt(0.7 * mixed[1, 2] @ mixed[1, 2])
    grads = []
    for points in (x, mixed):
        out = geometry._exp0(Node(points), 0.7)
        grads.append(out.vjp(g)[0])
    keep = np.ones(x.shape[:-1], dtype=bool)
    keep[0, 1] = keep[1, 2] = False
    np.testing.assert_array_equal(grads[0][keep], grads[1][keep])


def _past_clamp(x, c):
    """exp0 past its clamp, composed: TANH_MAX x/(sqrt(c)|x|)."""
    return geometry.TANH_MAX * x / (sqrt(c) * sqrt((x * x).sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_exp0_past_the_clamp(on_tape):
    """Rows past the clamp (r > 10.4) against the closed form of the map
    there, to 1e-12 in values and gradients (tanh' = 0 past the clamp)."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 4, 3))
    x *= np.array([12.5, 20.0, 1e3, 1e150])[:, None] / np.linalg.norm(
        x, axis=-1, keepdims=True)
    args = (x, np.array(0.7))
    fused = _layer_grads(geometry._exp0, args, on_tape)
    for got, ref in zip(fused, _layer_grads(_past_clamp, args, on_tape)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.sqrt(0.7) * np.linalg.norm(fused[0], axis=-1),
                               geometry.TANH_MAX, rtol=1e-15)


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_exp0_overflowing_rows(on_tape):
    """Rows whose squared norm overflows land next to the boundary along
    their direction: values and gradients match the closed form past the
    clamp on the rows scaled by powers of two 2^k to a norm near 2^10,
    where the map is the same and its gradient along x 2^k times larger."""
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 3, 3)) * np.array([1e160, 1e200, 1e300])[:, None]
    x[1, 2] = np.array([1e308, -1e308, 3.0])
    k = 10 - np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]
    with np.errstate(over="ignore"):
        fused = _layer_grads(geometry._exp0, (x, np.array(0.7)), on_tape)
    ref = _layer_grads(_past_clamp, (np.ldexp(x, k), np.array(0.7)), on_tape)
    if on_tape[0]:
        ref[1] = np.ldexp(ref[1], k)
    for got, want in zip(fused, ref):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_clip(on_tape):
    """Rows inside and outside the shell, a zero row and rows a few ulps
    either side of the threshold."""
    rng = np.random.default_rng(14)
    c, eps = 0.7, 0.2
    x = rng.standard_normal((2, 6, 3)) * rng.uniform(0.1, 3.0, (2, 6, 1))
    x[0, 1] = 0.0
    shell = (1.0 - eps) / np.sqrt(c)
    for k, steps in enumerate((-2, -1, 0, 1)):
        x[1, k] *= shell / np.linalg.norm(x[1, k]) * (1.0 + steps * 2.0**-52)
    _compare(lambda x, c: geometry._clip(x, c, 0.9, eps),
             lambda x, c: oracle.clip(x, c, 0.9, eps), (x, np.array(c)), on_tape)


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_clip_overflowing_rows(on_tape):
    """Rows whose squared norm overflows are clipped to the shell along
    their direction: values and gradients match the composed clip on the
    rows scaled by powers of two 2^k to a norm near 2^10, still outside
    the shell, where the map is the same and its gradient along x 2^k
    times larger."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 4)) * np.array([1e160, 1e200, 1e300])[:, None]
    x[1, 2] = np.array([1e308, -1e308, 0.5, 2.0])
    k = 10 - np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]
    with np.errstate(over="ignore"):
        fused = _layer_grads(lambda x, c: geometry._clip(x, c, 0.9, 0.2),
                             (x, np.array(0.7)), on_tape)
    ref = _layer_grads(lambda x, c: oracle.clip(x, c, 0.9, 0.2),
                       (np.ldexp(x, k), np.array(0.7)), on_tape)
    if on_tape[0]:
        ref[1] = np.ldexp(ref[1], k)
    for got, want in zip(fused, ref):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("on_tape", [(True, True, True, True),
                                     (False, True, True, False),
                                     (True, False, False, True)])
def test_multiplier(on_tape):
    rng = np.random.default_rng(2)
    c = 0.8
    Z = _ball_points(rng, (2, 5, 3), c)
    P = _ball_points(rng, (3, 3), c)
    P[0] = 0.0   # a zero pole: s = 1, the term is -z
    w = np.array([0.5, 0.3, 0.2])
    _compare(rkhs._multiplier, oracle.multiplier, (Z, P, w, np.array(c)), on_tape)


# The cross shape of the tests: the first ROWS of 5 points against the rest.
ROWS = 3


@pytest.mark.parametrize("on_tape", [(True, True, True), (False, False, True),
                                     (True, False, False)])
def test_dbr(on_tape):
    rng = np.random.default_rng(3)
    Z = _ball_points(rng, (2, 5, 3), 0.8)
    B = 0.7 * _ball_points(rng, (2, 5, 3), 0.8)
    _compare(lambda c, Z, B: rkhs._dbr(c, Z, B, ROWS),
             lambda c, Z, B: oracle.dbr(c, Z, B, ROWS), (np.array(0.8), Z, B), on_tape)


@pytest.mark.parametrize("on_tape", [(True, True), (False, True), (True, False)])
def test_dbr_without_multiplier(on_tape):
    Z = _ball_points(np.random.default_rng(3), (2, 5, 3), 0.8)
    _compare(lambda c, Z: rkhs._dbr(c, Z, None, ROWS),
             lambda c, Z: oracle.dbr(c, Z, None, ROWS), (np.array(0.8), Z), on_tape)


@pytest.mark.parametrize("c_on_tape,with_b", [(True, True), (False, True), (True, False)])
def test_dbr_prepared_products(c_on_tape, with_b, monkeypatch):
    """Z off the tape with its products prepared, B on it: the values and
    the cotangents of c and B have the bits of the all-on-tape VJP, and
    no cotangent of Z is formed."""
    rng = np.random.default_rng(17)
    c = np.array(0.8)
    Z = _ball_points(rng, (2, 5, 3), 0.8)
    B = 0.7 * _ball_points(rng, (2, 5, 3), 0.8) if with_b else None
    full = _layer_grads(lambda c, Z, B: rkhs._dbr(c, Z, B, ROWS), (c, Z, B),
                        (c_on_tape, True, with_b))
    formed = []
    vjp = rkhs._cross_products_vjp

    def counted(gP, V, n):
        formed.append(V is Z)
        return vjp(gP, V, n)

    monkeypatch.setattr(rkhs, "_cross_products_vjp", counted)
    ZZ = rkhs._cross_products(Z, ROWS)
    prepared = _layer_grads(lambda c, B: rkhs._dbr(c, Z, B, ROWS, ZZ), (c, B),
                            (c_on_tape, with_b))
    del full[1 + c_on_tape]     # the cotangent of Z
    assert len(prepared) == len(full)
    for got, want in zip(prepared, full):
        np.testing.assert_array_equal(got, want)
    assert formed == ([False] if with_b else [])


@pytest.mark.parametrize("shape,top", [((4, 3), 1), ((5, 4), 6), ((2, 6, 3), 8),
                                       ((16, 6), 50)])
def test_radial_coefficient_vjp_is_the_power_loop(shape, top):
    """The coefficients' cotangent sum(g beta^l) has the bits of the loop
    that multiplies g by beta once per power and sums each power."""
    rng = np.random.default_rng(20)
    beta = rng.uniform(0.0, 1.0, shape)
    g = rng.standard_normal(shape)
    out = kernels._radial(beta, Node(rng.uniform(0.1, 1.0, top + 1)))
    loop = np.empty(top + 1)
    power = g
    for l in range(top + 1):
        loop[l] = power.sum()
        power = power * beta
    np.testing.assert_array_equal(out.vjp(g)[1], loop)


@pytest.mark.parametrize("with_b", [True, False])
def test_cross_shape_is_the_gram_block(with_b):
    """The cross matrix holds the rows-by-columns block of the Hermitian
    Gram matrix of all points and, on its border, the Gram diagonal, up to
    rounding (the self-kernels come from row norms, not from the matrix
    product)."""
    rng = np.random.default_rng(10)
    Z = _ball_points(rng, (2, 5, 3), 0.8)
    B = 0.7 * _ball_points(rng, (2, 5, 3), 0.8) if with_b else None
    X = rkhs._dbr(0.8, Z, B, ROWS)
    K = rkhs._dbr(0.8, Z, B)
    assert X.shape == (2, ROWS + 1, 5 - ROWS + 1)
    diag = np.einsum("...ii->...i", K)
    np.testing.assert_allclose(X[..., :-1, :-1], K[..., :ROWS, ROWS:], rtol=1e-14)
    np.testing.assert_allclose(X[..., :-1, -1], diag[..., :ROWS], rtol=1e-14)
    np.testing.assert_allclose(X[..., -1, :-1], diag[..., ROWS:], rtol=1e-14)
    assert (X[..., -1, -1] == 1.0).all()


def test_boundary_point_has_no_kernel():
    """A point rounded onto the ball boundary makes its row or column of
    the cross matrix nan, border included; every other entry is kept."""
    rng = np.random.default_rng(11)
    Z = _ball_points(rng, (5, 3), 0.8)
    Z[1] = Z[1] / (np.sqrt(0.8) * np.linalg.norm(Z[1]))   # a row on the boundary
    Z[4] = 2.0 * Z[4] / (np.sqrt(0.8) * np.linalg.norm(Z[4]))   # a column past it
    assert 1.0 - 0.8 * Z[1] @ Z[1] <= 0.0
    for B in (None, 0.7 * _ball_points(rng, (5, 3), 0.8)):
        X = rkhs._dbr(0.8, Z, B, ROWS)
        bad = np.zeros(X.shape, dtype=bool)
        bad[1, :] = bad[:, 4 - ROWS] = True
        assert np.isnan(X[bad]).all() and np.isfinite(X[~bad]).all()


def _gram(rng, c=0.8, stack=2, n=5):
    Z = _ball_points(rng, (stack, n, 3), c)
    B = 0.7 * _ball_points(rng, (stack, n, 3), c)
    return rkhs._dbr(c, Z, B, ROWS)


def test_base():
    _compare(kernels._base, oracle.base, (_gram(np.random.default_rng(4)),), (True,))


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_radial(on_tape):
    rng = np.random.default_rng(5)
    beta = kernels._base(_gram(rng))
    alphas = rng.uniform(0.1, 1.0, 5)
    _compare(kernels._radial, oracle.radial, (beta, alphas), on_tape)


def test_gram_distance_kinks():
    rng = np.random.default_rng(6)
    Z = _ball_points(rng, (2, 5, 3), 0.8)
    Z[:, ROWS] = Z[:, 0]          # the first query sits on the first column
    X = rkhs._dbr(0.8, Z, 0.7 * _ball_points(rng, (2, 5, 3), 0.8), ROWS)
    X[1, 1, 0] = 10.0   # a negative squared distance, clamped
    raw = X[..., :-1, -1:] + X[..., -1:, :-1] - 2.0 * X[..., :-1, :-1]
    assert (raw <= 0.0).any() and (raw > 0.0).any()
    _compare(rkhs._gram_distance, oracle.gram_distance, (X,), (True,))


def test_gram_distance_gram_shape():
    """Every row against every column, as `gram` forms it, of a
    Drury-Arveson Gram matrix bordered by its diagonal: the diagonal is
    exactly 0 (the clamp's kink) and the rest positive."""
    K = rkhs._dbr(0.8, _ball_points(np.random.default_rng(9), (2, 5, 3), 0.8))
    X = rkhs._bordered(K)
    assert (rkhs._gram_distance(X, True)[..., np.arange(5), np.arange(5)] == 0.0).all()
    _compare(rkhs._gram_distance, oracle.gram_distance, (X,), (True,))


def test_gram_distance_keeps_nan():
    X = _gram(np.random.default_rng(12))
    X[0, 1, 0] = np.nan
    dist = rkhs._gram_distance(X)
    assert np.isnan(dist[0, 1, 0]) and np.isfinite(np.delete(dist.ravel(), 2)).all()


def test_cross_entropy():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal((2, 6, 3))
    targets = np.array([0, 0, 1, 1, 2, 2])
    _compare(lambda s: learning._cross_entropy(s, targets),
             lambda s: oracle.cross_entropy(s, targets), (scores,), (True,))


def test_softmax():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    _compare(rkhs.softmax, oracle.softmax, (logits,), (True,))


def _task_loss(task, run, mode, proj, rng):
    """A loss over the raws: fsl on two stacked episodes (a query on its
    prototype, a zero-norm query), zsl and sts with a zero-norm row."""
    if task == "fsl":
        protos = 0.6 * rng.standard_normal((2, 3, 3))
        queries = 0.6 * rng.standard_normal((2, 6, 3))
        queries[0, 0] = protos[0, 0]
        queries[1, 3] = 0.0
        targets = np.repeat(np.arange(3), 2)
        return lambda v: learning._cross_entropy(
            _scores(_kernel_from_raws(v, run), queries, protos, mode, proj),
            targets).sum()
    if task == "zsl":
        sem = 0.6 * rng.standard_normal((3, 3))
        vis = 0.6 * rng.standard_normal((4, 3))
        vis[2] = 0.0
        labels = np.array([0, 2, 1, 2])
        return lambda v: _zsl_loss(_kernel_from_raws(v, run), v.affine, sem, vis,
                                   labels, mode, proj)
    anc, pos, neg = (0.6 * rng.standard_normal((3, 3)) for _ in range(3))
    pos[0] = anc[0]
    neg[1] = 0.0
    return lambda v: _sts_loss(_kernel_from_raws(v, run), anc, pos, neg, 0.5, proj)


# sts scores by similarity only, so it has no distance case.
PIPELINE_CASES = [(task, variant, mode, projection)
                  for task in ("fsl", "zsl", "sts")
                  for variant in VARIANTS
                  for mode in (("similarity",) if task == "sts"
                               else ("distance", "similarity"))
                  for projection in sorted(PROJECTIONS)]


def _substitute_composed(monkeypatch) -> set:
    """Put each composed layer in place of its fused one, in the module that
    owns the layer and in every module that imported it; returns the set
    that collects the names of the composed layers that ran."""
    assert set(OWNERS) == set(oracle.COMPOSED)
    ran = set()
    for name, composed in oracle.COMPOSED.items():
        fused = getattr(OWNERS[name], name)

        def substitute(*args, name=name, composed=composed):
            ran.add(name)
            return composed(*args)

        for module in (geometry, learning, kernels, rkhs):
            if getattr(module, name, None) is fused:
                monkeypatch.setattr(module, name, substitute)
    return ran


def _layers_read(variant, mode, projection) -> set:
    """The layers a loss of this variant, score mode and projection runs."""
    layers = {"_dbr", "_cross_entropy", "_" + projection}
    if variant != "da":
        # the poles go through exp0, the weights through softmax
        layers |= {"_exp0", "_multiplier", "softmax"}
    if variant in ("base", "ahrad"):
        layers.add("_base")
    if variant == "ahrad":
        layers.add("_radial")
    if mode == "distance" or variant in ("ahrbf", "ahlap"):
        layers.add("_gram_distance")
    return layers


@pytest.mark.parametrize("train_c", [True, False])
@pytest.mark.parametrize("task,variant,mode,projection", PIPELINE_CASES)
def test_losses_match_composed_layers(task, variant, mode, projection, train_c,
                                      monkeypatch):
    rng = np.random.default_rng(8)
    run = RunConfig(variant=variant, dim=3, m=2, truncation=4, curvature=0.7)
    pole_raws = 0.4 * rng.standard_normal((2, 3))
    pole_raws[0] = 0.0
    affine = None
    if task == "zsl":
        affine = (np.hstack([np.eye(3), np.zeros((3, 1))])
                  + 0.3 * rng.standard_normal((3, 4)))
    p = ParamVector(pole_raws, rng.standard_normal(2),
                    0.6 + 0.3 * rng.standard_normal(5),
                    log_c=math.log(0.7) if train_c else None, fixed_c=0.7,
                    affine=affine)
    loss = _task_loss(task, run, mode, PROJECTIONS[projection], rng)
    fused_value, fused = loss(p), grad(loss, p)
    ran = _substitute_composed(monkeypatch)
    assert loss(p) == fused_value
    composed = grad(loss, p)
    assert ran == _layers_read(variant, mode, projection)
    for block in ("pole_raws", "weight_logits", "radial_raws", "log_c", "affine"):
        ref = getattr(composed, block)
        if ref is None:
            assert getattr(fused, block) is None
        else:
            _assert_close(getattr(fused, block), ref)


def test_quickstart_step_tape_size(monkeypatch):
    config = _run_config_from_json(json.loads(QUICKSTART.read_text()))
    assert (config.task, config.variant, config.score_mode, config.projection.kind,
            config.train_curvature) == ("fsl", "ahrad", "distance", "exp0", False)
    dataset = gen_tree_dataset(config.dataset_seed, config.depth, config.branching,
                               config.dim, config.noise_sigma, config.samples_per_leaf,
                               config.step_length)
    loss = next(learning._step_losses(config, dataset,
                                      np.random.default_rng(config.train_seed)))
    built = []
    init = Node.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counted)
    grad(loss, init_params(config))
    assert 0 < len(built) <= MAX_TAPE_NODES
