"""The fused layers of the batched forward against their composed references.

Each layer in `learning` (exp0 projection, multiplier b(Z), de Branges-
Rovnyak matrix, base normalisation, radial Horner polynomial, Gram
distance, cross-entropy) is one tape node with a closed-form VJP.
`oracle.COMPOSED` builds the same layers from generic `diff` operators.
Forward values must be bit-identical (the arithmetic is the same, so
evaluation is unchanged) and gradients must agree to 1e-12 relative to
each block's largest entry: per layer on stacked leading axes with the
curvature on the tape, and through whole losses for every variant, score
mode, projection and task, at the branch points (zero-norm rows take the
tanh(r)/r series, a zero pole, a query on its prototype meets the clamp
and the ahlap sqrt).  A tape-size guard keeps the layers fused.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracle
from hypkernels import learning
from hypkernels.cli import _run_config_from_json
from hypkernels.diff import Node, ParamVector, backward, grad, value
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
# step; the composed layers needed 89.
MAX_TAPE_NODES = 30
QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
PROJECTIONS = {"exp0": Projection(), "clip": Projection("clip", beta=0.9, eps=0.2)}


def _assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= GRAD_RTOL * np.max(
        np.abs(ref), initial=0.0)


def _compare(fused, composed, args, on_tape, seed=0):
    """fused(*args) and composed(*args) with args[i] on one tape where
    on_tape[i]: identical values, and matching gradients of a random
    linear functional of the output."""
    results = []
    for layer in (fused, composed):
        tape = []
        nodes = [Node(a, tape) if t else a for a, t in zip(args, on_tape)]
        out = layer(*nodes)
        weights = np.random.default_rng(seed).standard_normal(np.shape(value(out)))
        backward((out * weights).sum())
        results.append((value(out), [n.grad for n in nodes if isinstance(n, Node)]))
    (v_fused, g_fused), (v_comp, g_comp) = results
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
    _compare(learning._exp0, oracle.exp0, (x, np.array(0.7)), on_tape)


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

    def layer(impl):
        def f(Z, P, w, c):
            return impl(learning._Kernel("ahl", c, P, w, None, None, None, None), Z)
        return f

    _compare(layer(learning._multiplier), layer(oracle.multiplier),
             (Z, P, w, np.array(c)), on_tape)


@pytest.mark.parametrize("on_tape", [(True, True, True), (False, False, True),
                                     (True, False, False)])
def test_dbr(on_tape):
    rng = np.random.default_rng(3)
    Z = _ball_points(rng, (2, 5, 3), 0.8)
    B = 0.7 * _ball_points(rng, (2, 5, 3), 0.8)
    _compare(learning._dbr, oracle.dbr, (np.array(0.8), Z, B), on_tape)


@pytest.mark.parametrize("on_tape", [(True, True), (False, True), (True, False)])
def test_dbr_without_multiplier(on_tape):
    Z = _ball_points(np.random.default_rng(3), (2, 5, 3), 0.8)
    _compare(learning._dbr, oracle.dbr, (np.array(0.8), Z), on_tape)


def _gram(rng, c=0.8, stack=2, n=5):
    Z = _ball_points(rng, (stack, n, 3), c)
    B = 0.7 * _ball_points(rng, (stack, n, 3), c)
    return learning._dbr(c, Z, B)


def test_base():
    _compare(learning._base, oracle.base, (_gram(np.random.default_rng(4)),), (True,))


@pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
def test_radial(on_tape):
    rng = np.random.default_rng(5)
    beta = learning._base(_gram(rng))
    alphas = rng.uniform(0.1, 1.0, 5)
    _compare(learning._radial, oracle.radial, (beta, alphas), on_tape)


def test_gram_distance_kinks():
    rng = np.random.default_rng(6)
    n = 2
    Z = _ball_points(rng, (2, 5, 3), 0.8)
    Z[:, n] = Z[:, 0]          # the first query sits on the first column
    G = learning._dbr(0.8, Z, 0.7 * _ball_points(rng, (2, 5, 3), 0.8))
    G[1, 1, 3] = G[1, 3, 1] = 10.0   # a negative squared distance, clamped
    raw = (np.einsum("...ii->...i", G)[..., :n, None]
           + np.einsum("...ii->...i", G)[..., None, n:] - 2.0 * G[..., :n, n:])
    assert (raw <= 0.0).any() and (raw > 0.0).any()
    _compare(lambda G: learning._gram_distance(G, n),
             lambda G: oracle.gram_distance(G, n), (G,), (True,))


def test_cross_entropy():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal((2, 6, 3))
    targets = np.array([0, 0, 1, 1, 2, 2])
    _compare(lambda s: learning._cross_entropy(s, targets),
             lambda s: oracle.cross_entropy(s, targets), (scores,), (True,))


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
    for name, layer in oracle.COMPOSED.items():
        monkeypatch.setattr(learning, name, layer)
    assert loss(p) == fused_value
    composed = grad(loss, p)
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
    loss = learning._make_step_loss(config, dataset,
                                    np.random.default_rng(config.train_seed))
    built = []
    init = Node.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counted)
    grad(loss, init_params(config))
    assert 0 < len(built) <= MAX_TAPE_NODES
