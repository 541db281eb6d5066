"""The batched training/eval forward against the scalar reference path.

Values: every variant, score mode, projection and task, through the
public losses (kernel from a KernelConfig) and through the training
closure's path (kernel from raws), at 1e-12 relative.  Gradients: the
array tape against 60-digit central differences of the reference losses,
on the cases `test_08` does not reach, at the same 1e-4 bound.
"""

import math

import numpy as np
import pytest

import oracle
from hypkernels import _gmath as gm
from hypkernels.diff import ParamVector, grad
from hypkernels.kernels import VARIANTS
from hypkernels.learning import (
    Episode,
    Projection,
    RunConfig,
    _fsl_loss,
    _fsl_rows,
    _kernel_from_config,
    _kernel_from_raws,
    _scores,
    _sts_loss,
    _zsl_loss,
    evaluate,
    fsl_loss,
    gen_tree_dataset,
    init_params,
    params_to_kernel_config,
    sample_episode,
    sts_loss,
    zsl_loss,
)

PROJECTIONS = {"exp0": Projection(), "clip": Projection("clip", beta=0.9, eps=0.2)}
VALUE_RTOL = 1e-12
GRAD_BOUND = 1e-4


def _run(variant, dim=3, **kw):
    return RunConfig(variant=variant, dim=dim, m=2, truncation=4, **kw)


def _leaves(view, run):
    return gm.KernelLeaves.from_view(view, run.variant, run.offset, run.degree,
                                     run.bandwidth)


def _rel(got, ref):
    return abs(float(got) - float(ref)) / abs(float(ref))


def _task_data(rng, dim):
    episode = Episode(0.6 * rng.standard_normal((3, 2, dim)),
                      0.6 * rng.standard_normal((3, 2, dim)), (0, 1, 2))
    zsl = (0.6 * rng.standard_normal((3, dim)), 0.6 * rng.standard_normal((4, dim)),
           np.array([0, 2, 1, 2]), 0.3 * rng.standard_normal((dim, dim + 1)))
    sts = tuple(0.6 * rng.standard_normal((3, dim)) for _ in range(3))
    return episode, zsl, sts


@pytest.mark.parametrize("projection", sorted(PROJECTIONS))
@pytest.mark.parametrize("mode", ["distance", "similarity"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_losses_and_scores_match_scalar_path(variant, mode, projection):
    proj = PROJECTIONS[projection]
    rng = np.random.default_rng(7)
    run = _run(variant, curvature=0.7)
    p = ParamVector(0.3 * rng.standard_normal((2, 3)), rng.standard_normal(2),
                    0.7 + 0.2 * rng.standard_normal(5), fixed_c=0.7)
    episode, (sem, vis, labels, affine), (anc, pos, neg) = _task_data(rng, 3)
    affine = affine + np.hstack([np.eye(3), np.zeros((3, 1))])

    # Evaluation path: kernel from a KernelConfig (da has no multiplier).
    config = params_to_kernel_config(run, p)
    ref_leaves = gm.KernelLeaves.from_config(config)
    ref_scores = oracle.episode_scores(ref_leaves, episode, mode, proj)
    got_scores = _scores(_kernel_from_config(config), *_fsl_rows(episode), mode, proj)
    np.testing.assert_allclose(got_scores, np.array(ref_scores, dtype=float),
                               rtol=VALUE_RTOL, atol=0)
    assert _rel(fsl_loss(config, episode, mode, proj),
                oracle.episode_loss(ref_leaves, episode, mode, proj)) <= VALUE_RTOL
    assert _rel(zsl_loss(config, sem, (vis, labels), affine, mode, proj),
                oracle.zsl_loss(ref_leaves, affine.tolist(), sem, vis, labels, mode,
                                proj)) <= VALUE_RTOL
    assert _rel(sts_loss(config, anc, pos, neg, 0.5, proj),
                oracle.sts_loss(ref_leaves, anc, pos, neg, 0.5, proj)) <= VALUE_RTOL

    # Training path: kernel from raws, as the step closures build it.
    k = _kernel_from_raws(p, run)
    leaves = _leaves(p.view(), run)
    assert _rel(_fsl_loss(k, episode, mode, proj),
                oracle.episode_loss(leaves, episode, mode, proj)) <= VALUE_RTOL
    assert _rel(_zsl_loss(k, affine, sem, vis, labels, mode, proj),
                oracle.zsl_loss(leaves, affine.tolist(), sem, vis, labels, mode,
                                proj)) <= VALUE_RTOL
    assert _rel(_sts_loss(k, anc, pos, neg, 0.5, proj),
                oracle.sts_loss(leaves, anc, pos, neg, 0.5, proj)) <= VALUE_RTOL


@pytest.mark.parametrize("variant,mode", [("ahrad", "distance"),
                                          ("ahlap", "similarity")])
def test_eval_correct_counts_match_scalar_path(variant, mode):
    dataset = gen_tree_dataset(0, 3, 3, 8, 0.5, 12)
    run = _run(variant, dim=8, curvature=0.02)
    config = params_to_kernel_config(run, init_params(run))
    leaves = gm.KernelLeaves.from_config(config)
    proj = Projection()
    for seed in range(50):
        res = evaluate(config, dataset, 5, 1, 3, episodes=1, seed=seed, mode=mode)
        episode = sample_episode(np.random.default_rng(seed), dataset, 5, 1, 3)
        expected = oracle.episode_correct(leaves, episode, mode, proj)
        assert round(res.accuracy * 15) == expected
        assert _rel(res.mean_loss,
                    oracle.episode_loss(leaves, episode, mode, proj)) <= VALUE_RTOL


# (task, variant, mode, projection, trainable curvature)
GRAD_CASES = [
    ("fsl", "ahrad", "distance", "exp0", True),
    ("zsl", "ahrad", "distance", "exp0", True),
    ("fsl", "ahrad", "similarity", "clip", False),
    ("fsl", "ahrad", "distance", "clip", True),
    ("zsl", "ahrad", "similarity", "clip", False),
    ("fsl", "ahl", "distance", "exp0", False),
    ("fsl", "ahrbf", "distance", "exp0", False),
    ("fsl", "ahlap", "distance", "exp0", False),
    ("fsl", "ahpoly", "similarity", "exp0", False),
    ("sts", "ahlap", "similarity", "clip", True),
    ("sts", "ahpoly", "similarity", "exp0", True),
]


def _losses(task, run, mode, proj, rng):
    """(array loss, reference loss) of one small random batch of `task`."""
    if task == "fsl":
        episode = Episode(0.5 * rng.standard_normal((2, 1, 2)),
                          0.5 * rng.standard_normal((2, 1, 2)), (0, 1))
        return (lambda v: _fsl_loss(_kernel_from_raws(v, run), episode, mode, proj),
                lambda v: oracle.episode_loss(_leaves(v, run), episode, mode, proj))
    if task == "zsl":
        sem = 0.5 * rng.standard_normal((2, 2))
        vis = 0.5 * rng.standard_normal((2, 2))
        labels = np.array([0, 1])
        return (lambda v: _zsl_loss(_kernel_from_raws(v, run), v.affine, sem, vis,
                                    labels, mode, proj),
                lambda v: oracle.zsl_loss(_leaves(v, run), v.affine, sem, vis,
                                          labels, mode, proj))
    anc, pos, neg = (0.5 * rng.standard_normal((2, 2)) for _ in range(3))
    return (lambda v: _sts_loss(_kernel_from_raws(v, run), anc, pos, neg, 0.5, proj),
            lambda v: oracle.sts_loss(_leaves(v, run), anc, pos, neg, 0.5, proj))


@pytest.mark.parametrize("task,variant,mode,projection,train_c", GRAD_CASES)
def test_gradient_matches_hp_central_differences(task, variant, mode, projection,
                                                 train_c):
    run = _run(variant, dim=2)
    worst = 0.0
    for draw in range(4):
        rng = np.random.default_rng(200 + draw)
        p = ParamVector(
            0.4 * rng.standard_normal((2, 2)), rng.standard_normal(2),
            0.6 + 0.3 * rng.standard_normal(3),
            log_c=math.log(0.8) + 0.2 * rng.standard_normal() if train_c else None,
            affine=0.3 * rng.standard_normal((2, 3)) if task == "zsl" else None,
        )
        loss, reference = _losses(task, run, mode, PROJECTIONS[projection], rng)
        worst = max(worst, oracle.worst_grad_error(loss, reference, p))
    assert worst < GRAD_BOUND


def test_zero_pole_raw_gives_finite_gradient():
    # exp0 of a zero raw takes the series branch of tanh(r)/r.
    run = _run("ahrad", dim=2)
    rng = np.random.default_rng(5)
    p = ParamVector(np.array([[0.0, 0.0], [0.3, -0.2]]), rng.standard_normal(2),
                    0.6 + 0.3 * rng.standard_normal(3), log_c=math.log(0.8))
    loss, reference = _losses("fsl", run, "distance", Projection(), rng)
    g = grad(loss, p)
    assert np.all(np.isfinite(g.pole_raws)) and math.isfinite(g.log_c)
    assert oracle.worst_grad_error(loss, reference, p) < GRAD_BOUND


def test_query_equal_to_prototype_gives_finite_ahlap_gradient():
    # d^2 = 0 for the query that sits on its prototype: sqrt is masked.
    run = _run("ahlap", dim=2)
    rng = np.random.default_rng(6)
    support = 0.5 * rng.standard_normal((2, 1, 2))
    query = np.concatenate([support[:1], 0.5 * rng.standard_normal((1, 1, 2))])
    episode = Episode(support, query, (0, 1))
    p = ParamVector(0.4 * rng.standard_normal((2, 2)), rng.standard_normal(2),
                    0.6 + 0.3 * rng.standard_normal(3), log_c=math.log(0.8))
    g = grad(lambda v: _fsl_loss(_kernel_from_raws(v, run), episode, "distance",
                                 Projection()), p)
    blocks = (g.pole_raws, g.weight_logits, g.radial_raws, g.log_c)
    assert all(np.all(np.isfinite(b)) for b in blocks)
