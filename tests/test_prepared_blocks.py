"""Training on prepared blocks against a per-step loop.

`learning.train` prepares the data side of each block of fsl episodes
(projection and inner products of the points) once, and each step runs
only the parameter-side layers on its slice of the block.  The reference
here is the per-step loop that training ran before: draw the step's
batch (`_step_batches`), close over it (`_make_step_loss`), which
prepares the batch inside the step's forward, then `diff.grad` and
`diff.step`.  Loss traces, trained raws and evaluations must be
bit-identical.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hypkernels import diff, learning
from hypkernels.cli import _run_config_from_json
from hypkernels.diff import Node, OptimizerState, grad, step, value
from hypkernels.learning import Episode, sample_episode, train

QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
# Entries of one quickstart step's tape: 3 leaves (poles, weights, radial
# coefficients) and 10 layer nodes.
MAX_STEP_TAPE = 13


def _step_batches(config, dataset, rng):
    """Each step's batch, drawn as `train` draws it: fsl episodes a block
    at a time, zsl and sts batches step by step."""
    if config.task == "fsl":
        size = learning._eval_block(config.n_way, config.n_query, dataset)
        for start in range(0, config.steps, size):
            block = sample_episode(rng, dataset, config.n_way, config.n_shot,
                                   config.n_query, episodes=min(size, config.steps - start))
            for e in range(len(block.class_ids)):
                yield Episode(block.support[e], block.query[e], block.class_ids[e])
    elif config.task == "zsl":
        for _ in range(config.steps):
            idx = rng.choice(dataset.features.shape[0], size=config.sts_batch,
                             replace=False)
            yield dataset.features[idx], dataset.labels[idx]
    else:
        for _ in range(config.steps):
            yield learning._sample_triplets(rng, dataset, config.sts_batch)


def _make_step_loss(config, batch, semantics):
    """loss(raws) of one batch, its points projected in the forward."""
    def kernel(raws):
        return learning._kernel_from_raws(raws, config)

    mode, projection = config.score_mode, config.projection
    if config.task == "fsl":
        return lambda raws: learning._fsl_loss(kernel(raws), batch, mode, projection)
    if config.task == "zsl":
        return lambda raws: learning._zsl_loss(kernel(raws), raws.affine, semantics,
                                               *batch, mode, projection)
    return lambda raws: learning._sts_loss(kernel(raws), *batch, config.sts_temperature,
                                           projection)


def _per_step_train(config):
    dataset = learning._run_dataset(config)
    p = learning.init_params(config)
    initial = learning._run_eval(config, dataset, p)
    rng = np.random.default_rng(config.train_seed)
    state = OptimizerState(mode=config.optimizer_mode)
    blocks = tuple(config.blocks)
    if config.train_curvature:
        blocks += ("log_c",)
    if config.task == "zsl":
        blocks += ("affine",)
    semantics = learning._class_semantics(dataset)
    trace = []
    for i, batch in enumerate(_step_batches(config, dataset, rng)):
        loss = learning._recording(_make_step_loss(config, batch, semantics), i, trace)
        state, p = step(state, p, grad(loss, p), config.lr, blocks)
    return trace, p, initial, learning._run_eval(config, dataset, p)


def _quickstart(**changes):
    cfg = json.loads(QUICKSTART.read_text())
    cfg.update(changes)
    return _run_config_from_json(cfg)


@pytest.mark.parametrize("changes", [{}, {"train_curvature": True}, {"task": "zsl"},
                                     {"task": "sts"}],
                         ids=["quickstart", "train-curvature", "zsl", "sts"])
def test_prepared_blocks_match_per_step_loop(changes):
    config = _quickstart(**changes)
    run = train(config)
    trace, p, initial, final = _per_step_train(config)
    assert len(run.loss_trace) == config.steps
    assert run.loss_trace == tuple(trace)
    for name in ("pole_raws", "weight_logits", "radial_raws", "affine"):
        np.testing.assert_array_equal(getattr(run.final_params, name), getattr(p, name))
    assert run.final_params.log_c == p.log_c
    assert (run.initial_eval, run.final_eval) == (initial, final)


def test_quickstart_prepares_features_once_per_block(monkeypatch):
    """Features go through exp0 once per sampler call (2 training blocks,
    3 evaluation blocks shared by both evaluations), and each step's tape
    holds the parameter-side layers only."""
    config = _quickstart()
    samples, projections, tapes = [], [], []
    sampler, exp0, backward = learning.sample_episode, learning._exp0, diff.backward

    def counted_sampler(*args, **kwargs):
        samples.append(kwargs["episodes"])
        return sampler(*args, **kwargs)

    def counted_exp0(x, c):
        if not isinstance(x, Node):
            projections.append(value(x).shape)
        return exp0(x, c)

    def counted_backward(out):
        tapes.append(len(out.tape))
        return backward(out)

    monkeypatch.setattr(learning, "sample_episode", counted_sampler)
    monkeypatch.setattr(learning, "_exp0", counted_exp0)
    monkeypatch.setattr(diff, "backward", counted_backward)
    train(config)
    block = learning._eval_block(config.n_way, config.n_query, learning._run_dataset(config))
    assert len(samples) == math.ceil(config.steps / block) + math.ceil(
        config.eval_episodes / block) == 5
    n = config.n_way * (config.n_query + 1)
    assert projections == [(size, n, config.dim) for size in samples]
    assert len(tapes) == config.steps
    assert max(tapes) <= MAX_STEP_TAPE
