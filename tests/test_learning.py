import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracle
from hypkernels import diff, learning
from hypkernels.checks import random_multiplier
from hypkernels.cli import EXIT_DIVERGENCE, _run_config_from_json, main
from hypkernels.diff import ParamVector, grad, materialize
from hypkernels.geometry import Curvature
from hypkernels.kernels import VARIANTS, KernelConfig, RadialCoeffs
from hypkernels.learning import (
    DivergenceError,
    Episode,
    LabeledSet,
    Projection,
    RunConfig,
    evaluate,
    fsl_loss,
    gen_tree_dataset,
    init_params,
    params_to_kernel_config,
    sample_episode,
    sts_loss,
    train,
    zsl_loss,
)


@pytest.fixture(scope="module")
def dataset():
    return gen_tree_dataset(seed=0, depth=3, branching=3, dim=8,
                            noise_sigma=0.35, samples_per_leaf=12)


@pytest.fixture(scope="module")
def kconfig():
    p = ParamVector(0.1 * np.ones((2, 8)), np.zeros(2),
                    np.array([0.7, 0.5, 0.3]))
    params, radial, _ = materialize(p)
    return KernelConfig("ahrad", params=params, radial=radial)


class TestProjection:
    def test_default_is_exp0(self):
        assert Projection().kind == "exp0"

    def test_clip_requires_parameters(self):
        with pytest.raises(ValueError):
            Projection("clip")
        with pytest.raises(ValueError):
            Projection("clip", beta=2.0, eps=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Projection("stereographic")

    def test_apply_stays_in_ball(self):
        for proj in (Projection(), Projection("clip", beta=0.9, eps=0.2)):
            out = proj.apply([10.0, -3.0], 1.0)
            assert sum(x * x for x in out) < 1.0


class TestTreeDataset:
    def test_shape_and_classes(self, dataset):
        assert dataset.features.shape == (27 * 12, 8)
        assert dataset.classes.size == 27

    def test_deterministic(self, dataset):
        again = gen_tree_dataset(0, 3, 3, 8, 0.35, 12)
        np.testing.assert_array_equal(dataset.features, again.features)
        np.testing.assert_array_equal(dataset.labels, again.labels)

    def test_seed_changes_data(self, dataset):
        other = gen_tree_dataset(1, 3, 3, 8, 0.35, 12)
        assert not np.array_equal(dataset.features, other.features)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_tree_dataset(0, 1, 3, 8, 0.35, 12)
        with pytest.raises(ValueError):
            gen_tree_dataset(0, 3, 3, 8, -0.1, 12)

    def test_shuffle_labels_keeps_features(self, dataset):
        shuffled = oracle.shuffle_labels(dataset, seed=1)
        np.testing.assert_array_equal(shuffled.features, dataset.features)
        assert not np.array_equal(shuffled.labels, dataset.labels)
        assert sorted(shuffled.labels) == sorted(dataset.labels)


class TestEpisodes:
    def test_shapes(self, dataset):
        rng = np.random.default_rng(0)
        ep = sample_episode(rng, dataset, 5, 2, 3)
        assert ep.support.shape == (5, 2, 8)
        assert ep.query.shape == (5, 3, 8)
        assert len(set(ep.class_ids)) == 5

    def test_support_query_disjoint(self, dataset):
        rng = np.random.default_rng(1)
        ep = sample_episode(rng, dataset, 4, 2, 2)
        sup = {tuple(r) for r in ep.support.reshape(-1, 8)}
        qry = {tuple(r) for r in ep.query.reshape(-1, 8)}
        assert not sup & qry

    def test_too_many_ways(self, dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_episode(rng, dataset, 28, 1, 1)

    def test_episode_validation(self):
        with pytest.raises(ValueError):
            Episode(np.zeros((2, 1, 3)), np.zeros((3, 1, 3)), (0, 1))


class TestLosses:
    def test_fsl_finite_positive(self, dataset, kconfig):
        rng = np.random.default_rng(2)
        ep = sample_episode(rng, dataset, 5, 1, 3)
        val = fsl_loss(kconfig, ep)
        assert np.isfinite(val) and val > 0

    @pytest.mark.parametrize("episodes", [1, 2, 7])
    def test_fsl_on_a_stack_is_the_mean_evaluate_loss(self, dataset, kconfig, episodes):
        stack = sample_episode(np.random.default_rng(9), dataset, 5, 1, 3, episodes=episodes)
        want = evaluate(kconfig, dataset, 5, 1, 3, episodes, seed=9).mean_loss
        assert fsl_loss(kconfig, stack) == want

    def test_fsl_similarity_mode(self, dataset, kconfig):
        rng = np.random.default_rng(2)
        ep = sample_episode(rng, dataset, 5, 1, 3)
        assert np.isfinite(fsl_loss(kconfig, ep, mode="similarity"))

    def test_fsl_easy_episode_has_low_loss(self, kconfig):
        # Widely separated classes with tiny noise: loss far below ln(2).
        easy = gen_tree_dataset(0, 2, 2, 4, 0.01, 8, step_length=2.0)
        rng = np.random.default_rng(0)
        ep = sample_episode(rng, easy, 2, 3, 3)
        assert fsl_loss(kconfig_for(dim=4), ep) < np.log(2.0)

    def test_zsl_finite(self, dataset, kconfig):
        semantics = np.stack(
            [dataset.features[dataset.labels == c].mean(axis=0)
             for c in dataset.classes[:4]]
        )
        feats = dataset.features[:6]
        labels = dataset.labels[:6] % 4
        lin = np.hstack([np.eye(8), np.zeros((8, 1))])
        val = zsl_loss(kconfig, semantics, (feats, labels), lin)
        assert np.isfinite(val) and val > 0

    def test_zsl_label_bounds(self, kconfig):
        with pytest.raises(ValueError):
            zsl_loss(kconfig, np.zeros((2, 8)),
                     (np.zeros((1, 8)), np.array([5])),
                     np.hstack([np.eye(8), np.zeros((8, 1))]))

    def test_sts_finite(self, dataset, kconfig):
        a = dataset.features[:4]
        p = dataset.features[4:8]
        n = dataset.features[8:12]
        val = sts_loss(kconfig, a, p, n, temperature=0.5)
        assert np.isfinite(val) and val > 0

    def test_sts_validation(self, kconfig):
        with pytest.raises(ValueError):
            sts_loss(kconfig, np.zeros((2, 8)), np.zeros((3, 8)),
                     np.zeros((2, 8)), 0.5)
        with pytest.raises(ValueError):
            sts_loss(kconfig, np.zeros((2, 8)), np.zeros((2, 8)),
                     np.zeros((2, 8)), 0.0)

    def test_complex_poles_rejected(self, dataset):
        # The losses and evaluate run on real features; dropping the
        # imaginary pole parts would score a different kernel.
        params = random_multiplier(np.random.default_rng(0), 2, 8, Curvature(0.02),
                                   complex_coords=True)
        config = KernelConfig("ahl", params=params)
        ep = sample_episode(np.random.default_rng(2), dataset, 5, 1, 3)
        with pytest.raises(ValueError, match="complex poles"):
            fsl_loss(config, ep)
        with pytest.raises(ValueError, match="complex poles"):
            sts_loss(config, *dataset.features[:12].reshape(3, 4, 8), 0.5)
        with pytest.raises(ValueError, match="complex poles"):
            evaluate(config, dataset, 5, 1, 3, episodes=2, seed=0)


class TestBaselines:
    def test_euclidean_score(self):
        s = oracle.euclidean_baseline_score(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert s == pytest.approx(-1.0)

    def test_geodesic_needs_curvature(self):
        with pytest.raises(ValueError):
            oracle.euclidean_baseline_score(np.array([0.1]), np.array([0.2]),
                                     mode="geodesic")

    def test_geodesic_score(self):
        from hypkernels.geometry import Curvature

        s = oracle.euclidean_baseline_score(np.array([0.0]), np.array([0.5]),
                                     mode="geodesic", curvature=Curvature(1.0))
        assert s == pytest.approx(-2.0 * np.arctanh(0.5))


class TestEvaluate:
    def test_kernel_better_than_chance(self, dataset, kconfig):
        res = evaluate(kconfig, dataset, 5, 1, 3, episodes=50, seed=0)
        assert res.accuracy > 0.3
        assert res.mean_loss is not None and np.isfinite(res.mean_loss)

    def test_baseline_mode(self, dataset):
        res = evaluate(None, dataset, 5, 1, 3, episodes=50, seed=0,
                       baseline="euclidean")
        assert 0.2 < res.accuracy <= 1.0
        assert res.mean_loss is None

    def test_deterministic(self, dataset, kconfig):
        a = evaluate(kconfig, dataset, 5, 1, 3, episodes=20, seed=3)
        b = evaluate(kconfig, dataset, 5, 1, 3, episodes=20, seed=3)
        assert a == b

    def test_ci_shrinks_with_episodes(self, dataset):
        few = evaluate(None, dataset, 5, 1, 3, 20, 0, baseline="euclidean")
        many = evaluate(None, dataset, 5, 1, 3, 200, 0, baseline="euclidean")
        assert many.ci_halfwidth < few.ci_halfwidth

    def test_needs_config_or_baseline(self, dataset):
        with pytest.raises(ValueError, match="kernel config or a baseline"):
            evaluate(None, dataset, 5, 1, 3, episodes=2, seed=0)


    def test_boundary_scores_raise(self, dataset, monkeypatch):
        # At curvature 100 the unclamped exp0 rounds the projected points
        # onto the boundary, 1 - c|z|^2 = 0: the kernel is inf and the
        # scores nan.
        oracle.unclamp_exp0(monkeypatch)
        run = RunConfig(variant="ahl", curvature=100.0)
        config = params_to_kernel_config(run, init_params(run))
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                      match="non-finite"):
            evaluate(config, dataset, 5, 1, 3, episodes=20, seed=2)

    @pytest.mark.parametrize("mode", ["distance", "similarity"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_boundary_raises_in_every_variant_and_mode(self, dataset, variant, mode,
                                                       monkeypatch):
        # No boundary nan may be clamped, masked or normalised into a
        # finite score, whichever layers the variant and mode run.
        oracle.unclamp_exp0(monkeypatch)
        run = RunConfig(variant=variant, curvature=100.0)
        config = params_to_kernel_config(run, init_params(run))
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                      match="non-finite"):
            evaluate(config, dataset, 5, 1, 3, episodes=200, seed=2, mode=mode)

    @pytest.mark.parametrize("mode", ["distance", "similarity"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_boundary_point_raises(self, variant, mode, monkeypatch):
        # Five classes of four rows: every 5-way 1+3-shot episode holds every
        # row, one of which the unclamped exp0 maps exactly onto the
        # boundary at c = 1.
        oracle.unclamp_exp0(monkeypatch)
        features = 0.3 * np.random.default_rng(0).standard_normal((20, 8))
        features[6] = 0.0
        features[6, 0] = 40.0
        z = oracle.exp0(features[6], 1.0)
        assert 1.0 - z @ z <= 0.0
        data = LabeledSet(features, np.repeat(np.arange(5), 4))
        run = RunConfig(variant=variant, curvature=1.0)
        config = params_to_kernel_config(run, init_params(run))
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError,
                                                      match="non-finite"):
            evaluate(config, data, 5, 1, 3, episodes=1, seed=0, mode=mode)

    @pytest.mark.parametrize("mode", ["distance", "similarity"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_clamped_projection_keeps_curvature_100_finite(self, dataset, variant,
                                                           mode):
        # The clamp keeps every projected point off the boundary, so the
        # evaluation that the unclamped map breaks above is finite.
        run = RunConfig(variant=variant, curvature=100.0)
        config = params_to_kernel_config(run, init_params(run))
        res = evaluate(config, dataset, 5, 1, 3, episodes=200, seed=2, mode=mode)
        assert 0.0 <= res.accuracy <= 1.0
        assert math.isfinite(res.mean_loss) and math.isfinite(res.ci_halfwidth)


class TestTrain:
    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(task="regression")
        with pytest.raises(ValueError):
            RunConfig(steps=-1)

    def test_init_params_shapes(self):
        config = RunConfig(m=3, truncation=5, dim=8)
        p = init_params(config)
        assert p.pole_raws.shape == (3, 8)
        assert p.radial_raws.size == 6
        assert p.affine is None

    def test_zsl_gets_affine(self):
        p = init_params(RunConfig(task="zsl", dim=8))
        assert p.affine.shape == (8, 9)

    def test_short_fsl_run_improves_loss(self):
        config = RunConfig(steps=15, truncation=6, eval_episodes=30,
                           lr=0.05)
        run = train(config)
        assert len(run.loss_trace) == 15
        assert all(np.isfinite(v) for v in run.loss_trace)
        assert run.final_eval.mean_loss < run.initial_eval.mean_loss

    def test_zero_lr_keeps_params(self):
        config = RunConfig(steps=3, truncation=4, eval_episodes=5, lr=0.0)
        run = train(config)
        np.testing.assert_array_equal(run.final_params.pole_raws,
                                      init_params(config).pole_raws)

    def test_deterministic_replay(self):
        config = RunConfig(steps=5, truncation=4, eval_episodes=10)
        a = train(config)
        b = train(config)
        assert a.loss_trace == b.loss_trace
        np.testing.assert_array_equal(a.final_params.radial_raws,
                                      b.final_params.radial_raws)
        assert a.final_eval == b.final_eval

    @pytest.mark.parametrize("task", ["zsl", "sts"])
    def test_other_tasks_run(self, task):
        config = RunConfig(task=task, steps=3, truncation=4, eval_episodes=5)
        run = train(config)
        assert all(np.isfinite(v) for v in run.loss_trace)

    def test_params_to_kernel_config(self):
        config = RunConfig(variant="ahrbf", bandwidth=1.0, truncation=4)
        kc = params_to_kernel_config(config, init_params(config))
        assert kc.variant == "ahrbf" and kc.bandwidth == 1.0

    def test_da_trains_the_kernel_it_reports(self):
        # The Drury-Arveson kernel has no multiplier: training must not see
        # the poles, and its loss must be the loss of the reported kernel.
        config = RunConfig(variant="da", steps=1, truncation=4, eval_episodes=2)
        dataset = gen_tree_dataset(config.dataset_seed, config.depth,
                                   config.branching, config.dim,
                                   config.noise_sigma, config.samples_per_leaf)
        p = init_params(config)
        rng = np.random.default_rng(config.train_seed)
        g = grad(next(learning._step_losses(config, dataset, rng)), p)
        # the episode of that step, drawn again from the same seed
        block = sample_episode(np.random.default_rng(config.train_seed), dataset,
                               config.n_way, config.n_shot, config.n_query, episodes=1)
        episode = Episode(block.support[0], block.query[0], block.class_ids[0])
        assert not np.any(g.pole_raws) and not np.any(g.weight_logits)
        reported = fsl_loss(params_to_kernel_config(config, p), episode)
        step0 = train(config).loss_trace[0]
        assert abs(step0 - reported) <= 1e-12 * abs(reported)


    def test_zsl_class_semantics_once_per_run(self, monkeypatch):
        calls = []
        semantics = learning._class_semantics

        def counted(dataset):
            calls.append(1)
            return semantics(dataset)

        monkeypatch.setattr(learning, "_class_semantics", counted)
        run = train(RunConfig(task="zsl", steps=5, truncation=4, eval_episodes=3))
        assert len(run.loss_trace) == 5 and len(calls) == 1

    def test_quickstart_draws_episodes_in_blocks(self, monkeypatch):
        # One sampler call per block of `_eval_block` episodes: the 300
        # training steps take 2 and the 500 evaluation episodes 3, drawn
        # once for the initial and the final evaluation.
        config = _run_config_from_json(json.loads(QUICKSTART.read_text()))
        calls = []
        sampler = learning.sample_episode

        def counted(*args, **kwargs):
            calls.append(kwargs.get("episodes"))
            return sampler(*args, **kwargs)

        monkeypatch.setattr(learning, "sample_episode", counted)
        train(config)
        block = learning._eval_block(config.n_way, config.n_query, learning._run_dataset(config))
        assert sum(calls) == config.steps + config.eval_episodes
        assert len(calls) == (math.ceil(config.steps / block)
                              + math.ceil(config.eval_episodes / block))
        assert len(calls) <= MAX_QUICKSTART_SAMPLER_CALLS


# Sampler calls in one quickstart `train`; drawing one episode per call
# made 1300, drawing the evaluation episodes once per evaluation 8.
MAX_QUICKSTART_SAMPLER_CALLS = 5
QUICKSTART = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"


def _nan_at_step(monkeypatch, bad_step):
    """Make the step loss non-finite at training step bad_step; returns the
    per-step loss calls and the backward passes made so far."""
    calls = []
    backwards = []
    fsl = learning._episode_loss
    backward = diff.backward

    def loss(*args):
        calls.append(len(calls))
        return math.nan if len(calls) - 1 == bad_step else fsl(*args)

    def counted_backward(out):
        backwards.append(len(calls))
        return backward(out)

    monkeypatch.setattr(learning, "_episode_loss", loss)
    monkeypatch.setattr(diff, "backward", counted_backward)
    return calls, backwards


class TestDivergence:
    CONFIG = dict(steps=5, truncation=4, eval_episodes=3)

    def test_one_loss_forward_per_step(self, monkeypatch):
        calls, backwards = _nan_at_step(monkeypatch, bad_step=None)
        run = train(RunConfig(**self.CONFIG))
        assert len(calls) == len(run.loss_trace) == 5
        assert backwards == [1, 2, 3, 4, 5]

    def test_non_finite_loss_raises_before_backward(self, monkeypatch):
        calls, backwards = _nan_at_step(monkeypatch, bad_step=2)
        with pytest.raises(DivergenceError) as info:
            train(RunConfig(**self.CONFIG))
        assert info.value.step_index == 2 and math.isnan(info.value.value)
        assert len(calls) == 3 and backwards == [1, 2]

    @pytest.mark.parametrize("bad_step", [None, 2])
    def test_nothing_left_for_the_cyclic_collector(self, monkeypatch, bad_step):
        # Every step's tape is emptied, on the diverging step too.
        _nan_at_step(monkeypatch, bad_step=bad_step)

        def run():
            try:
                train(RunConfig(**self.CONFIG))
            except DivergenceError:
                assert bad_step is not None

        assert oracle.unreachable_after(run) == 0

    def test_cli_exit_code(self, monkeypatch, tmp_path, capsys):
        _nan_at_step(monkeypatch, bad_step=2)
        cfg = {"version": 1, "kernel": {"variant": "ahrad", "truncation": 4},
               "optimizer": {"steps": 5}, "eval": {"episodes": 3}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DIVERGENCE
        assert "training step 2" in capsys.readouterr().err


def kconfig_for(dim):
    p = ParamVector(0.1 * np.ones((2, dim)), np.zeros(2),
                    np.array([0.7, 0.5, 0.3]))
    params, radial, _ = materialize(p)
    return KernelConfig("ahrad", params=params, radial=radial)
