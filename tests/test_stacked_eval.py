"""The episode and triplet samplers and the stacked evaluation against the
loops they replaced (`oracle.sample_episode`, `oracle.sample_triplets`,
`oracle.evaluate`).

Episode sampler: it draws a different stream from the reference loop, so
it is checked for its distribution, not its draws: valid episodes (distinct
classes, rows of their class, disjoint support and query), every class
and row reachable in both roles, class and row frequencies that pass the
goodness-of-fit test the reference sampler passes (fixed seeds, fixed
thresholds), ragged classes (the padding of the row index), the reference
sampler's errors, and `episodes=1` drawing the episode that `evaluate`
scores for the same seed.  Against the earlier vectorised draw
(`oracle.sample_episode_stack`) it is checked draw for draw.
Triplet sampler: the same draws and the same generator state afterwards.
Evaluation: every variant, score mode and projection, and both
baselines, on one episode and on more than one block of episodes;
accuracy and CI halfwidth exactly, mean_loss at 1e-12 relative.  Block
size: the pinned runs keep theirs, and the sampler's keys stay within
the bound on datasets with large classes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from hypkernels import cli, learning
from hypkernels.diff import ParamVector
from hypkernels.geometry import GeometryError
from hypkernels.kernels import VARIANTS
from hypkernels.learning import (
    LabeledSet,
    Projection,
    RunConfig,
    evaluate,
    gen_tree_dataset,
    params_to_kernel_config,
    sample_episode,
)

PROJECTIONS = {"exp0": Projection(), "clip": Projection("clip", beta=0.9, eps=0.2)}
SHAPES = [(5, 1, 3), (3, 2, 2), (7, 3, 5), (27, 1, 1)]
EPISODE_COUNTS = [1, learning._eval_block(5, 3, gen_tree_dataset(0, 3, 3, 8, 0.5, 12)) + 3]
LOSS_RTOL = 1e-12
# Episodes per sampler in a frequency check, and the bound on its Pearson
# statistic: the number of cells plus six standard deviations of a
# chi-square with that many degrees of freedom.
FREQ_EPISODES = 1500


def _chi2_bound(cells):
    return cells + 6.0 * np.sqrt(2.0 * cells)


def _pearson(counts, expected):
    return float((((counts - expected) ** 2) / expected).sum())


@pytest.fixture(scope="module")
def dataset():
    return gen_tree_dataset(0, 3, 3, 8, 0.5, 12)


def _indexed(sizes):
    """A dataset whose first feature is the row number; class j has
    sizes[j] rows, its rows interleaved with the other classes' rows."""
    labels = np.concatenate([np.full(n, j) for j, n in enumerate(sizes)])
    labels = labels[np.random.default_rng(0).permutation(labels.size)]
    rows = np.arange(labels.size, dtype=np.float64)
    return LabeledSet(np.column_stack([rows, np.zeros_like(rows)]), labels)


def _rows(a):
    return a[..., 0].astype(np.int64)


def _assert_valid(ds, episode, n_way, n_shot, n_query):
    """Distinct classes per episode, every row of its class, and the rows
    of a class distinct (support and query disjoint)."""
    ids = np.asarray(episode.class_ids)
    lead = ids.shape[:-1]
    assert episode.support.shape == (*lead, n_way, n_shot, ds.features.shape[1])
    assert episode.query.shape == (*lead, n_way, n_query, ds.features.shape[1])
    rows = np.concatenate([_rows(episode.support), _rows(episode.query)], axis=-1)
    np.testing.assert_array_equal(ds.labels[rows], np.broadcast_to(ids[..., None],
                                                                  rows.shape))
    assert (np.diff(np.sort(ids, axis=-1), axis=-1) > 0).all()
    assert (np.diff(np.sort(rows, axis=-1), axis=-1) > 0).all()


def test_class_index_matches_label_scans(dataset):
    np.testing.assert_array_equal(dataset.classes, np.unique(dataset.labels))
    assert dataset.class_rows.shape == (dataset.classes.size, dataset.class_sizes.max())
    for cls, rows, size in zip(dataset.classes, dataset.class_rows, dataset.class_sizes):
        np.testing.assert_array_equal(rows[:size], np.flatnonzero(dataset.labels == cls))
        assert not rows[size:].any()


@pytest.mark.parametrize("shape", SHAPES)
def test_sampled_episodes_are_valid(dataset, shape):
    ds = _indexed([12] * 27)
    for seed in range(20):
        single = sample_episode(np.random.default_rng(seed), ds, *shape)
        assert isinstance(single.class_ids, tuple)
        _assert_valid(ds, single, *shape)
        stack = sample_episode(np.random.default_rng(seed), ds, *shape, episodes=7)
        assert stack.class_ids.shape == (7, shape[0])
        _assert_valid(ds, stack, *shape)
        again = sample_episode(np.random.default_rng(seed), ds, *shape, episodes=7)
        np.testing.assert_array_equal(stack.support, again.support)
        np.testing.assert_array_equal(stack.query, again.query)
        np.testing.assert_array_equal(stack.class_ids, again.class_ids)


@pytest.mark.parametrize("shape", SHAPES)
def test_sample_episode_draws_what_the_gather_drew(shape):
    """Direct indexing, and the Episode taken without a second copy, draw
    for every seed the episodes of the `take_along_axis` gather they
    replaced, from uniform and ragged classes, single and stacked, and
    leave the generator in the same state; the arrays are read-only."""
    for ds in (_indexed([12] * 27), _indexed(np.arange(8, 35))):
        for seed in range(10):
            for episodes in (None, 1, 9):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_episode(rng, ds, *shape, episodes=episodes)
                ref = oracle.sample_episode_stack(ref_rng, ds, *shape, episodes=episodes)
                np.testing.assert_array_equal(got.support, ref.support)
                np.testing.assert_array_equal(got.query, ref.query)
                if episodes is None:
                    assert got.class_ids == ref.class_ids
                else:
                    np.testing.assert_array_equal(got.class_ids, ref.class_ids)
                    assert not got.class_ids.flags.writeable
                assert not (got.support.flags.writeable or got.query.flags.writeable)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def _frequencies(ds, episodes):
    """Per class the episodes that draw it, per row its draws as support
    and as query."""
    n = ds.labels.size
    classes = np.zeros(ds.classes.size)
    support = np.zeros(n)
    query = np.zeros(n)
    for e in episodes:
        np.add.at(classes, np.asarray(e.class_ids), 1)
        np.add.at(support, _rows(e.support).ravel(), 1)
        np.add.at(query, _rows(e.query).ravel(), 1)
    return classes, support, query


@pytest.mark.parametrize("shape", SHAPES)
def test_sample_episode_matches_reference(shape):
    """The vectorised draw and the reference loop pass the same
    goodness-of-fit test against the uniform law: every class equally
    likely, and within a drawn class every row equally likely as support
    and as query.  Every class and row is reached in both roles."""
    n_way, n_shot, n_query = shape
    ds = _indexed([12] * 27)
    rng = np.random.default_rng(1)
    ref = [oracle.sample_episode(rng, ds, *shape) for _ in range(FREQ_EPISODES)]
    stack = sample_episode(np.random.default_rng(1), ds, *shape,
                           episodes=FREQ_EPISODES)
    for episodes in (ref, [stack]):
        classes, support, query = _frequencies(ds, episodes)
        assert (support > 0).all() and (query > 0).all()
        assert classes.sum() == FREQ_EPISODES * n_way
        if n_way < 27:
            assert _pearson(classes, FREQ_EPISODES * n_way / 27) < _chi2_bound(27)
        for counts, per_class in ((support, n_shot), (query, n_query)):
            expected = FREQ_EPISODES * n_way / 27 * per_class / 12
            assert _pearson(counts, expected) < _chi2_bound(counts.size)


def test_ragged_classes_draw_through_the_padding():
    """Classes of 4 to 12 rows: padded row indices are never drawn, and
    within a drawn class every row is equally likely."""
    sizes = np.arange(4, 13)
    ds = _indexed(sizes)
    assert ds.class_rows.shape == (9, 12)
    stack = sample_episode(np.random.default_rng(3), ds, 3, 1, 3, episodes=3000)
    _assert_valid(ds, stack, 3, 1, 3)
    classes, support, query = _frequencies(ds, [stack])
    assert (support > 0).all() and (query > 0).all()
    assert _pearson(classes, 3000 * 3 / 9) < _chi2_bound(9)
    # A class drawn c times gives each of its n rows 4c/n draws on average.
    expected = classes[ds.labels] * 4.0 / sizes[ds.labels]
    assert _pearson(support + query, expected) < _chi2_bound(ds.labels.size)
    # The smallest class gives all its rows to every episode that draws it.
    smallest = ds.labels == 0
    np.testing.assert_array_equal(support[smallest] + query[smallest], classes[0])


def test_sample_episode_errors_match_reference(dataset):
    # Class 7 keeps 3 of its rows: 4-sample episodes fail once it is drawn.
    keep = (dataset.labels != 7) | (np.cumsum(dataset.labels == 7) <= 3)
    small = LabeledSet(dataset.features[keep], dataset.labels[keep])
    messages = set()
    for seed in range(60):
        try:
            oracle.sample_episode(np.random.default_rng(seed), small, 5, 1, 3)
        except ValueError as exc:
            messages.add(str(exc))
    assert messages == {"class 7 has fewer than 4 samples"}
    failed = 0
    for seed in range(60):
        try:
            episode = sample_episode(np.random.default_rng(seed), small, 5, 1, 3)
        except ValueError as exc:
            failed += 1
            assert str(exc) in messages
        else:
            assert 7 not in episode.class_ids
    assert 0 < failed < 60
    with pytest.raises(ValueError, match="class 7 has fewer than 4 samples"):
        sample_episode(np.random.default_rng(0), small, 5, 1, 3, episodes=100)
    for sampler in (sample_episode, oracle.sample_episode):
        with pytest.raises(ValueError, match="cannot sample 28 ways from 27 classes"):
            sampler(np.random.default_rng(0), dataset, 28, 1, 1)


def test_sample_episode_needs_an_episode(dataset):
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        sample_episode(np.random.default_rng(0), dataset, 5, 1, 3, episodes=0)


def test_one_episode_is_the_evaluated_episode(dataset):
    """`evaluate(episodes=1, seed=s)` scores `sample_episode(default_rng(s))`,
    which is also the one-episode stack of the same seed."""
    rng = np.random.default_rng(11)
    run = RunConfig(variant="ahrad", dim=8, m=2, truncation=4, curvature=0.3)
    p = ParamVector(0.3 * rng.standard_normal((2, 8)), rng.standard_normal(2),
                    0.7 + 0.2 * rng.standard_normal(5), fixed_c=0.3)
    config = params_to_kernel_config(run, p)
    k = learning._kernel_from_config(config)
    targets = np.repeat(np.arange(5), 3)
    for seed in range(10):
        episode = sample_episode(np.random.default_rng(seed), dataset, 5, 1, 3)
        stack = sample_episode(np.random.default_rng(seed), dataset, 5, 1, 3,
                               episodes=1)
        np.testing.assert_array_equal(stack.support[0], episode.support)
        np.testing.assert_array_equal(stack.query[0], episode.query)
        assert tuple(stack.class_ids[0]) == episode.class_ids
        scores = learning._scores(k, *learning._fsl_rows(episode), "distance", Projection())
        loss = float(learning._cross_entropy(scores, targets))
        got = evaluate(config, dataset, 5, 1, 3, episodes=1, seed=seed)
        assert got.accuracy == np.mean(np.argmax(scores, axis=1) == targets)
        assert abs(got.mean_loss - loss) <= LOSS_RTOL * abs(loss)
        base = evaluate(None, dataset, 5, 1, 3, episodes=1, seed=seed,
                        baseline="euclidean")
        assert base.accuracy == oracle._baseline_correct(
            episode, "euclidean", 1.0, Projection()) / targets.size


def test_sample_triplets_matches_reference(dataset):
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = learning._sample_triplets(rng, dataset, 8)
        ref = oracle.sample_triplets(ref_rng, dataset, 8)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _assert_same_result(got, ref):
    assert got.accuracy == ref.accuracy
    assert got.ci_halfwidth == ref.ci_halfwidth
    if ref.mean_loss is None:
        assert got.mean_loss is None
    else:
        assert abs(got.mean_loss - ref.mean_loss) <= LOSS_RTOL * abs(ref.mean_loss)


@pytest.mark.parametrize("projection", sorted(PROJECTIONS))
@pytest.mark.parametrize("mode", ["distance", "similarity"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_evaluate_matches_per_episode(dataset, variant, mode, projection):
    proj = PROJECTIONS[projection]
    rng = np.random.default_rng(11)
    run = RunConfig(variant=variant, dim=8, m=2, truncation=4, curvature=0.3)
    p = ParamVector(0.3 * rng.standard_normal((2, 8)), rng.standard_normal(2),
                    0.7 + 0.2 * rng.standard_normal(5), fixed_c=0.3)
    config = params_to_kernel_config(run, p)
    for episodes in EPISODE_COUNTS:
        args = (config, dataset, 5, 1, 3, episodes, 4, mode, proj)
        _assert_same_result(evaluate(*args), oracle.evaluate(*args))


# The Euclidean baseline scores the features themselves, not projections.
@pytest.mark.parametrize("baseline,projection", [("euclidean", "exp0"),
                                                 ("geodesic", "exp0"),
                                                 ("geodesic", "clip")])
def test_stacked_baselines_match_per_query(dataset, baseline, projection):
    for episodes in EPISODE_COUNTS:
        kwargs = dict(projection=PROJECTIONS[projection], baseline=baseline,
                      curvature=0.5)
        _assert_same_result(evaluate(None, dataset, 5, 2, 3, episodes, 9, **kwargs),
                            oracle.evaluate(None, dataset, 5, 2, 3, episodes, 9,
                                            **kwargs))


def test_unknown_baseline_is_rejected(dataset):
    with pytest.raises(ValueError, match="unknown baseline"):
        evaluate(None, dataset, 5, 1, 3, 2, 0, baseline="cosine")


def test_geodesic_baseline_rejects_boundary_points(dataset, monkeypatch):
    # At c = 100 the unclamped exp0 images of the features sit on the
    # boundary.
    oracle.unclamp_exp0(monkeypatch)
    with pytest.raises(GeometryError):
        evaluate(None, dataset, 5, 1, 3, 2, 0, baseline="geodesic", curvature=100.0)


ROOT = Path(__file__).resolve().parents[1]


def _pinned_datasets():
    """The datasets of the quickstart, the benchmark's train run and the
    benchmark's eval workload (a tree of the same shape), with their
    episode shapes."""
    for config in ("configs/quickstart.json", "perfbench/train.json"):
        run = cli._run_config_from_json(json.loads((ROOT / config).read_text()))
        yield config, run.n_way, run.n_query, learning._run_dataset(run)
    spec = json.loads((ROOT / "perfbench" / "eval_params.json").read_text())
    run = spec["run"]
    yield ("perfbench/eval_params.json", run["n_way"], run["n_query"],
           gen_tree_dataset(0, **spec["dataset"]))


def test_pinned_runs_keep_their_block():
    # n_way x width = 5 x 12 = 60 stays below n (n + dim) = 20 x 28 = 560,
    # so the block, and with it every episode a seed draws, is unchanged.
    for name, n_way, n_query, data in _pinned_datasets():
        assert data.class_rows.shape[1] == 12, name
        assert learning._eval_block(n_way, n_query, data) == 234, name


def test_sampler_keys_stay_within_the_block_bound():
    # 27 classes of 5000 rows: the sampler's E x n_way x width keys, not
    # the episode's kernel, size the block.
    rng = np.random.default_rng(0)
    big = LabeledSet(rng.standard_normal((27 * 5000, 8)), np.repeat(np.arange(27), 5000))
    block = learning._eval_block(5, 3, big)
    drawn = []

    class Recording:
        def random(self, shape):
            drawn.append(int(np.prod(shape)))
            return rng.random(shape)

    sample_episode(Recording(), big, 5, 1, 3, episodes=block)
    assert max(drawn) <= learning.EVAL_BLOCK_ENTRIES
    assert block == learning.EVAL_BLOCK_ENTRIES // (5 * 5000) == 5
