"""The indexed samplers and the stacked evaluation against the loops they
replaced (`oracle.sample_episode`, `oracle.sample_triplets`,
`oracle.evaluate`).

Samplers: the same draws and the same generator state afterwards.
Evaluation: every variant, score mode and projection, and both
baselines, on one episode and on more than one block of episodes;
accuracy and CI halfwidth exactly, mean_loss at 1e-12 relative.
"""

import numpy as np
import pytest

import oracle
from hypkernels import learning
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
EPISODE_COUNTS = [1, learning._eval_block(5, 3, 8) + 3]
LOSS_RTOL = 1e-12


@pytest.fixture(scope="module")
def dataset():
    return gen_tree_dataset(0, 3, 3, 8, 0.5, 12)


def test_class_index_matches_label_scans(dataset):
    np.testing.assert_array_equal(dataset.classes, np.unique(dataset.labels))
    for cls, idx in zip(dataset.classes, dataset.class_index):
        np.testing.assert_array_equal(idx, np.flatnonzero(dataset.labels == cls))


@pytest.mark.parametrize("shape", SHAPES)
def test_sample_episode_matches_reference(dataset, shape):
    for seed in range(60):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_episode(rng, dataset, *shape)
        ref = oracle.sample_episode(ref_rng, dataset, *shape)
        np.testing.assert_array_equal(got.support, ref.support)
        np.testing.assert_array_equal(got.query, ref.query)
        assert got.class_ids == ref.class_ids
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_episode_errors_match_reference(dataset):
    # Class 7 keeps 3 of its rows: 4-sample episodes fail once it is drawn.
    keep = (dataset.labels != 7) | (np.cumsum(dataset.labels == 7) <= 3)
    small = LabeledSet(dataset.features[keep], dataset.labels[keep])
    failed = 0
    for seed in range(60):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            ref = oracle.sample_episode(ref_rng, small, 5, 1, 3)
        except ValueError as exc:
            failed += 1
            with pytest.raises(ValueError, match=str(exc)):
                sample_episode(rng, small, 5, 1, 3)
        else:
            got = sample_episode(rng, small, 5, 1, 3)
            np.testing.assert_array_equal(got.query, ref.query)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert failed > 0
    with pytest.raises(ValueError, match="cannot sample 28 ways from 27 classes"):
        sample_episode(np.random.default_rng(0), dataset, 28, 1, 1)


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


def test_geodesic_baseline_rejects_boundary_points(dataset):
    # At c = 100 the exp0 images of the features sit on the boundary.
    with pytest.raises(GeometryError):
        evaluate(None, dataset, 5, 1, 3, 2, 0, baseline="geodesic", curvature=100.0)
