"""Desk-scale episodic training on synthetic hierarchical data.

Three objectives share one generic scalar core so the same code runs on
floats (evaluation) and on tape scalars (gradients): episodic few-shot
classification, semantic/visual alignment with an affine embedder, and
in-batch contrastive similarity learning.  A Euclidean and a geodesic
baseline are provided for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _gmath as gm
from .diff import (
    DEFAULT_BLOCKS,
    OptimizerState,
    ParamVector,
    RawView,
    grad,
    materialize,
    step,
)
from .geometry import BallPoint, Curvature, geodesic_distance
from .kernels import KernelConfig


class DivergenceError(RuntimeError):
    def __init__(self, step_index: int, value: float):
        super().__init__(
            f"loss became non-finite ({value}) at training step {step_index}"
        )
        self.step_index = step_index
        self.value = value


@dataclass(frozen=True)
class Projection:
    """Choice of map from Euclidean features onto the ball."""

    kind: str = "exp0"
    beta: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in ("exp0", "clip"):
            raise ValueError(f"unknown projection kind {self.kind!r}")
        if self.kind == "clip":
            if self.beta is None or self.eps is None:
                raise ValueError("clip projection requires beta and eps")
            if not (0.0 < self.eps < 1.0) or self.beta <= 0:
                raise ValueError("clip projection needs beta > 0 and eps in (0,1)")
            if self.beta * (1.0 - self.eps) >= 1.0:
                raise ValueError("clip projection needs beta*(1-eps) < 1")

    def apply(self, x, c):
        """Project a real coordinate list; generic in the scalar type of c."""
        if self.kind == "exp0":
            return gm.exp0(x, c)
        return gm.clip_project(x, c, self.beta, self.eps)


@dataclass(frozen=True)
class LabeledSet:
    """Synthetic feature set with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be an N x dim matrix with N >= 1")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must align with features")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)


def gen_tree_dataset(
    seed: int,
    depth: int,
    branching: int,
    dim: int,
    noise_sigma: float,
    samples_per_leaf: int,
    step_length: float = 1.0,
) -> LabeledSet:
    """Hierarchical data from a random rooted tree of node embeddings.

    The root sits at the origin; each child adds a uniformly random
    direction step of fixed length to its parent.  Every leaf is a class
    and samples are leaf embeddings plus isotropic Gaussian noise.
    """
    if depth < 2 or branching < 2 or dim < 2:
        raise ValueError("need depth >= 2, branching >= 2, dim >= 2")
    if samples_per_leaf < 1 or noise_sigma < 0:
        raise ValueError("need samples_per_leaf >= 1 and noise_sigma >= 0")
    rng = np.random.default_rng(seed)
    level = [np.zeros(dim)]
    for _ in range(depth):
        nxt = []
        for parent in level:
            for _ in range(branching):
                direction = rng.standard_normal(dim)
                direction /= np.linalg.norm(direction)
                nxt.append(parent + step_length * direction)
        level = nxt
    features = []
    labels = []
    for cls, leaf in enumerate(level):
        for _ in range(samples_per_leaf):
            features.append(leaf + noise_sigma * rng.standard_normal(dim))
            labels.append(cls)
    meta = {
        "seed": seed,
        "depth": depth,
        "branching": branching,
        "dim": dim,
        "noise_sigma": noise_sigma,
        "samples_per_leaf": samples_per_leaf,
        "step_length": step_length,
    }
    return LabeledSet(np.array(features), np.array(labels), meta)


def shuffle_labels(dataset: LabeledSet, seed: int) -> LabeledSet:
    """Random-label control: permute labels independently of features."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(dataset.labels)
    return LabeledSet(dataset.features, labels, {**dataset.meta, "shuffled": True})


@dataclass(frozen=True)
class Episode:
    """A C-way M-shot task with disjoint support and query samples."""

    support: np.ndarray
    query: np.ndarray
    class_ids: tuple

    def __post_init__(self):
        sup = np.array(self.support, dtype=np.float64, copy=True)
        qry = np.array(self.query, dtype=np.float64, copy=True)
        if sup.ndim != 3 or qry.ndim != 3:
            raise ValueError("support/query must be C x M x dim arrays")
        if sup.shape[0] != qry.shape[0] or sup.shape[2] != qry.shape[2]:
            raise ValueError("support and query disagree on classes or dim")
        if sup.shape[0] != len(self.class_ids):
            raise ValueError("class_ids must align with the class axis")
        sup.flags.writeable = False
        qry.flags.writeable = False
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "query", qry)
        object.__setattr__(self, "class_ids", tuple(self.class_ids))

    @property
    def n_way(self) -> int:
        return self.support.shape[0]


def sample_episode(
    rng: np.random.Generator,
    dataset: LabeledSet,
    n_way: int,
    n_shot: int,
    n_query: int,
) -> Episode:
    classes = dataset.classes
    if n_way > classes.size:
        raise ValueError(f"cannot sample {n_way} ways from {classes.size} classes")
    chosen = rng.choice(classes, size=n_way, replace=False)
    support = []
    query = []
    for cls in chosen:
        idx = np.flatnonzero(dataset.labels == cls)
        if idx.size < n_shot + n_query:
            raise ValueError(f"class {cls} has fewer than {n_shot + n_query} samples")
        picked = rng.choice(idx, size=n_shot + n_query, replace=False)
        support.append(dataset.features[picked[:n_shot]])
        query.append(dataset.features[picked[n_shot:]])
    return Episode(np.array(support), np.array(query), tuple(int(c) for c in chosen))


def _episode_loss(leaves, episode: Episode, mode: str, projection: Projection):
    """Cross-entropy of queries against class prototypes; generic scalars.

    Prototypes are means of support features in the pre-projection space,
    then projected onto the ball.
    """
    c = leaves.c
    protos = episode.support.mean(axis=1)
    proto_embeds = [
        gm.embed(leaves, projection.apply(list(map(float, row)), c)) for row in protos
    ]
    total = 0.0
    count = 0
    for i in range(episode.n_way):
        for q in episode.query[i]:
            q_embed = gm.embed(leaves, projection.apply(list(map(float, q)), c))
            scores = [gm.score(leaves, q_embed, p, mode) for p in proto_embeds]
            total = total + gm.log_sum_exp(scores) - scores[i]
            count += 1
    return total / count


def fsl_loss(
    config: KernelConfig,
    episode: Episode,
    mode: str = "distance",
    projection: Projection = Projection(),
) -> float:
    """Mean negative log-probability of queries under prototype scores."""
    leaves = gm.KernelLeaves.from_config(config)
    return float(_episode_loss(leaves, episode, mode, projection))


def _zsl_loss(leaves, affine, semantics, visual, labels, mode, projection):
    # affine: rows of [W | b]; semantic vectors map into visual space.
    c = leaves.c
    anchors = []
    for vec in semantics:
        mapped = [gm.dot(row[:-1], list(map(float, vec))) + row[-1] for row in affine]
        anchors.append(gm.embed(leaves, projection.apply(mapped, c)))
    total = 0.0
    for x, lab in zip(visual, labels):
        x_embed = gm.embed(leaves, projection.apply(list(map(float, x)), c))
        scores = [gm.score(leaves, a, x_embed, mode) for a in anchors]
        total = total + gm.log_sum_exp(scores) - scores[lab]
    return total / len(labels)


def zsl_loss(
    config: KernelConfig,
    class_embeddings: np.ndarray,
    visual_batch: tuple[np.ndarray, np.ndarray],
    linear_map: np.ndarray,
    mode: str = "distance",
    projection: Projection = Projection(),
) -> float:
    """Cross-entropy of visual samples against mapped semantic anchors.

    class_embeddings[l] is the semantic vector of seen class l; every
    label in the batch must index into it.  linear_map is [W | b].
    """
    features, labels = visual_batch
    if np.any(np.asarray(labels) >= len(class_embeddings)):
        raise ValueError("visual label without a class embedding")
    affine = [list(map(float, row)) for row in np.asarray(linear_map)]
    semantics = [row for row in np.asarray(class_embeddings)]
    return float(
        _zsl_loss(
            gm.KernelLeaves.from_config(config), affine, semantics,
            np.asarray(features), np.asarray(labels), mode, projection,
        )
    )


def _sts_loss(leaves, anchors, positives, negatives, temperature, projection):
    c = leaves.c
    anchor_embeds = [
        gm.embed(leaves, projection.apply(list(map(float, a)), c)) for a in anchors
    ]
    cand_embeds = [
        gm.embed(leaves, projection.apply(list(map(float, x)), c))
        for x in list(positives) + list(negatives)
    ]
    total = 0.0
    for i, a in enumerate(anchor_embeds):
        logits = [gm.kernel(leaves, a, cand) / temperature for cand in cand_embeds]
        total = total + gm.log_sum_exp(logits) - logits[i]
    return total / len(anchor_embeds)


def sts_loss(
    config: KernelConfig,
    anchors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    temperature: float,
    projection: Projection = Projection(),
) -> float:
    """In-batch contrastive cross-entropy with logits k(.,.)/temperature."""
    anchors = np.asarray(anchors)
    positives = np.asarray(positives)
    negatives = np.asarray(negatives)
    if not (len(anchors) == len(positives) == len(negatives)):
        raise ValueError("anchors, positives and negatives must have equal length")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return float(
        _sts_loss(
            gm.KernelLeaves.from_config(config), anchors, positives, negatives,
            temperature, projection,
        )
    )


def euclidean_baseline_score(q, prototype, mode: str = "euclidean",
                             curvature: Curvature | None = None) -> float:
    """Negative squared Euclidean distance, or negative geodesic distance.

    Geodesic mode accepts BallPoints, or raw ball coordinates together
    with a curvature.
    """
    if mode == "euclidean":
        diff = np.asarray(q, dtype=np.float64) - np.asarray(prototype, dtype=np.float64)
        return float(-np.dot(diff, diff))
    if mode != "geodesic":
        raise ValueError(f"unknown baseline mode {mode!r}")
    if not isinstance(q, BallPoint):
        if curvature is None:
            raise ValueError("geodesic mode needs BallPoints or a curvature")
        q = BallPoint(np.asarray(q, dtype=np.complex128), curvature)
        prototype = BallPoint(np.asarray(prototype, dtype=np.complex128), curvature)
    return float(-geodesic_distance(q, prototype))


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    ci_halfwidth: float
    mean_loss: float | None = None


def _baseline_episode_scores(episode: Episode, baseline: str, c: float,
                             projection: Projection):
    protos = episode.support.mean(axis=1)
    if baseline == "geodesic":
        curv = Curvature(c)
        proto_pts = [
            BallPoint(np.array(projection.apply(list(map(float, p)), c)), curv)
            for p in protos
        ]
    correct = 0
    total = 0
    for i in range(episode.n_way):
        for q in episode.query[i]:
            if baseline == "euclidean":
                scores = [euclidean_baseline_score(q, p) for p in protos]
            else:
                curv = Curvature(c)
                q_pt = BallPoint(
                    np.array(projection.apply(list(map(float, q)), c)), curv
                )
                scores = [
                    euclidean_baseline_score(q_pt, p, "geodesic") for p in proto_pts
                ]
            if int(np.argmax(scores)) == i:
                correct += 1
            total += 1
    return correct, total


def _kernel_episode_scores(leaves, episode: Episode, mode: str,
                           projection: Projection):
    c = leaves.c
    protos = episode.support.mean(axis=1)
    proto_embeds = [
        gm.embed(leaves, projection.apply(list(map(float, p)), c)) for p in protos
    ]
    correct = 0
    total = 0
    for i in range(episode.n_way):
        for q in episode.query[i]:
            q_embed = gm.embed(leaves, projection.apply(list(map(float, q)), c))
            scores = [gm.score(leaves, q_embed, p, mode) for p in proto_embeds]
            if int(np.argmax([gm.value(s) for s in scores])) == i:
                correct += 1
            total += 1
    return correct, total


def evaluate(
    config: KernelConfig | None,
    dataset: LabeledSet,
    n_way: int,
    n_shot: int,
    n_query: int,
    episodes: int,
    seed: int,
    mode: str = "distance",
    projection: Projection = Projection(),
    baseline: str | None = None,
    curvature: float = 1.0,
) -> EvalResult:
    """Episodic classification accuracy with a 95% confidence interval.

    Accuracy is argmax-score classification of queries against prototypes;
    the CI halfwidth is 1.96 * stderr over per-episode accuracies.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    leaves = gm.KernelLeaves.from_config(config) if config is not None else None
    accs = []
    losses = []
    for _ in range(episodes):
        episode = sample_episode(rng, dataset, n_way, n_shot, n_query)
        if baseline is not None:
            correct, total = _baseline_episode_scores(
                episode, baseline, curvature, projection
            )
        else:
            correct, total = _kernel_episode_scores(leaves, episode, mode, projection)
            losses.append(float(_episode_loss(leaves, episode, mode, projection)))
        accs.append(correct / total)
    accs = np.array(accs)
    if episodes > 1:
        ci = 1.96 * accs.std(ddof=1) / math.sqrt(episodes)
    else:
        ci = 0.0
    mean_loss = float(np.mean(losses)) if losses else None
    return EvalResult(float(accs.mean()), float(ci), mean_loss)


@dataclass(frozen=True)
class RunConfig:
    """Everything a seeded training run needs."""

    task: str = "fsl"
    variant: str = "ahrad"
    m: int = 2
    truncation: int = 8
    offset: float = 1.0
    degree: int = 2
    bandwidth: float = 1.0
    curvature: float = 1.0
    train_curvature: bool = False
    projection: Projection = Projection()
    dataset_seed: int = 0
    depth: int = 3
    branching: int = 3
    dim: int = 8
    noise_sigma: float = 0.35
    samples_per_leaf: int = 12
    step_length: float = 1.0
    n_way: int = 5
    n_shot: int = 1
    n_query: int = 3
    optimizer_mode: str = "adam"
    lr: float = 0.05
    steps: int = 200
    blocks: tuple = DEFAULT_BLOCKS
    init_seed: int = 0
    init_scale: float = 0.1
    train_seed: int = 1
    eval_episodes: int = 200
    eval_seed: int = 2
    score_mode: str = "distance"
    sts_temperature: float = 0.5
    sts_batch: int = 8

    def __post_init__(self):
        if self.task not in ("fsl", "zsl", "sts"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.steps < 0 or self.lr < 0:
            raise ValueError("steps must be >= 0 and lr >= 0")


@dataclass(frozen=True)
class TrainRun:
    config: RunConfig
    loss_trace: tuple
    final_params: ParamVector
    initial_eval: EvalResult
    final_eval: EvalResult


def init_params(config: RunConfig) -> ParamVector:
    rng = np.random.default_rng(config.init_seed)
    pole_raws = config.init_scale * rng.standard_normal((config.m, config.dim))
    weight_logits = config.init_scale * rng.standard_normal(config.m)
    radial_raws = 0.5 + config.init_scale * rng.standard_normal(config.truncation + 1)
    affine = None
    if config.task == "zsl":
        affine = np.hstack(
            [np.eye(config.dim), np.zeros((config.dim, 1))]
        ) + config.init_scale * rng.standard_normal((config.dim, config.dim + 1))
    return ParamVector(
        pole_raws,
        weight_logits,
        radial_raws,
        log_c=math.log(config.curvature) if config.train_curvature else None,
        fixed_c=config.curvature,
        affine=affine,
    )


def _class_semantics(dataset: LabeledSet) -> np.ndarray:
    """Per-class mean feature, the synthetic stand-in for attribute vectors."""
    return np.array(
        [dataset.features[dataset.labels == cls].mean(axis=0)
         for cls in dataset.classes]
    )


def _make_step_loss(config: RunConfig, dataset: LabeledSet,
                    rng: np.random.Generator):
    """Sample one training batch and close over it as loss(view)."""
    variant = config.variant
    projection = config.projection

    def leaves_of(view: RawView):
        return gm.KernelLeaves.from_view(
            view, variant, config.offset, config.degree, config.bandwidth
        )

    if config.task == "fsl":
        episode = sample_episode(
            rng, dataset, config.n_way, config.n_shot, config.n_query
        )

        def loss(view):
            return _episode_loss(
                leaves_of(view), episode, config.score_mode, projection
            )

    elif config.task == "zsl":
        semantics = _class_semantics(dataset)
        idx = rng.choice(dataset.features.shape[0], size=config.sts_batch,
                         replace=False)
        feats = dataset.features[idx]
        labels = dataset.labels[idx]

        def loss(view):
            affine = view.affine
            return _zsl_loss(
                leaves_of(view), affine, list(semantics), feats, labels,
                config.score_mode, projection,
            )

    else:
        anchors, positives, negatives = _sample_triplets(
            rng, dataset, config.sts_batch
        )

        def loss(view):
            return _sts_loss(
                leaves_of(view), anchors, positives, negatives,
                config.sts_temperature, projection,
            )

    return loss


def _sample_triplets(rng: np.random.Generator, dataset: LabeledSet, batch: int):
    anchors, positives, negatives = [], [], []
    classes = dataset.classes
    for _ in range(batch):
        cls = rng.choice(classes)
        idx = np.flatnonzero(dataset.labels == cls)
        a, p = rng.choice(idx, size=2, replace=False)
        other = rng.choice(classes[classes != cls])
        n = rng.choice(np.flatnonzero(dataset.labels == other))
        anchors.append(dataset.features[a])
        positives.append(dataset.features[p])
        negatives.append(dataset.features[n])
    return np.array(anchors), np.array(positives), np.array(negatives)


def _run_eval(config: RunConfig, dataset: LabeledSet, p: ParamVector) -> EvalResult:
    kconfig = params_to_kernel_config(config, p)
    return evaluate(
        kconfig, dataset, config.n_way, config.n_shot, config.n_query,
        config.eval_episodes, config.eval_seed, config.score_mode,
        config.projection,
    )


def params_to_kernel_config(config: RunConfig, p: ParamVector) -> KernelConfig:
    params, radial, _ = materialize(p)
    kwargs = {}
    if config.variant == "ahpoly":
        kwargs = {"offset": config.offset, "degree": config.degree}
    elif config.variant in ("ahrbf", "ahlap"):
        kwargs = {"bandwidth": config.bandwidth}
    elif config.variant == "ahrad":
        kwargs = {"radial": radial}
    if config.variant == "da":
        return KernelConfig("da", curvature=params.curvature)
    return KernelConfig(config.variant, params=params, **kwargs)


def train(config: RunConfig) -> TrainRun:
    """Seeded episodic optimization; deterministic replay per config."""
    dataset = gen_tree_dataset(
        config.dataset_seed, config.depth, config.branching, config.dim,
        config.noise_sigma, config.samples_per_leaf, config.step_length,
    )
    p = init_params(config)
    initial_eval = _run_eval(config, dataset, p)
    rng = np.random.default_rng(config.train_seed)
    state = OptimizerState(mode=config.optimizer_mode)
    blocks = tuple(config.blocks)
    if config.train_curvature and "log_c" not in blocks:
        blocks = blocks + ("log_c",)
    if config.task == "zsl" and "affine" not in blocks:
        blocks = blocks + ("affine",)
    trace = []
    for i in range(config.steps):
        loss = _make_step_loss(config, dataset, rng)
        val = float(gm.value(loss(p.view())))
        if not math.isfinite(val):
            raise DivergenceError(i, val)
        trace.append(val)
        if config.lr > 0:
            g = grad(loss, p)
            state, p = step(state, p, g, config.lr, blocks)
    final_eval = _run_eval(config, dataset, p)
    return TrainRun(config, tuple(trace), p, initial_eval, final_eval)
