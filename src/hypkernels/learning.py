"""Desk-scale episodic training on synthetic hierarchical data.

Three objectives share one batched forward: the rows of an episode
(queries, visual samples or anchors) are scored against its columns
(prototypes, mapped semantic anchors or candidates) in one score matrix,
and every loss is the row-wise log-sum-exp cross-entropy of that matrix
against a target column.  The forward is written once over arrays that
may be plain numpy (evaluation) or `diff.Node`s on the reverse-mode tape
(gradients).  The objectives are episodic few-shot classification,
semantic/visual alignment with an affine embedder, and in-batch
contrastive similarity learning.  A Euclidean and a geodesic baseline are
provided for comparison.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .diff import (
    DEFAULT_BLOCKS,
    OptimizerState,
    ParamVector,
    concat,
    exp,
    grad,
    log,
    materialize,
    sqrt,
    step,
    tanh,
    value,
    where,
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
        """Project each row of x (or the vector x) onto the ball.

        x and c may be plain arrays/numbers or tape nodes.
        """
        if not isinstance(value(x), np.ndarray):
            x = np.asarray(x, dtype=np.float64)
        sq = (x * x).sum(axis=-1, keepdims=True)
        if self.kind == "exp0":
            return _tanh_ratio(c * sq) * x
        s = sqrt(c) * sqrt(sq + 1e-300)
        inside = value(s) <= 1.0 - self.eps
        return where(inside, self.beta, self.beta * (1.0 - self.eps) / s) * x


def _tanh_ratio(y):
    """tanh(sqrt(y))/sqrt(y) for y >= 0, by its series below 1e-8."""
    small = value(y) < 1e-8
    r = sqrt(where(small, 1.0, y))
    return where(small, 1.0 - y * (1.0 / 3.0) + (y * y) * (2.0 / 15.0), tanh(r) / r)


def _clamp0(x):
    """Zero out tiny negative rounding residues (constant past the kink)."""
    return where(value(x) > 0.0, x, 0.0)


# Constrained kernel parameters, as arrays or tape nodes; poles is an
# m x dim matrix, or None for the Drury-Arveson kernel.
_Kernel = namedtuple("_Kernel", "variant c poles weights alphas offset degree bandwidth")


def _kernel_from_config(config: KernelConfig) -> _Kernel:
    """Real parts of a numpy KernelConfig."""
    curvature = config.get_curvature()
    if curvature is None:
        raise ValueError("kernel config must carry a curvature")
    poles = weights = alphas = None
    if config.params is not None:
        poles = np.array([p.coords.real for p in config.params.poles])
        weights = np.asarray(config.params.weights, dtype=np.float64)
    if config.radial is not None:
        alphas = config.radial.alphas
    return _Kernel(config.variant, float(curvature.c), poles, weights, alphas,
                   config.offset, config.degree, config.bandwidth)


def _kernel_from_raws(raws, config: RunConfig) -> _Kernel:
    """Constrained values of unconstrained raws (a ParamVector, or the
    RawView of tape nodes that `diff.grad` passes): poles through exp0,
    weights through softmax, squared radial coefficients."""
    c = exp(raws.log_c) if raws.log_c is not None else raws.fixed_c
    poles = Projection().apply(raws.pole_raws, c)
    e = exp(raws.weight_logits - np.max(value(raws.weight_logits)))
    return _Kernel(config.variant, c, poles, e / e.sum(),
                   raws.radial_raws * raws.radial_raws,
                   config.offset, config.degree, config.bandwidth)


def _multiplier(k: _Kernel, Z):
    """b(z) for every row z of Z, all poles in one matrix product.

    b(z) = sum_j w_j s_j (lead_j a_j - z) / (1 - (c<a_j,z>)^2) with
    s_j = sqrt(1 - c|a_j|^2) and lead_j = c<a_j,z>/(1 + s_j); it is
    smooth at a_j = 0, where the term is -z.
    """
    c, P = k.c, k.poles
    caz = c * (Z @ P.T)
    s = sqrt(1.0 - c * (P * P).sum(axis=1))
    coef = k.weights * s / (1.0 - caz * caz)
    return (coef * (caz / (1.0 + s))) @ P - coef.sum(axis=1, keepdims=True) * Z


def _dbr(k: _Kernel, Z):
    """De Branges-Rovnyak matrix (1 - c B B^T)/(1 - c Z Z^T) over rows of Z."""
    den = 1.0 - k.c * (Z @ Z.T)
    if k.poles is None:
        return 1.0 / den
    B = _multiplier(k, Z)
    return (1.0 - k.c * (B @ B.T)) / den


def _scores(k: _Kernel, rows, cols, mode: str, projection: Projection):
    """Score matrix of rows against columns: higher is more similar.

    Both sets are projected onto the ball and the kernel is formed once
    over their union.  In "distance" mode the score is minus the
    kernel-induced squared distance k_ii + k_jj - 2 k_ij (for ahrbf/ahlap
    minus the negative log-kernel); in "similarity" mode it is the kernel.
    """
    if mode not in ("distance", "similarity"):
        raise ValueError(f"unknown score mode {mode!r}")
    n = value(rows).shape[0]
    K = _dbr(k, projection.apply(concat([rows, cols]), k.c))
    diag = np.arange(value(K).shape[0])
    d = K[diag, diag]
    variant = k.variant
    if variant in ("da", "ahl", "ahrbf", "ahlap"):
        dist = _clamp0(d[:n, None] + d[None, n:] - 2.0 * K[:n, n:])
        if variant == "ahrbf":
            dist = dist / (2.0 * k.bandwidth**2)
        elif variant == "ahlap":
            positive = value(dist) > 0.0
            dist = where(positive, sqrt(where(positive, dist, 1.0)), 0.0) / k.bandwidth
        if mode == "distance":
            return -dist
        return K[:n, n:] if variant in ("da", "ahl") else exp(-dist)
    if variant == "ahpoly":
        G = (K + k.offset) ** int(k.degree)
    elif variant in ("base", "ahrad"):
        G = (K * K) / (d[:, None] * d[None, :])
        if variant == "ahrad":
            beta, G = G, k.alphas[-1]
            for l in range(value(k.alphas).shape[0] - 2, -1, -1):
                G = G * beta + k.alphas[l]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if mode == "distance":
        g = G[diag, diag]
        return -_clamp0(g[:n, None] + g[None, n:] - 2.0 * G[:n, n:])
    return G[:n, n:]


def _cross_entropy(scores, targets: np.ndarray):
    """Mean over rows of log-sum-exp(row) - row[target]."""
    shift = np.max(value(scores), axis=1)
    lse = log(exp(scores - shift[:, None]).sum(axis=1)) + shift
    return (lse - scores[np.arange(targets.size), targets]).sum() / targets.size


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


def _fsl_scores(k: _Kernel, episode: Episode, mode: str, projection: Projection):
    """Queries (class-major) against class prototypes.

    Prototypes are means of support features in the pre-projection space.
    """
    queries = episode.query.reshape(-1, episode.query.shape[2])
    return _scores(k, queries, episode.support.mean(axis=1), mode, projection)


def _fsl_targets(episode: Episode) -> np.ndarray:
    return np.repeat(np.arange(episode.n_way), episode.query.shape[1])


def _fsl_loss(k: _Kernel, episode: Episode, mode: str, projection: Projection):
    scores = _fsl_scores(k, episode, mode, projection)
    return _cross_entropy(scores, _fsl_targets(episode))


def _zsl_loss(k: _Kernel, affine, semantics, visual, labels, mode, projection):
    # affine = [W | b] maps the semantic vectors s to anchors W s + b.
    lifted = np.hstack([semantics, np.ones((len(semantics), 1))])
    scores = _scores(k, visual, lifted @ affine.T, mode, projection)
    return _cross_entropy(scores, np.asarray(labels))


def _sts_loss(k: _Kernel, anchors, positives, negatives, temperature, projection):
    candidates = np.concatenate([positives, negatives])
    scores = _scores(k, anchors, candidates, "similarity", projection) / temperature
    return _cross_entropy(scores, np.arange(len(anchors)))


def fsl_loss(
    config: KernelConfig,
    episode: Episode,
    mode: str = "distance",
    projection: Projection = Projection(),
) -> float:
    """Mean negative log-probability of queries under prototype scores."""
    return float(_fsl_loss(_kernel_from_config(config), episode, mode, projection))


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
    return float(
        _zsl_loss(
            _kernel_from_config(config), np.asarray(linear_map, dtype=np.float64),
            np.asarray(class_embeddings, dtype=np.float64),
            np.asarray(features, dtype=np.float64), labels, mode, projection,
        )
    )


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
            _kernel_from_config(config), anchors, positives, negatives,
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
        proto_pts = [BallPoint(projection.apply(p, c), curv) for p in protos]
    correct = 0
    total = 0
    for i in range(episode.n_way):
        for q in episode.query[i]:
            if baseline == "euclidean":
                scores = [euclidean_baseline_score(q, p) for p in protos]
            else:
                curv = Curvature(c)
                q_pt = BallPoint(projection.apply(q, c), curv)
                scores = [
                    euclidean_baseline_score(q_pt, p, "geodesic") for p in proto_pts
                ]
            if int(np.argmax(scores)) == i:
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

    Accuracy is argmax-score classification of queries against prototypes
    and mean_loss the mean fsl loss, both from one score matrix per
    episode; the CI halfwidth is 1.96 * stderr over per-episode accuracies.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    k = _kernel_from_config(config) if config is not None else None
    accs = []
    losses = []
    for _ in range(episodes):
        episode = sample_episode(rng, dataset, n_way, n_shot, n_query)
        if baseline is not None:
            correct, total = _baseline_episode_scores(
                episode, baseline, curvature, projection
            )
        else:
            scores = _fsl_scores(k, episode, mode, projection)
            targets = _fsl_targets(episode)
            correct = int(np.count_nonzero(np.argmax(scores, axis=1) == targets))
            total = targets.size
            losses.append(float(_cross_entropy(scores, targets)))
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
    """Sample one training batch and close over it as loss(raws).

    raws is a ParamVector (value) or the RawView of tape nodes that
    `diff.grad` passes (gradient); both go through the same forward.
    """
    projection = config.projection
    mode = config.score_mode

    if config.task == "fsl":
        episode = sample_episode(
            rng, dataset, config.n_way, config.n_shot, config.n_query
        )

        def loss(raws):
            return _fsl_loss(_kernel_from_raws(raws, config), episode, mode, projection)

    elif config.task == "zsl":
        semantics = _class_semantics(dataset)
        idx = rng.choice(dataset.features.shape[0], size=config.sts_batch,
                         replace=False)
        feats = dataset.features[idx]
        labels = dataset.labels[idx]

        def loss(raws):
            return _zsl_loss(
                _kernel_from_raws(raws, config), raws.affine, semantics, feats,
                labels, mode, projection,
            )

    else:
        anchors, positives, negatives = _sample_triplets(
            rng, dataset, config.sts_batch
        )

        def loss(raws):
            return _sts_loss(
                _kernel_from_raws(raws, config), anchors, positives, negatives,
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
        val = float(loss(p))
        if not math.isfinite(val):
            raise DivergenceError(i, val)
        trace.append(val)
        if config.lr > 0:
            g = grad(loss, p)
            state, p = step(state, p, g, config.lr, blocks)
    final_eval = _run_eval(config, dataset, p)
    return TrainRun(config, tuple(trace), p, initial_eval, final_eval)
