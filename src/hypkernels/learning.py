"""Desk-scale episodic training on synthetic hierarchical data.

Three objectives (episodic few-shot classification, semantic/visual
alignment with an affine embedder, in-batch contrastive similarity) share
one batched forward: the rows of an episode (queries, visual samples or
anchors) are scored against its columns (prototypes, mapped semantic
anchors or candidates) in the cross shape of `rkhs._dbr`, never over the
union of the two sets, and every loss is the row-wise log-sum-exp
cross-entropy against a target column.  The forward runs over leading
batch axes (stacked episodes) in two parts: `_prepare` projects the
points and forms their inner products, reading of the kernel only its
curvature; `_scored` runs the parameter-side layers (b(Z), the de
Branges-Rovnyak matrix, the variant transform).  Each layer takes plain
arrays or `diff.Node`s and records a tape node, with a closed-form VJP,
only when an operand is one: with the curvature fixed, a block of
training episodes is prepared once, off the tape.  A Euclidean and a
geodesic baseline are provided for comparison.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .diff import (
    ALL_BLOCKS,
    DEFAULT_BLOCKS,
    OPTIMIZER_MODES,
    OptimizerState,
    ParamVector,
    concat,
    exp,
    grad,
    materialize,
    record,
    step,
    value,
)
from .geometry import (Curvature, GeometryError, _check_interior, _clip, _exp0,
                       _pseudo_distance, check_clip)
from .kernels import HYPERPARAMETERS, VARIANTS, ConfigError, KernelConfig, _Kernel, _transform
from .rkhs import _cross_products, _dbr, _multiplier, softmax

SCORE_MODES = ("distance", "similarity")


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
            check_clip(self.beta, self.eps)

    def apply(self, x, c):
        """Project each vector along the last axis of x onto the ball.

        x and c may be plain arrays/numbers or tape nodes.
        """
        if not isinstance(value(x), np.ndarray):
            x = np.asarray(x, dtype=np.float64)
        if self.kind == "exp0":
            return _exp0(x, c)
        return _clip(x, c, self.beta, self.eps)


def _kernel_from_config(config: KernelConfig) -> _Kernel:
    """A numpy KernelConfig on real coordinates, as the features are."""
    k = config._derived
    if k.c is None:
        raise ValueError("kernel config must carry a curvature")
    if np.iscomplexobj(k.poles):
        raise ValueError("kernel config has complex poles; training and "
                         "evaluation need real ones")
    return k


def _kernel_from_raws(raws, config: RunConfig) -> _Kernel:
    """Constrained values of unconstrained raws (a ParamVector, or the
    RawView of tape nodes that `diff.grad` passes): poles through exp0,
    weights through softmax, squared radial coefficients.  The
    Drury-Arveson kernel has no multiplier, so its poles and weights stay
    out of the forward (and get zero gradient)."""
    c = exp(raws.log_c) if raws.log_c is not None else raws.fixed_c
    poles = weights = None
    if config.variant != "da":
        poles = _exp0(raws.pole_raws, c)
        weights = softmax(raws.weight_logits)
    return _Kernel(config.variant, c, poles, weights,
                   raws.radial_raws * raws.radial_raws,
                   config.offset, config.degree, config.bandwidth)


def _scores(k: _Kernel, rows, cols, mode: str, projection: Projection):
    """Score matrix of rows against columns: higher is more similar.

    rows (... x n x dim) and cols (... x m x dim) give ... x n x m scores;
    leading axes are independent batches (stacked episodes).  Both sets
    are projected onto the ball and through b(Z) together, and the kernel
    is formed in the cross shape of `rkhs._dbr`: the n x m block of rows
    against columns and each point's closed-form self-kernel, nothing of
    rows against rows or columns against columns.  In "distance" mode the
    score is minus the kernel-induced squared distance
    k_ii + k_jj - 2 k_ij (for ahrbf/ahlap minus the negative log-kernel);
    in "similarity" mode it is the kernel.  A point projected onto the
    ball boundary makes its scores nan.  It is `_prepare`, the data side
    (which reads only the curvature), then `_scored`, the parameter side.
    """
    return _scored(k, _prepare(rows, cols, k.c, projection), mode)


def _prepare(rows, cols, c, projection: Projection):
    """The data side of `_scores`: rows and columns projected onto the ball
    together, Z (... x (n + m) x dim), and the inner products of Z that
    `rkhs._dbr` reads.  With c fixed it serves every step over its rows."""
    Z = projection.apply(concat([rows, cols], axis=-2), c)
    return Z, _cross_products(value(Z), value(rows).shape[-2])


def _scored(k: _Kernel, prepared, mode: str):
    """The parameter side of `_scores` on a `_prepare`d pair (Z, ZZ): b(Z),
    the cross matrix and the variant transform."""
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}")
    Z, ZZ = prepared
    B = _multiplier(Z, k.poles, k.weights, k.c) if k.poles is not None else None
    return _transform(k, _dbr(k.c, Z, B, ZZ.shape[-2] - 1, ZZ), mode)


def _cross_entropy(scores, targets: np.ndarray):
    """Mean over rows of log-sum-exp(row) - row[target], one value per
    score matrix in the stack (a scalar for a single matrix).  One tape
    node over the scores; its VJP is (softmax - onehot) / rows."""
    sv = value(scores)
    rows = np.arange(targets.size)
    shift = sv.max(axis=-1)
    e = np.exp(sv - shift[..., None])
    total = e.sum(axis=-1)
    lse = np.log(total) + shift
    out = (lse - sv[..., rows, targets]).sum(axis=-1) / targets.size

    def vjp(g):
        gs = e / total[..., None]
        gs[..., rows, targets] -= 1.0
        return (gs * (g[..., None, None] / targets.size),)

    return record(out, vjp, scores)


@dataclass(frozen=True)
class LabeledSet:
    """Synthetic feature set with integer class labels.

    `classes` holds the sorted distinct labels and `class_rows` the row
    indices of each class as one padded matrix: row j holds the
    `class_sizes[j]` ascending indices of class `classes[j]`, then zeros.
    All are built once.
    """

    features: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)
    classes: np.ndarray = field(init=False, repr=False, compare=False)
    class_sizes: np.ndarray = field(init=False, repr=False, compare=False)
    class_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be an N x dim matrix with N >= 1")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must align with features")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        classes, inverse = np.unique(labels, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        sizes = np.bincount(inverse)
        starts = np.cumsum(sizes) - sizes
        class_rows = np.zeros((classes.size, sizes.max()), dtype=np.int64)
        class_rows[inverse[order], np.arange(order.size) - starts[inverse[order]]] = order
        for a in (feats, labels, classes, sizes, class_rows):
            a.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "class_rows", class_rows)


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


@dataclass(frozen=True)
class Episode:
    """A C-way M-shot task with disjoint support and query samples.

    A stack of E such tasks has a leading axis of length E on support and
    query (E x C x M x dim) and an E x C array of class ids.
    """

    support: np.ndarray
    query: np.ndarray
    class_ids: tuple | np.ndarray

    def __post_init__(self):
        sup = np.array(self.support, dtype=np.float64, copy=True)
        qry = np.array(self.query, dtype=np.float64, copy=True)
        if sup.ndim not in (3, 4) or qry.ndim != sup.ndim:
            raise ValueError("support/query must be C x M x dim arrays, or "
                             "E x C x M x dim stacks")
        if sup.shape[:-2] != qry.shape[:-2] or sup.shape[-1] != qry.shape[-1]:
            raise ValueError("support and query disagree on classes or dim")
        if np.shape(self.class_ids) != sup.shape[:-2]:
            raise ValueError("class_ids must align with the class axis")
        if sup.ndim == 3:
            class_ids = tuple(self.class_ids)
        else:
            class_ids = np.array(self.class_ids, dtype=np.int64, copy=True)
            class_ids.flags.writeable = False
        sup.flags.writeable = False
        qry.flags.writeable = False
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "query", qry)
        object.__setattr__(self, "class_ids", class_ids)

    @property
    def n_way(self) -> int:
        return self.support.shape[-3]

    @classmethod
    def _drawn(cls, support: np.ndarray, query: np.ndarray, class_ids) -> "Episode":
        """An Episode of arrays a sampler has just drawn (or views of such
        a stack) and hands over: set read-only and taken as they are,
        without the constructor's copy and checks."""
        support.flags.writeable = False
        query.flags.writeable = False
        if isinstance(class_ids, np.ndarray):
            class_ids.flags.writeable = False
        episode = object.__new__(cls)
        object.__setattr__(episode, "support", support)
        object.__setattr__(episode, "query", query)
        object.__setattr__(episode, "class_ids", class_ids)
        return episode


def sample_episode(
    rng: np.random.Generator,
    dataset: LabeledSet,
    n_way: int,
    n_shot: int,
    n_query: int,
    episodes: int | None = None,
) -> Episode:
    """n_way distinct classes, then per class n_shot + n_query distinct rows
    (the first n_shot are the support); with `episodes` = E, a stack of E
    such episodes, drawn at once.

    Each episode's classes are the first n_way of an argsort of uniform
    keys over all classes, and each class's rows the first n_shot + n_query
    of an argsort of uniform keys over the class's row index
    (`LabeledSet.class_rows`), whose padding gets keys that sort last.  A
    seed fixes the draw; `episodes=None` draws the episode that
    `episodes=1` stacks.
    """
    n_classes = dataset.classes.size
    if n_way > n_classes:
        raise ValueError(f"cannot sample {n_way} ways from {n_classes} classes")
    count = 1 if episodes is None else episodes
    if count < 1:
        raise ValueError("episodes must be >= 1")
    per_class = n_shot + n_query
    chosen = np.argsort(rng.random((count, n_classes)), axis=-1)[:, :n_way]
    sizes = dataset.class_sizes[chosen]
    smallest = sizes.min()
    if smallest < per_class:
        short = sizes < per_class
        raise ValueError(
            f"class {dataset.classes[chosen[short][0]]} has fewer than "
            f"{per_class} samples"
        )
    width = dataset.class_rows.shape[1]
    keys = rng.random((count, n_way, width))
    if smallest < width:
        keys[np.arange(width) >= sizes[..., None]] = 2.0
    order = np.argsort(keys, axis=-1)[..., :per_class]
    rows = dataset.class_rows[chosen[..., None], order]
    class_ids = dataset.classes[chosen]
    if episodes is None:
        rows = rows[0]
        class_ids = tuple(class_ids[0].tolist())
    features = dataset.features
    return Episode._drawn(features[rows[..., :n_shot]], features[rows[..., n_shot:]],
                          class_ids)


def _fsl_rows(episode: Episode):
    """Queries (class-major) and class prototypes of an episode, or of each
    episode of a stack.  Prototypes are means of support features in the
    pre-projection space."""
    query = episode.query
    queries = query.reshape(*query.shape[:-3], -1, query.shape[-1])
    support = episode.support
    # The mean, as np.mean forms it, without its call overhead.
    return queries, support.sum(axis=-2) / support.shape[-2]


@functools.cache
def _fsl_targets(n_way: int, n_query: int) -> np.ndarray:
    """The class of each query row (class-major), read-only: built once
    per episode shape."""
    targets = np.repeat(np.arange(n_way), n_query)
    targets.flags.writeable = False
    return targets


def _fsl_loss(k: _Kernel, episode: Episode, mode: str, projection: Projection):
    prepared = _prepare(*_fsl_rows(episode), k.c, projection)
    return _episode_loss(k, prepared, _fsl_targets(*episode.query.shape[-3:-1]), mode)


def _episode_loss(k: _Kernel, prepared, targets: np.ndarray, mode: str):
    """The fsl loss of `_prepare`d queries (class-major) and prototypes."""
    return _cross_entropy(_scored(k, prepared, mode), targets)


def _zsl_loss(k: _Kernel, affine, semantics, visual, labels, mode, projection):
    # affine = [W | b] maps the semantic vectors s to anchors W s + b.
    lifted = np.hstack([semantics, np.ones((len(semantics), 1))])
    scores = _scores(k, visual, lifted @ affine.mT, mode, projection)
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
    """Mean negative log-probability of queries under prototype scores;
    for a stack of episodes, the mean of the episodes' losses."""
    loss = _fsl_loss(_kernel_from_config(config), episode, mode, projection)
    return float(loss if loss.ndim == 0 else _mean(loss))


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


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    ci_halfwidth: float
    mean_loss: float | None = None


BASELINES = ("euclidean", "geodesic")

# Bound on the entries of the arrays of one stacked forward in `evaluate`,
# counted per episode as the larger of n x (n + dim) for its n = n_way *
# (n_query + 1) rows and columns (the kernel over their union and the
# projected points) and n_way x width, the sampler's keys over the padded
# rows of the largest class: memory grows neither with the number of
# episodes nor, beyond one episode per block, with their size or the
# classes'.  The block size decides which episodes a seed draws.
EVAL_BLOCK_ENTRIES = 2**17
# `train` keeps its evaluation episodes prepared (`_prepare`) for the
# final evaluation while they fill at most this many blocks, a few MB.
SHARED_EVAL_BLOCKS = 8


def _eval_block(n_way: int, n_query: int, dataset: LabeledSet) -> int:
    """Episodes per stacked forward in `evaluate` on dataset."""
    n = n_way * (n_query + 1)
    dim, width = dataset.features.shape[1], dataset.class_rows.shape[1]
    return max(1, EVAL_BLOCK_ENTRIES // max(n * (n + dim), n_way * width))


def _baseline_scores(queries, protos, baseline: str, c: float,
                     projection: Projection):
    """Baseline scores of queries (... x n x dim) against prototypes
    (... x m x dim): minus the squared Euclidean distance of the features,
    or minus the geodesic distance of their projections onto the ball,
    both from inner products (the latter by geometry._pseudo_distance)."""
    if baseline == "euclidean":
        sq_q = (queries * queries).sum(axis=-1)
        sq_p = (protos * protos).sum(axis=-1)
        return 2.0 * (queries @ protos.mT) - sq_q[..., :, None] - sq_p[..., None, :]
    curvature = Curvature(c)
    c = curvature.c
    Q = projection.apply(queries, c)
    P = projection.apply(protos, c)
    _check_interior(Q, curvature)
    _check_interior(P, curvature)
    return -2.0 / np.sqrt(c) * np.arctanh(_pseudo_distance(Q, P, c))


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
    prepared: list | None = None,
) -> EvalResult:
    """Episodic classification accuracy with a 95% confidence interval.

    Accuracy is argmax-score classification of queries against prototypes
    and mean_loss the mean fsl loss, both from the same scores; the CI
    halfwidth is 1.96 * stderr over per-episode accuracies.  Episodes are
    drawn and scored a block at a time (`_eval_rows`): one
    `sample_episode` call draws the block's stack from the seeded stream
    and one stacked forward scores it, so `episodes=1` scores the episode
    that `sample_episode` draws from `default_rng(seed)`; `prepared` may
    hold the `_prepare`d blocks of these episodes (not read by a
    baseline).  Raises ArithmeticError when a block's scores or losses are
    not finite (projected points that round onto the ball boundary).
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline mode {baseline!r}")
    if config is None and baseline is None:
        raise ValueError("evaluate needs a kernel config or a baseline")
    k = _kernel_from_config(config) if config is not None else None
    targets = _fsl_targets(n_way, n_query)
    drawn = baseline is not None or prepared is None
    blocks = _eval_rows(dataset, n_way, n_shot, n_query, episodes, seed) if drawn else prepared
    correct = []
    losses = []
    start = 0
    for block in blocks:
        if baseline is not None:
            scores = _baseline_scores(*block, baseline, curvature, projection)
        else:
            scores = _scored(k, _prepare(*block, k.c, projection) if drawn else block, mode)
            losses.append(_cross_entropy(scores, targets))
        finite = np.isfinite(scores).all()
        if not (finite and (not losses or np.isfinite(losses[-1]).all())):
            raise ArithmeticError(
                f"non-finite scores in evaluation episodes {start}.."
                f"{start + len(scores) - 1} (points on the ball boundary?)"
            )
        start += len(scores)
        correct.append((scores.argmax(axis=-1) == targets).sum(axis=-1))
    accs = _joined(correct) / targets.size
    if episodes > 1:
        ci = 1.96 * accs.std(ddof=1) / math.sqrt(episodes)
    else:
        ci = 0.0
    mean_loss = float(_mean(_joined(losses))) if losses else None
    return EvalResult(float(_mean(accs)), float(ci), mean_loss)


def _eval_rows(dataset: LabeledSet, n_way: int, n_shot: int, n_query: int,
               episodes: int, seed: int):
    """The queries and prototypes (`_fsl_rows`) of `evaluate`'s episodes,
    a block of `_eval_block` episodes at a time, each block drawn by one
    `sample_episode` call from the stream of default_rng(seed)."""
    rng = np.random.default_rng(seed)
    block_size = _eval_block(n_way, n_query, dataset)
    for start in range(0, episodes, block_size):
        yield _fsl_rows(sample_episode(rng, dataset, n_way, n_shot, n_query,
                                       episodes=min(block_size, episodes - start)))


def _joined(parts: list) -> np.ndarray:
    """The per-block arrays of `evaluate` end to end."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _mean(x: np.ndarray):
    """The mean of a 1-d array, as np.mean forms it, without its call
    overhead."""
    return x.sum() / x.size


class FieldSpec(NamedTuple):
    """A config schema entry: JSON path, kind, default and rule.  A
    "number" (finite float) or "integer" has a bound ">= b" or "> b" as
    rule, a "choice" (or each entry of "choices") one of the strings in
    rule; a "bool" or "projection" is a bool or a `Projection`.
    "numbers" and "integers" are non-empty lists whose entries, named
    path[i], each pass the rule, and an "array" is a list of numbers, or
    of equal-length "numbers" rows, read as a float64 array.  A wrong
    kind raises ValueError, a value out of bound or choice raises error."""

    path: str
    kind: str
    default: object = None
    rule: object = None
    nullable: bool = False
    error: type = ValueError
    noun: str | None = None


def _checked(spec: FieldSpec, v):
    """v checked against the schema entry spec, in its kind's type."""
    path, kind, default, rule, nullable, error, noun = spec
    if v is None and nullable:
        return v
    if kind in ("number", "integer"):
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            raise ValueError(f"{path} must be a number, got {json.dumps(v, default=repr)}")
        if kind == "integer":
            if not (isinstance(v, (int, np.integer)) or (math.isfinite(v) and v == int(v))):
                raise ValueError(f"{path} must be an integer, got {v!r}")
            v = int(v)
        elif not math.isfinite(v := float(v)):
            raise ValueError(f"{path} must be finite, got {v!r}")
        if rule is not None:
            op, b = rule.split()
            if not (v >= float(b) if op == ">=" else v > float(b)):
                raise error(f"{path} must be {'at least' if op == '>=' else 'greater than'} "
                            f"{b}, got {v!r}")
        return v
    if kind in ("choices", "numbers", "integers", "array") and not isinstance(v, (list, tuple)):
        raise ValueError(f"{path} must be a list{' of numbers' * (kind == 'array')}, "
                         f"got {json.dumps(v, default=repr)}")
    if kind == "array":
        rows = [_checked(FieldSpec(f"{path}[{i}]", "numbers" if isinstance(x, (list, tuple))
                                   else "number"), x) for i, x in enumerate(v)]
        if len({len(row) if isinstance(row, tuple) else None for row in rows}) > 1:
            raise ValueError(f"{path} must have rows of equal length")
        return np.array(rows, dtype=np.float64)
    if kind in ("numbers", "integers"):
        if not v:
            raise ValueError(f"{path} must not be empty")
        return tuple(_checked(FieldSpec(f"{path}[{i}]", kind[:-1], rule=rule, error=error), x)
                     for i, x in enumerate(v))
    if kind in ("bool", "projection") and type(v) is not type(default):
        raise ValueError(f"{path} must be {'true or false' if kind == 'bool' else 'a Projection'}"
                         f", got {json.dumps(v, default=repr)}")
    for item in {"choice": (v,), "choices": v}.get(kind, ()):
        if not (isinstance(item, str) and item in rule):
            raise error(f"unknown {noun or path.replace('.', ' ').replace('_', ' ')} {item!r}")
    return tuple(v) if kind == "choices" else v


def _entry(*schema, **extra):
    """A RunConfig field with its schema entry, FieldSpec(*schema, **extra)."""
    spec = FieldSpec(*schema, **extra)
    return field(default=spec.default, metadata={"schema": spec})


@dataclass(frozen=True)
class RunConfig:
    """Everything a seeded training run needs.  Each line is a field's
    schema entry (`FieldSpec`), which construction checks the value against."""

    task: str = _entry("task", "choice", "fsl", ("fsl", "zsl", "sts"))
    variant: str = _entry("kernel.variant", "choice", "ahrad", VARIANTS, error=ConfigError)
    m: int = _entry("kernel.m", "integer", 2, ">= 1")
    truncation: int = _entry("kernel.truncation", "integer", 8, ">= 1")
    # None for the variants that take no offset, degree or bandwidth.
    offset: float | None = _entry("kernel.offset", "number", 1.0, "> 0", nullable=True)
    degree: int | None = _entry("kernel.degree", "integer", 2, ">= 1", nullable=True)
    bandwidth: float | None = _entry("kernel.bandwidth", "number", 1.0, "> 0", nullable=True)
    curvature: float = _entry("curvature", "number", 1.0, "> 0", error=GeometryError)
    train_curvature: bool = _entry("train_curvature", "bool", False)
    projection: Projection = _entry("projection", "projection", Projection())
    dataset_seed: int = _entry("dataset.seed", "integer", 0, ">= 0")
    depth: int = _entry("dataset.depth", "integer", 3, ">= 2")
    branching: int = _entry("dataset.branching", "integer", 3, ">= 2")
    # The tree dataset needs 2, but gram passes its feature dimension.
    dim: int = _entry("dataset.dim", "integer", 8, ">= 1")
    noise_sigma: float = _entry("dataset.noise_sigma", "number", 0.35, ">= 0")
    samples_per_leaf: int = _entry("dataset.samples_per_leaf", "integer", 12, ">= 1")
    step_length: float = _entry("dataset.step_length", "number", 1.0)
    n_way: int = _entry("episode.n_way", "integer", 5, ">= 1")
    n_shot: int = _entry("episode.n_shot", "integer", 1, ">= 1")
    n_query: int = _entry("episode.n_query", "integer", 3, ">= 1")
    optimizer_mode: str = _entry("optimizer.mode", "choice", "adam", OPTIMIZER_MODES)
    lr: float = _entry("optimizer.lr", "number", 0.05, ">= 0")
    steps: int = _entry("optimizer.steps", "integer", 200, ">= 0")
    blocks: tuple = _entry("optimizer.blocks", "choices", DEFAULT_BLOCKS, ALL_BLOCKS,
                           noun="parameter block")
    init_seed: int = _entry("kernel.init_seed", "integer", 0, ">= 0")
    init_scale: float = _entry("kernel.init_scale", "number", 0.1)
    train_seed: int = _entry("train_seed", "integer", 1, ">= 0")
    eval_episodes: int = _entry("eval.episodes", "integer", 200, ">= 1")
    eval_seed: int = _entry("eval.seed", "integer", 2, ">= 0")
    score_mode: str = _entry("score_mode", "choice", "distance", SCORE_MODES)
    sts_temperature: float = _entry("sts.temperature", "number", 0.5, "> 0")
    sts_batch: int = _entry("sts.batch", "integer", 8, ">= 1")

    def __post_init__(self):
        # Each default passes its entry unchanged (a test checks); not
        # checking it again saves ~20 us of each gram request.
        for name, spec in RUN_FIELDS.items():
            v = getattr(self, name)
            if v is not spec.default and (checked := _checked(spec, v)) is not v:
                object.__setattr__(self, name, checked)


# The config schema: each RunConfig field's entry, by field name.
RUN_FIELDS = {f.name: f.metadata["schema"] for f in fields(RunConfig)}


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
    return np.array([dataset.features[rows[:size]].mean(axis=0)
                     for rows, size in zip(dataset.class_rows, dataset.class_sizes)])


def _step_losses(config: RunConfig, dataset: LabeledSet, rng: np.random.Generator):
    """The loss(raws) of each training step, in order; raws is a ParamVector
    or the RawView of tape nodes that `diff.grad` passes.

    fsl episodes are drawn a block at a time, blocks sized as `evaluate`
    sizes them.  With the curvature fixed each block is `_prepare`d once
    and a step scores its slice; a trained curvature, and the zsl and sts
    batches (drawn step by step), are prepared in the step's forward.
    """
    projection, mode = config.projection, config.score_mode

    def kernel(raws):
        return _kernel_from_raws(raws, config)

    if config.task == "fsl":
        targets = _fsl_targets(config.n_way, config.n_query)
        block_size = _eval_block(config.n_way, config.n_query, dataset)
        for start in range(0, config.steps, block_size):
            rows, cols = _fsl_rows(sample_episode(
                rng, dataset, config.n_way, config.n_shot, config.n_query,
                episodes=min(block_size, config.steps - start)))
            fixed = () if config.train_curvature else _prepare(rows, cols, config.curvature,
                                                                  projection)
            # prepared: the episode's slices of the block's Z and ZZ, or
            # none, and the step prepares q and p on the tape.
            for q, p, *prepared in zip(rows, cols, *fixed):
                def loss(raws, q=q, p=p, prepared=prepared):
                    k = kernel(raws)
                    return _episode_loss(k, prepared or _prepare(q, p, k.c, projection),
                                         targets, mode)
                yield loss
    elif config.task == "zsl":
        semantics = _class_semantics(dataset)
        for _ in range(config.steps):
            idx = rng.choice(dataset.features.shape[0], size=config.sts_batch, replace=False)
            feats, labels = dataset.features[idx], dataset.labels[idx]
            yield lambda raws, f=feats, l=labels: _zsl_loss(
                kernel(raws), raws.affine, semantics, f, l, mode, projection)
    else:
        for _ in range(config.steps):
            batch = _sample_triplets(rng, dataset, config.sts_batch)
            yield lambda raws, b=batch: _sts_loss(kernel(raws), *b, config.sts_temperature,
                                                  projection)


def _sample_triplets(rng: np.random.Generator, dataset: LabeledSet, batch: int):
    """batch (anchor, positive, negative) rows: anchor and positive are two
    distinct rows of a random class, the negative a row of another class."""
    index, sizes = dataset.class_rows, dataset.class_sizes
    n_classes = sizes.size
    rows = np.empty((batch, 3), dtype=np.int64)
    for t in range(batch):
        j = rng.choice(n_classes)
        rows[t, :2] = index[j, rng.choice(sizes[j], size=2, replace=False)]
        other = rng.choice(n_classes - 1)   # counts the classes other than j
        other += other >= j
        rows[t, 2] = index[other, rng.choice(sizes[other])]
    anchors, positives, negatives = dataset.features[rows.T]
    return anchors, positives, negatives


def _recording(loss, step_index: int, trace: list):
    """loss that appends its value to trace, or raises DivergenceError on a
    non-finite value.  Under `diff.grad` it runs inside the gradient's tape
    forward, so a step's loss is computed once and checked before any
    backward pass."""

    def recorded(raws):
        out = loss(raws)
        val = float(value(out))
        if not math.isfinite(val):
            raise DivergenceError(step_index, val)
        trace.append(val)
        return out

    return recorded


def _run_dataset(config: RunConfig) -> LabeledSet:
    """The tree dataset of a run's config."""
    return gen_tree_dataset(
        config.dataset_seed, config.depth, config.branching, config.dim,
        config.noise_sigma, config.samples_per_leaf, config.step_length,
    )


def _run_eval(config: RunConfig, dataset: LabeledSet, p: ParamVector,
              prepared: list | None = None) -> EvalResult:
    kconfig = params_to_kernel_config(config, p)
    return evaluate(
        kconfig, dataset, config.n_way, config.n_shot, config.n_query,
        config.eval_episodes, config.eval_seed, config.score_mode,
        config.projection, prepared=prepared,
    )


def params_to_kernel_config(config: RunConfig, p: ParamVector) -> KernelConfig:
    if config.variant == "da":   # the Drury-Arveson kernel takes the curvature alone
        return KernelConfig("da", curvature=Curvature(p.curvature_value))
    params, radial, _ = materialize(p)
    values = {"offset": config.offset, "degree": config.degree,
              "bandwidth": config.bandwidth, "radial": radial}
    return KernelConfig(config.variant, params=params,
                        **{name: values[name] for name in HYPERPARAMETERS[config.variant]})


def train(config: RunConfig) -> TrainRun:
    """Seeded episodic optimization; deterministic replay per config.  With
    the curvature fixed, the initial and final evaluations share one
    `_prepare` of their episodes when it fills at most SHARED_EVAL_BLOCKS."""
    dataset = _run_dataset(config)
    p = init_params(config)
    prepared = None
    if not config.train_curvature and config.eval_episodes <= SHARED_EVAL_BLOCKS * _eval_block(
            config.n_way, config.n_query, dataset):
        prepared = [_prepare(*rows, config.curvature, config.projection) for rows in _eval_rows(
            dataset, config.n_way, config.n_shot, config.n_query, config.eval_episodes,
            config.eval_seed)]
    initial_eval = _run_eval(config, dataset, p, prepared)
    rng = np.random.default_rng(config.train_seed)
    state = OptimizerState(mode=config.optimizer_mode)
    blocks = tuple(config.blocks)
    if config.train_curvature and "log_c" not in blocks:
        blocks = blocks + ("log_c",)
    if config.task == "zsl" and "affine" not in blocks:
        blocks = blocks + ("affine",)
    trace = []
    for i, loss in enumerate(_step_losses(config, dataset, rng)):
        loss = _recording(loss, i, trace)
        if config.lr > 0:
            state, p = step(state, p, grad(loss, p), config.lr, blocks)
        else:
            loss(p)
    final_eval = _run_eval(config, dataset, p, prepared)
    return TrainRun(config, tuple(trace), p, initial_eval, final_eval)
