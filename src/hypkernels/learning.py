"""Desk-scale episodic training on synthetic hierarchical data.

Three objectives share one batched forward: the rows of an episode
(queries, visual samples or anchors) are scored against its columns
(prototypes, mapped semantic anchors or candidates) in one score matrix,
and every loss is the row-wise log-sum-exp cross-entropy of that matrix
against a target column.  The forward is written once over arrays that
may be plain numpy (evaluation) or `diff.Node`s on the reverse-mode tape
(gradients).  Each of its layers (exp0 projection, multiplier b(Z),
de Branges-Rovnyak matrix, base normalisation, radial polynomial, Gram
distance, cross-entropy) computes its numpy forward and records one tape
node with a closed-form VJP, so on plain arrays it does no gradient work.
The forward also runs over leading batch axes: training scores one episode
(a 2-d score matrix on the tape), evaluation a stack of episodes at once
(one score tensor per block of episodes).  The objectives are episodic
few-shot classification, semantic/visual alignment with an affine
embedder, and in-batch contrastive similarity learning.  A Euclidean and
a geodesic baseline are provided for comparison.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .diff import (
    DEFAULT_BLOCKS,
    Node,
    OptimizerState,
    ParamVector,
    concat,
    exp,
    grad,
    materialize,
    record,
    sqrt,
    step,
    value,
    where,
)
from .geometry import (
    BOUNDARY_MARGIN,
    BallPoint,
    Curvature,
    GeometryError,
    geodesic_distance,
)
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
        """Project each vector along the last axis of x onto the ball.

        x and c may be plain arrays/numbers or tape nodes.
        """
        if not isinstance(value(x), np.ndarray):
            x = np.asarray(x, dtype=np.float64)
        if self.kind == "exp0":
            return _exp0(x, c)
        sq = (x * x).sum(axis=-1, keepdims=True)
        s = sqrt(c) * sqrt(sq + 1e-300)
        inside = value(s) <= 1.0 - self.eps
        return where(inside, self.beta, self.beta * (1.0 - self.eps) / s) * x


def _exp0(x, c):
    """Exponential map at the origin of each vector along the last axis of
    x: tanh(r)/r * x with r = sqrt(c)|x|, by its series below r^2 = 1e-8
    (zero rows included).  One tape node over x and c."""
    xv, cv = value(x), value(c)
    sq = (xv * xv).sum(axis=-1, keepdims=True)
    y = cv * sq
    small = y < 1e-8
    r = np.sqrt(np.where(small, 1.0, y))
    t = np.tanh(r)
    f = np.where(small, 1.0 - y * (1.0 / 3.0) + (y * y) * (2.0 / 15.0), t / r)

    def vjp(g):
        df = np.where(small, (4.0 / 15.0) * y - 1.0 / 3.0,
                      ((1.0 - t * t) - f) / r * (0.5 / r))
        gy = (g * xv).sum(axis=-1, keepdims=True) * df
        gx = g * f + (2.0 * cv) * gy * xv if isinstance(x, Node) else None
        gc = (gy * sq).sum() if isinstance(c, Node) else None
        return gx, gc

    return record(f * xv, vjp, x, c)


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
    weights through softmax, squared radial coefficients.  The
    Drury-Arveson kernel has no multiplier, so its poles and weights stay
    out of the forward (and get zero gradient)."""
    c = exp(raws.log_c) if raws.log_c is not None else raws.fixed_c
    poles = weights = None
    if config.variant != "da":
        poles = Projection().apply(raws.pole_raws, c)
        e = exp(raws.weight_logits - np.max(value(raws.weight_logits)))
        weights = e / e.sum()
    return _Kernel(config.variant, c, poles, weights,
                   raws.radial_raws * raws.radial_raws,
                   config.offset, config.degree, config.bandwidth)


def _multiplier(k: _Kernel, Z):
    """b(z) for every row z of Z (... x n x dim), all poles in one matrix product.

    b(z) = sum_j w_j s_j (lead_j a_j - z) / (1 - (c<a_j,z>)^2) with
    s_j = sqrt(1 - c|a_j|^2) and lead_j = c<a_j,z>/(1 + s_j); it is
    smooth at a_j = 0, where the term is -z.  One tape node over Z, the
    poles, the weights and c.
    """
    c, P, w = k.c, k.poles, k.weights
    cv, Pv, wv, Zv = value(c), value(P), value(w), value(Z)
    ZP = Zv @ Pv.mT
    caz = cv * ZP
    pp = (Pv * Pv).sum(axis=-1)
    s = np.sqrt(1.0 - cv * pp)
    den = 1.0 - caz * caz
    coef = wv * s / den
    lead = caz / (1.0 + s)
    M = coef * lead
    coef_sum = coef.sum(axis=-1, keepdims=True)

    def vjp(g):
        gM = g @ Pv.mT
        gcoef = gM * lead - (g * Zv).sum(axis=-1, keepdims=True)
        glead = gM * coef
        gcaz = glead / (1.0 + s) + gcoef * coef * (2.0 * caz) / den
        # s_j enters lead and coef; q_j = 1 - c|a_j|^2 = s_j^2.
        gq = (gcoef * wv / den - glead * lead / (1.0 + s)).sum(axis=-2) * (0.5 / s)
        gZ = gP = gw = gc = None
        if isinstance(Z, Node):
            gZ = (cv * gcaz) @ Pv - coef_sum * g
        if isinstance(P, Node):
            gP = M.mT @ g + (cv * gcaz).mT @ Zv - (2.0 * cv) * gq[..., None] * Pv
        if isinstance(w, Node):
            gw = (gcoef * s / den).sum(axis=-2)
        if isinstance(c, Node):
            gc = (gcaz * ZP).sum() - (gq * pp).sum()
        return gZ, gP, gw, gc

    return record(M @ Pv - coef_sum * Zv, vjp, Z, P, w, c)


def _dbr(c, Z, B=None):
    """De Branges-Rovnyak matrix (1 - c B B^T)/(1 - c Z Z^T) over the rows
    of Z and of B = b(Z); 1/(1 - c Z Z^T) without a multiplier.  One tape
    node over c, Z and B."""
    cv, Zv, Bv = value(c), value(Z), value(B)
    ZZ = Zv @ Zv.mT
    den = 1.0 - cv * ZZ
    if B is None:
        K = 1.0 / den
    else:
        BB = Bv @ Bv.mT
        K = (1.0 - cv * BB) / den

    def vjp(g):
        gden = -g * K / den
        gnum = g / den if B is not None else None
        gc = gZ = gB = None
        if isinstance(c, Node):
            gc = -(gden * ZZ).sum()
            if B is not None:
                gc = gc - (gnum * BB).sum()
        if isinstance(Z, Node):
            gZ = -cv * ((gden + gden.mT) @ Zv)
        if isinstance(B, Node):
            gB = -cv * ((gnum + gnum.mT) @ Bv)
        return gc, gZ, gB

    return record(K, vjp, c, Z, B)


def _base(K):
    """Normalised kernel K_ij^2 / (K_ii K_jj) over the last two axes.  One
    tape node over K."""
    Kv = value(K)
    diag = np.arange(Kv.shape[-1])
    d = Kv[..., diag, diag]
    dd = d[..., :, None] * d[..., None, :]
    G = (Kv * Kv) / dd

    def vjp(g):
        gK = (2.0 * g) * Kv / dd
        gG = g * G
        gK[..., diag, diag] -= (gG.sum(axis=-1) + gG.sum(axis=-2)) / d
        return (gK,)

    return record(G, vjp, K)


def _radial(beta, alphas):
    """sum_l alphas[l] beta^l elementwise, by Horner's rule.  One tape node
    over beta and the coefficients."""
    bv, av = value(beta), value(alphas)
    top = av.shape[0] - 1
    out = av[-1]
    for l in range(top - 1, -1, -1):
        out = out * bv + av[l]

    def vjp(g):
        gb = ga = None
        if isinstance(beta, Node):
            slope = top * av[-1]
            for l in range(top - 1, 0, -1):
                slope = slope * bv + l * av[l]
            gb = g * slope
        if isinstance(alphas, Node):
            ga = np.empty(top + 1)
            power = g
            for l in range(top + 1):
                ga[l] = power.sum()
                if l < top:
                    power = power * bv
        return gb, ga

    return record(out, vjp, beta, alphas)


def _gram_distance(G, n: int):
    """Kernel-induced squared distance max(0, G_ii + G_jj - 2 G_ij) of the
    first n rows of a Gram matrix G against its remaining columns
    (... x n x (N - n)).  One tape node over G."""
    Gv = value(G)
    diag = np.arange(Gv.shape[-1])
    g = Gv[..., diag, diag]
    raw = g[..., :n, None] + g[..., None, n:] - 2.0 * Gv[..., :n, n:]
    dist = np.where(raw > 0.0, raw, 0.0)

    def vjp(h):
        h = np.where(dist > 0.0, h, 0.0)
        gG = np.zeros(Gv.shape)
        gG[..., :n, n:] = -2.0 * h
        gG[..., diag, diag] = np.concatenate((h.sum(axis=-1), h.sum(axis=-2)),
                                             axis=-1)
        return (gG,)

    return record(dist, vjp, G)


def _scores(k: _Kernel, rows, cols, mode: str, projection: Projection):
    """Score matrix of rows against columns: higher is more similar.

    rows (... x n x dim) and cols (... x m x dim) give ... x n x m scores;
    leading axes are independent batches (stacked episodes).  Both sets
    are projected onto the ball and the kernel is formed once over their
    union.  In "distance" mode the score is minus the kernel-induced
    squared distance k_ii + k_jj - 2 k_ij (for ahrbf/ahlap minus the
    negative log-kernel); in "similarity" mode it is the kernel.
    """
    if mode not in ("distance", "similarity"):
        raise ValueError(f"unknown score mode {mode!r}")
    n = value(rows).shape[-2]
    Z = projection.apply(concat([rows, cols], axis=-2), k.c)
    K = _dbr(k.c, Z, _multiplier(k, Z) if k.poles is not None else None)
    variant = k.variant
    if variant in ("da", "ahl", "ahrbf", "ahlap"):
        dist = _gram_distance(K, n)
        if variant == "ahrbf":
            dist = dist / (2.0 * k.bandwidth**2)
        elif variant == "ahlap":
            positive = value(dist) > 0.0
            dist = where(positive, sqrt(where(positive, dist, 1.0)), 0.0) / k.bandwidth
        if mode == "distance":
            return -dist
        return K[..., :n, n:] if variant in ("da", "ahl") else exp(-dist)
    if variant == "ahpoly":
        G = (K + k.offset) ** int(k.degree)
    elif variant in ("base", "ahrad"):
        G = _base(K)
        if variant == "ahrad":
            G = _radial(G, k.alphas)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if mode == "distance":
        return -_gram_distance(G, n)
    return G[..., :n, n:]


def _cross_entropy(scores, targets: np.ndarray):
    """Mean over rows of log-sum-exp(row) - row[target], one value per
    score matrix in the stack (a scalar for a single matrix).  One tape
    node over the scores; its VJP is (softmax - onehot) / rows."""
    sv = value(scores)
    rows = np.arange(targets.size)
    shift = np.max(sv, axis=-1)
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

    `classes` holds the sorted distinct labels and `class_index[j]` the
    ascending row indices of class `classes[j]`; both are built once.
    """

    features: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)
    classes: np.ndarray = field(init=False, repr=False, compare=False)
    class_index: tuple = field(init=False, repr=False, compare=False)

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
        class_index = np.split(order, np.cumsum(np.bincount(inverse))[:-1])
        for a in (feats, labels, classes, *class_index):
            a.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_index", tuple(class_index))


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
    """n_way distinct classes, then per class n_shot + n_query distinct rows.

    Draws from the dataset's per-class index; one `rng.choice` for the
    classes and one per class, so a seed fixes the episode.
    """
    n_classes = dataset.classes.size
    if n_way > n_classes:
        raise ValueError(f"cannot sample {n_way} ways from {n_classes} classes")
    chosen = rng.choice(n_classes, size=n_way, replace=False)
    per_class = n_shot + n_query
    picked = np.empty((n_way, per_class), dtype=np.int64)
    for row, j in enumerate(chosen):
        idx = dataset.class_index[j]
        if idx.size < per_class:
            raise ValueError(
                f"class {dataset.classes[j]} has fewer than {per_class} samples"
            )
        picked[row] = idx[rng.choice(idx.size, size=per_class, replace=False)]
    samples = dataset.features[picked]
    return Episode(samples[:, :n_shot], samples[:, n_shot:],
                   tuple(dataset.classes[chosen].tolist()))


def _fsl_scores(k: _Kernel, episode: Episode, mode: str, projection: Projection):
    """Queries (class-major) against class prototypes.

    Prototypes are means of support features in the pre-projection space.
    """
    queries = episode.query.reshape(-1, episode.query.shape[2])
    return _scores(k, queries, episode.support.mean(axis=1), mode, projection)


def _fsl_targets(n_way: int, n_query: int) -> np.ndarray:
    return np.repeat(np.arange(n_way), n_query)


def _fsl_loss(k: _Kernel, episode: Episode, mode: str, projection: Projection):
    scores = _fsl_scores(k, episode, mode, projection)
    return _cross_entropy(scores, _fsl_targets(*episode.query.shape[:2]))


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


BASELINES = ("euclidean", "geodesic")

# Bound on the entries of the arrays of one stacked forward in `evaluate`,
# counted as n x (n + dim) per episode of n = n_way * (n_query + 1) rows
# and columns (the kernel matrix and the projected points): memory grows
# neither with the number of episodes nor, beyond one episode per block,
# with their size.
EVAL_BLOCK_ENTRIES = 2**17


def _eval_block(n_way: int, n_query: int, dim: int) -> int:
    """Episodes per stacked forward in `evaluate`."""
    n = n_way * (n_query + 1)
    return max(1, EVAL_BLOCK_ENTRIES // (n * (n + dim)))


def _baseline_scores(queries, protos, baseline: str, c: float,
                     projection: Projection):
    """Baseline scores of queries (... x n x dim) against prototypes
    (... x m x dim): minus the squared Euclidean distance of the features,
    or minus the geodesic distance of their projections onto the ball,
    both from inner products (geometry.pseudo_distance_closed_form)."""
    if baseline == "euclidean":
        sq_q = (queries * queries).sum(axis=-1)
        sq_p = (protos * protos).sum(axis=-1)
        return 2.0 * (queries @ protos.mT) - sq_q[..., :, None] - sq_p[..., None, :]
    c = Curvature(c).c
    Q = projection.apply(queries, c)
    P = projection.apply(protos, c)
    cq = c * (Q * Q).sum(axis=-1)
    cp = c * (P * P).sum(axis=-1)
    if max(cq.max(), cp.max()) >= (1.0 - BOUNDARY_MARGIN) ** 2:
        raise GeometryError("projected point too close to the ball boundary")
    num = (1.0 - cq)[..., :, None] * (1.0 - cp)[..., None, :]
    rho = np.sqrt(np.maximum(1.0 - num / (1.0 - c * (Q @ P.mT)) ** 2, 0.0))
    return -2.0 / np.sqrt(c) * np.arctanh(rho)


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
    and mean_loss the mean fsl loss, both from the same scores; the CI
    halfwidth is 1.96 * stderr over per-episode accuracies.  Episodes are
    sampled one by one from the seeded stream and scored a block at a time
    (`_eval_block`) in one stacked forward.  Raises ArithmeticError when a
    block's scores or losses are not finite (projected points that round
    onto the ball boundary).
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if baseline is not None and baseline not in BASELINES:
        raise ValueError(f"unknown baseline mode {baseline!r}")
    rng = np.random.default_rng(seed)
    k = _kernel_from_config(config) if config is not None else None
    targets = _fsl_targets(n_way, n_query)
    block_size = _eval_block(n_way, n_query, dataset.features.shape[1])
    correct = []
    losses = []
    for start in range(0, episodes, block_size):
        block = [sample_episode(rng, dataset, n_way, n_shot, n_query)
                 for _ in range(min(block_size, episodes - start))]
        # Queries (class-major) and prototypes, as in _fsl_scores, stacked.
        queries = np.array([e.query for e in block])
        queries = queries.reshape(len(block), targets.size, queries.shape[-1])
        protos = np.array([e.support for e in block]).mean(axis=2)
        if baseline is not None:
            scores = _baseline_scores(queries, protos, baseline, curvature, projection)
        else:
            scores = _scores(k, queries, protos, mode, projection)
            losses.append(_cross_entropy(scores, targets))
        finite = np.isfinite(scores).all()
        if not (finite and (not losses or np.isfinite(losses[-1]).all())):
            raise ArithmeticError(
                f"non-finite scores in evaluation episodes {start}.."
                f"{start + len(block) - 1} (points on the ball boundary?)"
            )
        correct.append((np.argmax(scores, axis=-1) == targets).sum(axis=-1))
    accs = np.concatenate(correct) / targets.size
    if episodes > 1:
        ci = 1.96 * accs.std(ddof=1) / math.sqrt(episodes)
    else:
        ci = 0.0
    mean_loss = float(np.mean(np.concatenate(losses))) if losses else None
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
    return np.array([dataset.features[idx].mean(axis=0) for idx in dataset.class_index])


def _make_step_loss(config: RunConfig, dataset: LabeledSet,
                    rng: np.random.Generator, semantics: np.ndarray | None = None):
    """Sample one training batch and close over it as loss(raws).

    raws is a ParamVector (value) or the RawView of tape nodes that
    `diff.grad` passes (gradient); both go through the same forward.
    A zsl step needs `semantics`, the `_class_semantics` of the dataset,
    which `train` computes once per run.
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
    """batch (anchor, positive, negative) rows: anchor and positive are two
    distinct rows of a random class, the negative a row of another class."""
    index = dataset.class_index
    n_classes = len(index)
    rows = np.empty((batch, 3), dtype=np.int64)
    for t in range(batch):
        j = rng.choice(n_classes)
        rows[t, :2] = index[j][rng.choice(index[j].size, size=2, replace=False)]
        other = rng.choice(n_classes - 1)   # counts the classes other than j
        other += other >= j
        rows[t, 2] = index[other][rng.choice(index[other].size)]
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
    semantics = _class_semantics(dataset) if config.task == "zsl" else None
    trace = []
    for i in range(config.steps):
        loss = _recording(_make_step_loss(config, dataset, rng, semantics), i, trace)
        if config.lr > 0:
            state, p = step(state, p, grad(loss, p), config.lr, blocks)
        else:
            loss(p)
    final_eval = _run_eval(config, dataset, p)
    return TrainRun(config, tuple(trace), p, initial_eval, final_eval)
