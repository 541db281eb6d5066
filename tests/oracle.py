"""The scalar reference path for the episodic losses, and gradient checks.

The losses compose `hypkernels._gmath` one pair at a time, exactly as the
library's losses are defined, so they run on floats and on the 60-digit
`hpfd.HPScalar`.  The tests check the batched forward in
`hypkernels.learning` against them (values), and the array-tape gradient
against high-precision central differences of them (`worst_grad_error`).
`leaves` is a `_gmath.KernelLeaves`; `projection` a `learning.Projection`.

The samplers below are the per-draw loops that the indexed and the
vectorised samplers replaced: `sample_triplets` draws what
`learning._sample_triplets` draws, and `sample_episode` (a different
stream from `learning.sample_episode`) is the distribution the vectorised
draw must reproduce.  `sample_episode_stack` is the vectorised draw
before it gathered rows by direct indexing and took its arrays without a
copy; `learning.sample_episode` must draw exactly its episodes.  `evaluate` scores the episodes of
`learning.sample_episode` one episode and one query at a time; the tests
require the same results from the stacked evaluation.  `step` is the
per-block optimizer step that the flat-buffer `diff.step` replaced; the
tests require bit-identical updates.  `sample_ball_points` is the
per-point sampler that `checks.sample_ball_coords` replaced; the tests
require the same draws, bit for bit.
`unclamp_exp0` and `push_multiplier_outside` substitute a layer's
output that the library never produces: boundary points and rows of
b(Z) outside the ball.

`COMPOSED` maps each fused layer of the forward (one tape node with a
closed-form VJP, in `geometry`, `learning`, `rkhs` or `kernels`) to the
same layer composed of generic `diff` operators, whose gradient the tape
derives op by op; the tests substitute them for the fused layers and
require the same values and gradients.  The composed `exp0` has no clamp:
below it the two agree bit for bit, and far past it (r = sqrt(c)|x| above
about 19) the composed map rounds points onto the ball boundary, which
is how the tests reach that boundary now that the fused layer never does.

`gram_csv` is the per-entry writer that `cli.gram_csv` replaced; the
tests require byte-identical text from it.  `shuffle_labels` (the
random-label control), `euclidean_baseline_score` (the pointwise
Euclidean and geodesic baseline scores) and `unreachable_after` (the
cyclic garbage a call leaves) are used by the tests only.
"""

from __future__ import annotations

import gc
import math
from dataclasses import replace

import numpy as np

from hpfd import HPScalar, hp_central_diff
from hypkernels import _gmath as gm
from hypkernels import checks, learning
from hypkernels.diff import (DEFAULT_BLOCKS, ParamVector, RawView, concat, exp, grad, log,
                             sqrt, tanh, value, where)
from hypkernels.geometry import BallPoint, Curvature, geodesic_distance


def _tanh_ratio(y):
    """tanh(sqrt(y))/sqrt(y) for y >= 0, by its series below 1e-8."""
    small = value(y) < 1e-8
    r = sqrt(where(small, 1.0, y))
    return where(small, 1.0 - y * (1.0 / 3.0) + (y * y) * (2.0 / 15.0), tanh(r) / r)


def exp0(x, c):
    """The exponential map at the origin without the clamp of
    `geometry._exp0`: points far past it round onto the ball boundary."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    return _tanh_ratio(c * sq) * x


def unclamp_exp0(monkeypatch):
    """Project features with the composed `exp0` in `learning`: points far
    past the clamp then round onto the ball boundary."""
    monkeypatch.setattr(learning, "_exp0", exp0)


def push_multiplier_outside(monkeypatch):
    """Make the check suites' b(Z) rows reach norm 1.5/sqrt(c), outside
    the ball."""
    layer = checks._multiplier

    def pushed(Z, P, w, c):
        B = layer(Z, P, w, c)
        return 1.5 / np.sqrt(c) * B / np.linalg.norm(B, axis=-1, keepdims=True)

    monkeypatch.setattr(checks, "_multiplier", pushed)


def clip(x, c, beta, eps):
    sq = (x * x).sum(axis=-1, keepdims=True)
    s = sqrt(c) * sqrt(sq + 1e-300)
    inside = value(s) <= 1.0 - eps
    return where(inside, beta, beta * (1.0 - eps) / s) * x


def multiplier(Z, P, w, c):
    caz = c * (Z @ P.mT)
    s = sqrt(1.0 - c * (P * P).sum(axis=-1))
    coef = w * s / (1.0 - caz * caz)
    return (coef * (caz / (1.0 + s))) @ P - coef.sum(axis=-1, keepdims=True) * Z


def _border(block, rows, cols):
    """The cross-matrix layout of `rkhs._dbr`: block bordered by rows (last
    column), cols (last row) and a corner 1."""
    corner = np.ones(value(block).shape[:-2] + (1, 1))
    return concat([concat([block, rows[..., :, None]], axis=-1),
                   concat([cols[..., None, :], corner], axis=-1)], axis=-2)


def dbr(c, Z, B=None, n=None, ZZ=None):
    """The cross matrix of the first n rows of Z against the others: the
    block of kernel values and each point's self-kernel, side by side.
    The products of Z are formed here, on the tape; ZZ is not read."""
    ones = np.ones((value(Z).shape[-1], 1))
    den = 1.0 - c * (Z[..., :n, :] @ Z[..., n:, :].mT)
    self_den = 1.0 - c * ((Z * Z) @ ones)[..., 0]
    if B is None:
        block, diag = 1.0 / den, 1.0 / self_den
    else:
        block = (1.0 - c * (B[..., :n, :] @ B[..., n:, :].mT)) / den
        diag = (1.0 - c * ((B * B) @ ones)[..., 0]) / self_den
    return _border(block, diag[..., :n], diag[..., n:])


def base(X):
    K = X[..., :-1, :-1]
    G = (K * K) / (X[..., :-1, -1:] * X[..., -1:, :-1])
    shape = value(G).shape
    return _border(G, np.ones(shape[:-1]), np.ones(shape[:-2] + shape[-1:]))


def radial(beta, alphas):
    G = alphas[-1]
    for l in range(value(alphas).shape[0] - 2, -1, -1):
        G = G * beta + alphas[l]
    return G


def gram_distance(X, strict=False):
    x = X[..., :-1, -1:] + X[..., -1:, :-1] - 2.0 * X[..., :-1, :-1]
    return where(value(x) <= 0.0, 0.0, x)


def softmax(logits):
    e = exp(logits - value(logits).max())
    return e / e.sum()


def cross_entropy(scores, targets):
    shift = np.max(value(scores), axis=-1)
    lse = log(exp(scores - shift[..., None]).sum(axis=-1)) + shift
    picked = scores[..., np.arange(targets.size), targets]
    return (lse - picked).sum(axis=-1) / targets.size


COMPOSED = {
    "_exp0": exp0,
    "_clip": clip,
    "_multiplier": multiplier,
    "_dbr": dbr,
    "_base": base,
    "_radial": radial,
    "_gram_distance": gram_distance,
    "_cross_entropy": cross_entropy,
    "softmax": softmax,
}


def sample_episode(rng, dataset, n_way, n_shot, n_query):
    """One label scan per drawn class, drawing from the label values."""
    classes = np.unique(dataset.labels)
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
    return learning.Episode(np.array(support), np.array(query),
                            tuple(int(c) for c in chosen))


def sample_episode_stack(rng, dataset, n_way, n_shot, n_query, episodes=None):
    """The vectorised draw with a `take_along_axis` gather and the
    validating `Episode` constructor."""
    n_classes = dataset.classes.size
    if n_way > n_classes:
        raise ValueError(f"cannot sample {n_way} ways from {n_classes} classes")
    count = 1 if episodes is None else episodes
    per_class = n_shot + n_query
    chosen = np.argsort(rng.random((count, n_classes)), axis=-1)[:, :n_way]
    sizes = dataset.class_sizes[chosen]
    short = sizes < per_class
    if short.any():
        raise ValueError(
            f"class {dataset.classes[chosen[short][0]]} has fewer than "
            f"{per_class} samples"
        )
    width = dataset.class_rows.shape[1]
    keys = rng.random((count, n_way, width))
    keys[np.arange(width) >= sizes[..., None]] = 2.0
    order = np.argsort(keys, axis=-1)[..., :per_class]
    samples = dataset.features[
        np.take_along_axis(dataset.class_rows[chosen], order, axis=-1)]
    class_ids = dataset.classes[chosen]
    if episodes is None:
        return learning.Episode(samples[0, :, :n_shot], samples[0, :, n_shot:],
                                tuple(class_ids[0].tolist()))
    return learning.Episode(samples[..., :n_shot, :], samples[..., n_shot:, :],
                            class_ids)


def sample_ball_points(rng, count, dim, curvature, r_max_frac=0.95, complex_coords=True):
    """Seeded ball points, drawn and checked one BallPoint at a time."""
    points = []
    r_max = r_max_frac / np.sqrt(curvature.c)
    for _ in range(count):
        if complex_coords:
            direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            direction = rng.standard_normal(dim).astype(np.complex128)
        nrm = np.linalg.norm(direction)
        radius = rng.uniform() ** (1.0 / dim) * r_max
        points.append(BallPoint(radius / nrm * direction, curvature))
    return points


def sample_triplets(rng, dataset, batch):
    """One label scan per draw; negatives from the other label values."""
    anchors, positives, negatives = [], [], []
    classes = np.unique(dataset.labels)
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


def _baseline_correct(episode, baseline, c, projection):
    """Correct queries of one episode, one query and one prototype at a time."""
    protos = episode.support.mean(axis=1)
    curv = Curvature(c)
    if baseline == "geodesic":
        protos = [BallPoint(projection.apply(p, c), curv) for p in protos]
    correct = 0
    for i in range(episode.n_way):
        for q in episode.query[i]:
            if baseline == "geodesic":
                q = BallPoint(projection.apply(q, c), curv)
            scores = [euclidean_baseline_score(q, p, baseline) for p in protos]
            correct += int(np.argmax(scores)) == i
    return correct


def evaluate(config, dataset, n_way, n_shot, n_query, episodes, seed,
             mode="distance", projection=learning.Projection(), baseline=None,
             curvature=1.0):
    """`learning.evaluate` one episode at a time: the episodes that its
    blocks draw, one 2-d score matrix per episode, the baselines per query."""
    rng = np.random.default_rng(seed)
    k = learning._kernel_from_config(config) if config is not None else None
    targets = np.repeat(np.arange(n_way), n_query)
    block_size = learning._eval_block(n_way, n_query, dataset)
    accs = []
    losses = []
    for start in range(0, episodes, block_size):
        block = learning.sample_episode(rng, dataset, n_way, n_shot, n_query,
                                        episodes=min(block_size, episodes - start))
        for e in range(len(block.class_ids)):
            episode = learning.Episode(block.support[e], block.query[e],
                                       block.class_ids[e])
            if baseline is not None:
                correct = _baseline_correct(episode, baseline, curvature, projection)
            else:
                scores = learning._scores(k, *learning._fsl_rows(episode), mode, projection)
                correct = int(np.count_nonzero(np.argmax(scores, axis=1) == targets))
                losses.append(float(learning._cross_entropy(scores, targets)))
            accs.append(correct / targets.size)
    accs = np.array(accs)
    ci = 1.96 * accs.std(ddof=1) / math.sqrt(episodes) if episodes > 1 else 0.0
    mean_loss = float(np.mean(losses)) if losses else None
    return learning.EvalResult(float(accs.mean()), float(ci), mean_loss)


_BLOCK_FIELDS = {"poles": "pole_raws", "weights": "weight_logits",
                 "alphas": "radial_raws", "log_c": "log_c", "affine": "affine"}


def step(state, p, g, lr, blocks=DEFAULT_BLOCKS):
    """`diff.step` block by block, rebuilding both dataclasses by `replace`."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    updates = {}
    new_m = dict(state.m)
    new_v = dict(state.v)
    t = state.t + 1
    for block in blocks:
        if block not in _BLOCK_FIELDS:
            raise ValueError(f"unknown parameter block {block!r}")
        fname = _BLOCK_FIELDS[block]
        pv = getattr(p, fname)
        gv = getattr(g, fname)
        if pv is None:
            continue
        if gv is None:
            raise ValueError(f"gradient missing for block {block!r}")
        pv = np.asarray(pv, dtype=np.float64)
        gv = np.asarray(gv, dtype=np.float64)
        if pv.shape != gv.shape:
            raise ValueError(f"shape mismatch in block {block!r}")
        if state.mode == "sgd":
            updates[fname] = pv - lr * gv
        else:
            m = state.m.get(block, np.zeros_like(pv))
            v = state.v.get(block, np.zeros_like(pv))
            m = state.beta1 * m + (1.0 - state.beta1) * gv
            v = state.beta2 * v + (1.0 - state.beta2) * gv * gv
            m_hat = m / (1.0 - state.beta1**t)
            v_hat = v / (1.0 - state.beta2**t)
            updates[fname] = pv - lr * m_hat / (np.sqrt(v_hat) + state.eps)
            new_m[block] = m
            new_v[block] = v
    kwargs = {}
    for fname, arr in updates.items():
        kwargs[fname] = float(arr) if fname == "log_c" else arr
    new_p = replace(p, **kwargs)
    new_state = replace(state, t=t, m=new_m, v=new_v)
    return new_state, new_p


def project(projection, x, c):
    """The projection of one real vector onto the ball, generic in c."""
    x = [float(v) for v in x]
    if projection.kind == "exp0":
        return gm.exp0(x, c)
    return gm.clip_project(x, c, projection.beta, projection.eps)


def episode_scores(leaves, episode, mode, projection):
    """Per query (class-major), its scores against the class prototypes."""
    c = leaves.c
    protos = [gm.embed(leaves, project(projection, row, c))
              for row in episode.support.mean(axis=1)]
    return [
        [gm.score(leaves, gm.embed(leaves, project(projection, q, c)), p, mode)
         for p in protos]
        for i in range(episode.n_way) for q in episode.query[i]
    ]


def episode_correct(leaves, episode, mode, projection) -> int:
    n_query = episode.query.shape[1]
    return sum(
        int(np.argmax([gm.value(s) for s in row]) == r // n_query)
        for r, row in enumerate(episode_scores(leaves, episode, mode, projection))
    )


def episode_loss(leaves, episode, mode, projection):
    """Cross-entropy of queries against class prototypes."""
    n_query = episode.query.shape[1]
    total = 0.0
    rows = episode_scores(leaves, episode, mode, projection)
    for r, scores in enumerate(rows):
        total = total + gm.log_sum_exp(scores) - scores[r // n_query]
    return total / len(rows)


def zsl_loss(leaves, affine, semantics, visual, labels, mode, projection):
    """Cross-entropy of visual samples against anchors W s + b; affine = [W | b]."""
    c = leaves.c
    anchors = []
    for vec in semantics:
        mapped = [gm.dot(row[:-1], [float(v) for v in vec]) + row[-1] for row in affine]
        anchors.append(gm.embed(leaves, project(projection, mapped, c)))
    total = 0.0
    for x, lab in zip(visual, labels):
        x_embed = gm.embed(leaves, project(projection, x, c))
        scores = [gm.score(leaves, a, x_embed, mode) for a in anchors]
        total = total + gm.log_sum_exp(scores) - scores[lab]
    return total / len(labels)


def sts_loss(leaves, anchors, positives, negatives, temperature, projection):
    """In-batch contrastive cross-entropy with logits k(a, x)/temperature."""
    c = leaves.c
    anchor_embeds = [gm.embed(leaves, project(projection, a, c)) for a in anchors]
    cand_embeds = [gm.embed(leaves, project(projection, x, c))
                   for x in list(positives) + list(negatives)]
    total = 0.0
    for i, a in enumerate(anchor_embeds):
        logits = [gm.kernel(leaves, a, cand) / temperature for cand in cand_embeds]
        total = total + gm.log_sum_exp(logits) - logits[i]
    return total / len(anchor_embeds)


def raw_coords(p: ParamVector):
    """Every raw coordinate of p as (field, index), log_c when trainable."""
    out = [("pole_raws", idx) for idx in np.ndindex(p.pole_raws.shape)]
    out += [("weight_logits", idx) for idx in np.ndindex(p.weight_logits.shape)]
    out += [("radial_raws", idx) for idx in np.ndindex(p.radial_raws.shape)]
    if p.affine is not None:
        out += [("affine", idx) for idx in np.ndindex(p.affine.shape)]
    if p.log_c is not None:
        out.append(("log_c", ()))
    return out


def hp_view(p: ParamVector) -> RawView:
    """The raws of p as nested lists of 60-digit scalars."""
    return RawView(
        pole_raws=[[HPScalar(x) for x in row] for row in p.pole_raws],
        weight_logits=[HPScalar(x) for x in p.weight_logits],
        radial_raws=[HPScalar(x) for x in p.radial_raws],
        log_c=HPScalar(p.log_c) if p.log_c is not None else None,
        fixed_c=p.fixed_c,
        affine=[[HPScalar(x) for x in row] for row in p.affine]
        if p.affine is not None
        else None,
    )


def worst_grad_error(loss, reference, p: ParamVector, h: float = 1e-5) -> float:
    """Worst relative error of grad(loss, p) against central differences.

    `reference(view)` is the same loss on the scalar path; it is
    differenced coordinate by coordinate at 60 digits.  The error is
    relative to max(1e-8, |difference quotient|).
    """
    g = grad(loss, p)
    worst = 0.0
    for name, idx in raw_coords(p):
        def pinned(x, name=name, idx=idx):
            view = hp_view(p)
            if name == "log_c":
                view.log_c = x
            else:
                node = getattr(view, name)
                for i in idx[:-1]:
                    node = node[i]
                node[idx[-1]] = x
            return reference(view)

        x0 = float(np.asarray(getattr(p, name))[idx])
        fd = hp_central_diff(pinned, x0, h=h)
        ga = float(np.asarray(getattr(g, name))[idx])
        worst = max(worst, abs(ga - fd) / max(1e-8, abs(fd)))
    return worst


def gram_csv(entries) -> str:
    """The CSV text of a real Gram matrix, formatted entry by entry."""
    return "".join(",".join(f"{float(v):.17g}" for v in row) + "\n"
                   for row in entries)


def shuffle_labels(dataset: learning.LabeledSet, seed: int) -> learning.LabeledSet:
    """Random-label control: permute labels independently of features."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(dataset.labels)
    return learning.LabeledSet(dataset.features, labels, {**dataset.meta, "shuffled": True})


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


def unreachable_after(fn) -> int:
    """The objects that the cyclic garbage collector finds unreachable
    after fn() runs with automatic collection off."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()
