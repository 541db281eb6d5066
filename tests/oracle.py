"""The scalar reference path for the episodic losses, and gradient checks.

The losses compose `hypkernels._gmath` one pair at a time, exactly as the
library's losses are defined, so they run on floats and on the 60-digit
`hpfd.HPScalar`.  The tests check the batched forward in
`hypkernels.learning` against them (values), and the array-tape gradient
against high-precision central differences of them (`worst_grad_error`).
`leaves` is a `_gmath.KernelLeaves`; `projection` a `learning.Projection`.

The samplers and `evaluate` below are the per-episode, per-query loops
that the indexed samplers and the stacked evaluation replaced; the tests
require the same draws and the same results from both.

`COMPOSED` maps each fused layer of `learning` (one tape node with a
closed-form VJP) to the same layer composed of generic `diff` operators,
whose gradient the tape derives op by op; the tests substitute them for
the fused layers and require the same values and gradients.
"""

from __future__ import annotations

import math

import numpy as np

from hpfd import HPScalar, hp_central_diff
from hypkernels import _gmath as gm
from hypkernels import learning
from hypkernels.diff import (ParamVector, RawView, exp, grad, log, sqrt, tanh, value,
                             where)
from hypkernels.geometry import BallPoint, Curvature


def _tanh_ratio(y):
    """tanh(sqrt(y))/sqrt(y) for y >= 0, by its series below 1e-8."""
    small = value(y) < 1e-8
    r = sqrt(where(small, 1.0, y))
    return where(small, 1.0 - y * (1.0 / 3.0) + (y * y) * (2.0 / 15.0), tanh(r) / r)


def exp0(x, c):
    sq = (x * x).sum(axis=-1, keepdims=True)
    return _tanh_ratio(c * sq) * x


def multiplier(k, Z):
    c, P = k.c, k.poles
    caz = c * (Z @ P.mT)
    s = sqrt(1.0 - c * (P * P).sum(axis=-1))
    coef = k.weights * s / (1.0 - caz * caz)
    return (coef * (caz / (1.0 + s))) @ P - coef.sum(axis=-1, keepdims=True) * Z


def dbr(c, Z, B=None):
    den = 1.0 - c * (Z @ Z.mT)
    if B is None:
        return 1.0 / den
    return (1.0 - c * (B @ B.mT)) / den


def base(K):
    diag = np.arange(value(K).shape[-1])
    d = K[..., diag, diag]
    return (K * K) / (d[..., :, None] * d[..., None, :])


def radial(beta, alphas):
    G = alphas[-1]
    for l in range(value(alphas).shape[0] - 2, -1, -1):
        G = G * beta + alphas[l]
    return G


def gram_distance(G, n):
    diag = np.arange(value(G).shape[-1])
    g = G[..., diag, diag]
    x = g[..., :n, None] + g[..., None, n:] - 2.0 * G[..., :n, n:]
    return where(value(x) > 0.0, x, 0.0)


def cross_entropy(scores, targets):
    shift = np.max(value(scores), axis=-1)
    lse = log(exp(scores - shift[..., None]).sum(axis=-1)) + shift
    picked = scores[..., np.arange(targets.size), targets]
    return (lse - picked).sum(axis=-1) / targets.size


COMPOSED = {
    "_exp0": exp0,
    "_multiplier": multiplier,
    "_dbr": dbr,
    "_base": base,
    "_radial": radial,
    "_gram_distance": gram_distance,
    "_cross_entropy": cross_entropy,
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
            scores = [learning.euclidean_baseline_score(q, p, baseline) for p in protos]
            correct += int(np.argmax(scores)) == i
    return correct


def evaluate(config, dataset, n_way, n_shot, n_query, episodes, seed,
             mode="distance", projection=learning.Projection(), baseline=None,
             curvature=1.0):
    """`learning.evaluate` one episode at a time: the reference sampler, one
    2-d score matrix per episode, the baselines per query."""
    rng = np.random.default_rng(seed)
    k = learning._kernel_from_config(config) if config is not None else None
    targets = np.repeat(np.arange(n_way), n_query)
    accs = []
    losses = []
    for _ in range(episodes):
        episode = sample_episode(rng, dataset, n_way, n_shot, n_query)
        if baseline is not None:
            correct = _baseline_correct(episode, baseline, curvature, projection)
        else:
            scores = learning._fsl_scores(k, episode, mode, projection)
            correct = int(np.count_nonzero(np.argmax(scores, axis=1) == targets))
            losses.append(float(learning._cross_entropy(scores, targets)))
        accs.append(correct / targets.size)
    accs = np.array(accs)
    ci = 1.96 * accs.std(ddof=1) / math.sqrt(episodes) if episodes > 1 else 0.0
    mean_loss = float(np.mean(losses)) if losses else None
    return learning.EvalResult(float(accs.mean()), float(ci), mean_loss)


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
