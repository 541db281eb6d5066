"""The scalar reference path for the episodic losses, and gradient checks.

The losses compose `hypkernels._gmath` one pair at a time, exactly as the
library's losses are defined, so they run on floats and on the 60-digit
`hpfd.HPScalar`.  The tests check the batched forward in
`hypkernels.learning` against them (values), and the array-tape gradient
against high-precision central differences of them (`worst_grad_error`).
`leaves` is a `_gmath.KernelLeaves`; `projection` a `learning.Projection`.
"""

from __future__ import annotations

import numpy as np

from hpfd import HPScalar, hp_central_diff
from hypkernels import _gmath as gm
from hypkernels.diff import ParamVector, RawView, grad


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
