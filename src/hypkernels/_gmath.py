"""Scalar kernel math over real coordinates, generic in the scalar type.

This is the reference path, one pair at a time: every function works on
plain floats and on any scalar type exposing exp/log/tanh/sqrt, such as
the 60-digit scalar the tests take finite differences with.  Tests and
the benchmark's output checks compare the batched training/eval forward
(`learning`) and the complex Gram path (`kernels`) against it; the
library itself does not call it.  Real inputs only.
"""

from __future__ import annotations

import math

from .diff import RawView


def value(x) -> float:
    return float(x)


# Dispatch on the presence of the method so any scalar type exposing
# exp/log/tanh/sqrt (such as a high-precision wrapper) works.

def s_exp(x):
    return x.exp() if hasattr(x, "exp") else math.exp(x)


def s_log(x):
    return x.log() if hasattr(x, "log") else math.log(x)


def s_tanh(x):
    return x.tanh() if hasattr(x, "tanh") else math.tanh(x)


def s_sqrt(x):
    return x.sqrt() if hasattr(x, "sqrt") else math.sqrt(x)


def dot(u, v):
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a * b
    return total


def norm_sq(u):
    return dot(u, u)


def clamp0(x):
    """Zero out tiny negative rounding residues (constant past the kink)."""
    return x if value(x) > 0.0 else 0.0


def softmax(logits):
    shift = max(value(x) for x in logits)
    exps = [s_exp(x - shift) for x in logits]
    total = exps[0]
    for e in exps[1:]:
        total = total + e
    return [e / total for e in exps]


def log_sum_exp(xs):
    shift = max(value(x) for x in xs)
    total = s_exp(xs[0] - shift)
    for x in xs[1:]:
        total = total + s_exp(x - shift)
    return s_log(total) + shift


def tanh_ratio(y):
    """tanh(sqrt(y))/sqrt(y), smooth in y >= 0 (series near zero)."""
    if value(y) < 1e-8:
        return 1.0 - y * (1.0 / 3.0) + (y * y) * (2.0 / 15.0)
    r = s_sqrt(y)
    return s_tanh(r) / r


def exp0(v, c):
    """Exponential map at the origin on real coordinates."""
    y = c * norm_sq(v)
    f = tanh_ratio(y)
    return [f * x for x in v]


def clip_project(x, c, beta, eps):
    """CLIP_{beta,eps} projection; x entries may be constants or scalars."""
    s = s_sqrt(c) * s_sqrt(norm_sq(x) + 1e-300)
    if value(s) <= 1.0 - eps:
        factor = beta
    else:
        factor = beta * (1.0 - eps) / s
    return [factor * xi for xi in x]


def b_term(a, z, c):
    """Single-pole multiplier term, smooth at a = 0 (reduces to -z)."""
    caz = c * dot(a, z)
    s = s_sqrt(1.0 - c * norm_sq(a))
    lead = caz / (1.0 + s)
    denom = 1.0 - caz * caz
    return [s * (lead * ai - zi) / denom for ai, zi in zip(a, z)]


def multiplier_b(poles, weights, z, c):
    terms = [b_term(a, z, c) for a in poles]
    out = []
    for k in range(len(z)):
        acc = weights[0] * terms[0][k]
        for w, t in zip(weights[1:], terms[1:]):
            acc = acc + w * t[k]
        out.append(acc)
    return out


class KernelLeaves:
    """Scalar-typed kernel parameters plus hyperparameters for one variant."""

    def __init__(self, variant, c, poles=None, weights=None, alphas=None,
                 offset=None, degree=None, bandwidth=None):
        self.variant = variant
        self.c = c
        self.poles = poles
        self.weights = weights
        self.alphas = alphas
        self.offset = offset
        self.degree = degree
        self.bandwidth = bandwidth

    @staticmethod
    def from_config(config) -> "KernelLeaves":
        """Float leaves extracted from a numpy KernelConfig (real parts)."""
        curvature = config.get_curvature()
        if curvature is None:
            raise ValueError("kernel config must carry a curvature")
        poles = weights = None
        if config.params is not None:
            poles = [[float(w.real) for w in p.coords] for p in config.params.poles]
            weights = [float(w) for w in config.params.weights]
        alphas = None
        if config.radial is not None:
            alphas = [float(a) for a in config.radial.alphas]
        return KernelLeaves(
            config.variant, float(curvature.c), poles, weights, alphas,
            config.offset, config.degree, config.bandwidth,
        )

    @staticmethod
    def from_view(view: RawView, variant, offset=None, degree=None,
                  bandwidth=None) -> "KernelLeaves":
        """Constrained leaves derived from unconstrained raws (any scalar type)."""
        c = s_exp(view.log_c) if view.log_c is not None else view.fixed_c
        poles = [exp0(row, c) for row in view.pole_raws]
        weights = softmax(view.weight_logits)
        alphas = [r * r for r in view.radial_raws]
        return KernelLeaves(variant, c, poles, weights, alphas,
                            offset, degree, bandwidth)


class PointEmbed:
    """Per-point cache: ball coordinates, multiplier value, diagonal kernel."""

    __slots__ = ("z", "b", "k_diag")

    def __init__(self, z, b, k_diag):
        self.z = z
        self.b = b
        self.k_diag = k_diag


def embed(leaves: KernelLeaves, z) -> PointEmbed:
    c = leaves.c
    if leaves.poles is None:
        b = None
        k_diag = 1.0 / (1.0 - c * norm_sq(z))
    else:
        b = multiplier_b(leaves.poles, leaves.weights, z, c)
        k_diag = (1.0 - c * norm_sq(b)) / (1.0 - c * norm_sq(z))
    return PointEmbed(z, b, k_diag)


def dbr(leaves: KernelLeaves, p_i: PointEmbed, p_j: PointEmbed):
    c = leaves.c
    den = 1.0 - c * dot(p_i.z, p_j.z)
    if p_i.b is None:
        return 1.0 / den
    return (1.0 - c * dot(p_i.b, p_j.b)) / den


def base(leaves: KernelLeaves, p_i: PointEmbed, p_j: PointEmbed):
    k_ij = dbr(leaves, p_i, p_j)
    return (k_ij * k_ij) / (p_i.k_diag * p_j.k_diag)


def radial_series(alphas, beta):
    total = alphas[-1]
    for alpha in reversed(alphas[:-1]):
        total = total * beta + alpha
    return total


def kernel(leaves: KernelLeaves, p_i: PointEmbed, p_j: PointEmbed):
    """Kernel value for the configured variant (real scalar path)."""
    variant = leaves.variant
    if variant in ("da", "ahl"):
        return dbr(leaves, p_i, p_j)
    if variant == "ahpoly":
        return (dbr(leaves, p_i, p_j) + leaves.offset) ** int(leaves.degree)
    if variant == "ahrbf":
        d2 = clamp0(p_i.k_diag + p_j.k_diag - 2.0 * dbr(leaves, p_i, p_j))
        return s_exp(-d2 / (2.0 * leaves.bandwidth**2))
    if variant == "ahlap":
        d2 = clamp0(p_i.k_diag + p_j.k_diag - 2.0 * dbr(leaves, p_i, p_j))
        d = s_sqrt(d2) if value(d2) > 0.0 else 0.0
        return s_exp(-d / leaves.bandwidth)
    if variant == "base":
        return base(leaves, p_i, p_j)
    if variant == "ahrad":
        return radial_series(leaves.alphas, base(leaves, p_i, p_j))
    raise ValueError(f"unknown variant {variant!r}")


def distance(leaves: KernelLeaves, p_i: PointEmbed, p_j: PointEmbed):
    """Kernel-induced squared distance used as the classification score D.

    Exponential-form kernels use the negative log-kernel; all others use
    the induced squared distance k_ii + k_jj - 2 k_ij.
    """
    variant = leaves.variant
    if variant == "ahrbf":
        d2 = clamp0(p_i.k_diag + p_j.k_diag - 2.0 * dbr(leaves, p_i, p_j))
        return d2 / (2.0 * leaves.bandwidth**2)
    if variant == "ahlap":
        d2 = clamp0(p_i.k_diag + p_j.k_diag - 2.0 * dbr(leaves, p_i, p_j))
        d = s_sqrt(d2) if value(d2) > 0.0 else 0.0
        return d / leaves.bandwidth
    if variant in ("da", "ahl"):
        return clamp0(p_i.k_diag + p_j.k_diag - 2.0 * dbr(leaves, p_i, p_j))
    k_ii = kernel(leaves, p_i, p_i)
    k_jj = kernel(leaves, p_j, p_j)
    k_ij = kernel(leaves, p_i, p_j)
    return clamp0(k_ii + k_jj - 2.0 * k_ij)


def score(leaves: KernelLeaves, p_i: PointEmbed, p_j: PointEmbed, mode: str):
    """Classification score: higher is more similar."""
    if mode == "distance":
        return -distance(leaves, p_i, p_j)
    if mode == "similarity":
        return kernel(leaves, p_i, p_j)
    raise ValueError(f"unknown score mode {mode!r}")
