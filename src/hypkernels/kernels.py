"""The adaptive hyperbolic kernel family and Gram-matrix assembly.

Variants: "da" (Drury-Arveson), "ahl" (adaptive hyperbolic linear, the
de Branges-Rovnyak kernel itself), "ahpoly", "ahrbf", "ahlap", "base"
(squared cosine similarity of normalized representers) and "ahrad"
(truncated nonnegative power series in the base kernel).

`_transform`, the one variant dispatch, turns a de Branges-Rovnyak
cross matrix of `rkhs` (a block of kernel values bordered by the
self-kernels of its rows and columns, see `rkhs._dbr`) into any variant:
for `gram` and `evaluate` the Hermitian Gram matrix bordered by its
diagonal, for the episodes of `learning` the queries-by-prototypes block
with closed-form self-kernels.  Its layers `_base` and `_radial` are tape
nodes like those of `rkhs`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .diff import Node, exp, record, sqrt, value, where
from .geometry import BallPoint, Curvature, _interior_rows
from .rkhs import (MultiplierParams, _as_real, _bordered, _dbr, _gram_distance, _rows,
                   _stacked)

# The `KernelConfig` fields each variant takes besides the multiplier
# params (which all but "da" take): the one place that declares them.
HYPERPARAMETERS = {
    "da": (),
    "ahl": (),
    "ahpoly": ("offset", "degree"),
    "ahrbf": ("bandwidth",),
    "ahlap": ("bandwidth",),
    "base": (),
    "ahrad": ("radial",),
}
VARIANTS = tuple(HYPERPARAMETERS)

MAX_GRAM_SIZE = 1024


class ConfigError(ValueError):
    """Kernel configuration is inconsistent with its variant."""


@dataclass(frozen=True)
class RadialCoeffs:
    """Raw coefficients of the truncated radial power series.

    The nonnegative series coefficients are the squares alpha_l = raw_l^2,
    which keeps them nonnegative under unconstrained optimizer steps while
    allowing exact zeros.
    """

    raw: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.raw, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("raw coefficients must be a vector of length K+1 >= 2")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("raw coefficients must be finite")
        if not np.any(arr != 0.0):
            raise ConfigError("at least one coefficient must be nonzero")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "raw", arr)

    @property
    def truncation(self) -> int:
        return self.raw.size - 1

    @property
    def alphas(self) -> np.ndarray:
        return self.raw**2


def _finite(rule):
    """rule, holding only of finite real numbers (bools are not numbers)."""
    return lambda v: (isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
                      and bool(np.isfinite(v)) and rule(v))


# The value rule of each hyperparameter, with the phrase naming a valid value.
_HYPERPARAMETER_RULES = {
    "offset": (_finite(lambda v: v > 0), "a positive offset"),
    # Off-diagonal kernel values are complex; non-integer powers are
    # multivalued and break the Schur-product argument.
    "degree": (_finite(lambda v: v >= 1 and v == int(v)), "a positive integer degree"),
    "bandwidth": (_finite(lambda v: v > 0), "a positive bandwidth"),
    "radial": (lambda v: isinstance(v, RadialCoeffs), "radial coefficients"),
}


@dataclass(frozen=True)
class KernelConfig:
    """Tagged choice of kernel variant with its hyperparameters."""

    variant: str
    params: MultiplierParams | None = None
    offset: float | None = None
    degree: int | None = None
    bandwidth: float | None = None
    radial: RadialCoeffs | None = None
    curvature: Curvature | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown kernel variant {self.variant!r}")
        if self.variant != "da" and self.params is None:
            raise ConfigError(f"variant {self.variant!r} requires multiplier params")
        if self.variant == "da" and self.params is not None:
            raise ConfigError("the Drury-Arveson kernel takes no multiplier params")
        takes = HYPERPARAMETERS[self.variant]
        for name, (rule, wanted) in _HYPERPARAMETER_RULES.items():
            v = getattr(self, name)
            if name in takes and (v is None or not rule(v)):
                raise ConfigError(f"{self.variant} requires {wanted}")
            if name not in takes and v is not None:
                raise ConfigError(f"variant {self.variant!r} takes no {name}")
        if self.params is not None and self.curvature is not None:
            if self.curvature != self.params.curvature:
                raise ConfigError("curvature disagrees with multiplier params")

    def get_curvature(self) -> Curvature | None:
        if self.params is not None:
            return self.params.curvature
        return self.curvature

    def fingerprint(self) -> str:
        desc = {"variant": self.variant}
        if self.params is not None:
            desc["m"] = self.params.m
            desc["dim"] = self.params.dim
            desc["c"] = self.params.curvature.c
            desc["logits"] = self.params.weight_logits.tolist()
            poles = self.params.poles
            desc["poles"] = np.stack([poles.real, poles.imag], axis=-1).tolist()
        elif self.curvature is not None:
            desc["c"] = self.curvature.c
        if self.offset is not None:
            desc["offset"] = self.offset
        if self.degree is not None:
            desc["degree"] = int(self.degree)
        if self.bandwidth is not None:
            desc["bandwidth"] = self.bandwidth
        if self.radial is not None:
            desc["radial_raw"] = self.radial.raw.tolist()
        blob = json.dumps(desc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @functools.cached_property
    def _derived(self) -> "_Kernel":
        """The constrained parameters as a `_Kernel` (c may be None),
        derived on first use and kept: the config is immutable, and so are
        the arrays.  The poles are a real matrix unless one of them has a
        nonzero imaginary part."""
        curvature = self.get_curvature()
        c = None if curvature is None else float(curvature.c)
        poles = weights = alphas = None
        if self.params is not None:
            poles, = _as_real(self.params.poles)
            weights = self.params.weights
        if self.radial is not None:
            alphas = self.radial.alphas
        for a in (poles, weights, alphas):
            if a is not None:
                a.flags.writeable = False
        return _Kernel(self.variant, c, poles, weights, alphas, self.offset,
                       self.degree, self.bandwidth)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian matrix of kernel values over a point set.

    `entries` is a read-only float64 (or, when complex, complex128) copy
    of the matrix given, `points` a read-only copy of the coordinate
    matrix of the points (complex128 when `gram` got BallPoints).  The
    ids are computed on first access: `config_fingerprint` is the
    config's `fingerprint()`, `point_set_id` a hash of the points'
    complex128 coordinates.
    """

    entries: np.ndarray
    config: KernelConfig
    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        arr = arr.astype(np.result_type(arr, np.float64))   # a copy
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("Gram entries must form a square matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        points = np.array(self.points)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def config_fingerprint(self) -> str:
        return self.config.fingerprint()

    @functools.cached_property
    def point_set_id(self) -> str:
        Z = self.points.astype(np.complex128)
        return hashlib.sha256(Z.tobytes()).hexdigest()[:16]


# Constrained kernel parameters, as arrays or tape nodes; poles is an
# m x dim matrix, or None for the Drury-Arveson kernel.
_Kernel = namedtuple("_Kernel", "variant c poles weights alphas offset degree bandwidth")


def _base(X):
    """Normalised kernel |K_ij|^2 / (k_ii k_jj) of a cross matrix X (see
    `rkhs._dbr`): its block over its border, bordered by ones (a point's
    normalised self-kernel).  One tape node over X."""
    Xv = value(X)
    K = Xv[..., :-1, :-1]
    rows, cols = Xv[..., :-1, -1:].real, Xv[..., -1:, :-1].real
    dd = rows * cols
    G = np.ones(Xv.shape)
    block = np.divide((K * K.conj()).real, dd, out=G[..., :-1, :-1])

    def vjp(g):
        g = g[..., :-1, :-1]
        gX = np.zeros(Xv.shape)
        gX[..., :-1, :-1] = (2.0 * g) * K / dd
        gG = g * block
        gX[..., :-1, -1] = -gG.sum(axis=-1) / rows[..., 0]
        gX[..., -1, :-1] = -gG.sum(axis=-2) / cols[..., 0, :]
        return (gX,)

    return record(G, vjp, X)


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
            # ga[l] = sum(g beta^l), the powers g, g*beta, (g*beta)*beta, ...
            # formed by one product chain over a stack and summed at once.
            powers = np.empty((top + 1,) + bv.shape)
            powers[0] = g
            powers[1:] = bv
            ga = np.multiply.accumulate(powers, axis=0).reshape(top + 1, -1).sum(axis=-1)
        return gb, ga

    return record(out, vjp, beta, alphas)


def _transform(k: _Kernel, X, mode: str = "similarity", strict: bool = False):
    """Variant k.variant of the de Branges-Rovnyak (or Drury-Arveson)
    cross matrix X (see `rkhs._dbr`), as the n x m block of its rows
    against its columns.  "similarity" mode gives kernel values,
    "distance" mode minus the kernel-induced squared distance (for
    ahrbf/ahlap minus the negative log-kernel).  The elementwise layers
    transform the border with the block, so the distance reads each
    point's transformed self-kernel; it is formed only where the variant
    or the mode reads it, and strict is `rkhs._gram_distance`'s.
    """
    variant = k.variant
    if variant in ("da", "ahl", "ahrbf", "ahlap"):
        if mode == "similarity" and variant in ("da", "ahl"):
            return X[..., :-1, :-1]
        dist = _gram_distance(X, strict)
        if variant == "ahrbf":
            dist = dist / (2.0 * k.bandwidth**2)
        elif variant == "ahlap":
            # sqrt has no slope at 0; a nan distance stays nan.
            zero = value(dist) <= 0.0
            dist = where(zero, 0.0, sqrt(where(zero, 1.0, dist))) / k.bandwidth
        return -dist if mode == "distance" else exp(-dist)
    if variant == "ahpoly":
        G = (X + k.offset) ** int(k.degree)
    elif variant in ("base", "ahrad"):
        G = _base(X)
        if variant == "ahrad":
            G = _radial(G, k.alphas)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if mode == "distance":
        return -_gram_distance(G, strict)
    return G[..., :-1, :-1]


def base_kernel(params: MultiplierParams, z_i: BallPoint, z_j: BallPoint) -> float:
    """Squared cosine similarity |k(z_i,z_j)|^2 / (k(z_i,z_i) k(z_j,z_j)).

    Bounded in [0, 1] by Cauchy-Schwarz; equals 1 on the diagonal.
    """
    return float(_base(_bordered(_dbr(*_rows(params, *_stacked([z_i, z_j])))))[0, 1])


def ahrad(config: KernelConfig, z_i: BallPoint, z_j: BallPoint) -> float:
    """Truncated radial series sum_{l=0}^K alpha_l * base(z_i,z_j)^l."""
    if config.variant != "ahrad":
        raise ConfigError("ahrad evaluation requires an ahrad config")
    return evaluate(config, z_i, z_j).real


def _config_rows(config: KernelConfig, Z: np.ndarray, curvature: Curvature):
    """`rkhs._rows` of a checked coordinate matrix at a curvature, which
    must be the config's when it sets one (ConfigError otherwise)."""
    kc = config.get_curvature()
    if kc is not None and kc != curvature:
        raise ConfigError("points do not match the configured curvature")
    return _rows(config.params, Z, curvature)


def evaluate(config: KernelConfig, z_i: BallPoint, z_j: BallPoint) -> complex:
    """Evaluate the configured kernel at a pair of ball points."""
    K = _bordered(_dbr(*_config_rows(config, *_stacked([z_i, z_j]))))
    return complex(_transform(config._derived, K, strict=True)[0, 1])


def gram(config: KernelConfig, points: list[BallPoint] | np.ndarray) -> GramMatrix:
    """Assemble the Hermitian Gram matrix G[i][j] = k(z_i, z_j).

    points is a list of BallPoints or an n x dim coordinate matrix, real
    or complex, whose rows lie inside the ball of the config's curvature.
    This is the one place that looks at the form of its input: a matrix
    is checked as `BallPoint` checks a point (`geometry._interior_rows`),
    a list is stacked into its complex128 coordinates (`rkhs._stacked`),
    and the matrix then runs through one core (see `rkhs._rows`).  The
    entries keep the dtype of its arithmetic: float64 when neither the
    points nor the poles have a nonzero imaginary part, complex128
    otherwise (the real-valued families included).  The lower triangle
    holds the conjugates of the upper one, so Hermitian symmetry is
    bit-exact regardless of floating-point non-associativity.
    """
    n = len(points)
    if n < 1:
        raise ConfigError("at least one point is required")
    if n > MAX_GRAM_SIZE:
        raise ConfigError(f"point set of size {n} exceeds the maximum {MAX_GRAM_SIZE}")
    if isinstance(points, np.ndarray):
        curvature = config.get_curvature()
        if curvature is None:
            raise ConfigError("a coordinate matrix needs a config that sets the curvature")
        coords = _interior_rows(points, curvature)
    else:
        coords, curvature = _stacked(points)
    c, Z, B = _config_rows(config, coords, curvature)
    K = _bordered(_dbr(c, Z, B))
    entries = _transform(config._derived, K, strict=True).astype(Z.dtype, copy=False)
    np.copyto(entries, entries.T.conj(), where=np.tri(n, k=-1, dtype=bool))
    diag = entries.diagonal()
    if np.any(np.abs(diag.imag) > 1e-12) or np.any(diag.real <= 0.0):
        raise ArithmeticError("Gram diagonal must be real and positive")
    entries[np.diag_indices(n)] = diag.real
    return GramMatrix(entries, config, coords)
