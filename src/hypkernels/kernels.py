"""The adaptive hyperbolic kernel family and Gram-matrix assembly.

Variants: "da" (Drury-Arveson), "ahl" (adaptive hyperbolic linear, the
de Branges-Rovnyak kernel itself), "ahpoly", "ahrbf", "ahlap", "base"
(squared cosine similarity of normalized representers) and "ahrad"
(truncated nonnegative power series in the base kernel).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .geometry import BallPoint, Curvature
from .rkhs import MultiplierParams, _distance_sq, _kernel_matrix

VARIANTS = ("da", "ahl", "ahpoly", "ahrbf", "ahlap", "base", "ahrad")

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
        needs_params = self.variant != "da"
        if needs_params and self.params is None:
            raise ConfigError(f"variant {self.variant!r} requires multiplier params")
        if self.variant == "da" and self.params is not None:
            raise ConfigError("the Drury-Arveson kernel takes no multiplier params")
        if self.variant == "ahpoly":
            if self.offset is None or not self.offset > 0:
                raise ConfigError("ahpoly requires a positive offset")
            if self.degree is None or self.degree != int(self.degree) or self.degree < 1:
                # Off-diagonal kernel values are complex; non-integer powers
                # are multivalued and break the Schur-product argument.
                raise ConfigError("ahpoly requires a positive integer degree")
        elif self.offset is not None or self.degree is not None:
            raise ConfigError("offset/degree only apply to ahpoly")
        if self.variant in ("ahrbf", "ahlap"):
            if self.bandwidth is None or not self.bandwidth > 0:
                raise ConfigError(f"{self.variant} requires a positive bandwidth")
        elif self.bandwidth is not None:
            raise ConfigError("bandwidth only applies to ahrbf/ahlap")
        if self.variant == "ahrad":
            if self.radial is None:
                raise ConfigError("ahrad requires radial coefficients")
        elif self.radial is not None:
            raise ConfigError("radial coefficients only apply to ahrad")
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
            desc["poles"] = [
                [[w.real, w.imag] for w in p.coords] for p in self.params.poles
            ]
        elif self.curvature is not None:
            desc["c"] = self.curvature.c
        if self.offset is not None:
            desc["offset"] = self.offset
            desc["degree"] = int(self.degree)
        if self.bandwidth is not None:
            desc["bandwidth"] = self.bandwidth
        if self.radial is not None:
            desc["radial_raw"] = self.radial.raw.tolist()
        blob = json.dumps(desc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of kernel values over a point set."""

    entries: np.ndarray
    config_fingerprint: str
    point_set_id: str

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("Gram entries must form a square matrix")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _base(K: np.ndarray) -> np.ndarray:
    diag = K.diagonal().real
    return np.abs(K) ** 2 / np.outer(diag, diag)


def _family(config: KernelConfig, K: np.ndarray) -> np.ndarray:
    """Turn the de Branges-Rovnyak (or Drury-Arveson) matrix K into the variant."""
    variant = config.variant
    if variant in ("da", "ahl"):
        return K
    if variant == "ahpoly":
        return (K + config.offset) ** int(config.degree)
    if variant == "ahrbf":
        return np.exp(-_distance_sq(K) / (2.0 * config.bandwidth**2))
    if variant == "ahlap":
        return np.exp(-np.sqrt(_distance_sq(K)) / config.bandwidth)
    beta = _base(K)
    if variant == "base":
        return beta
    total = np.zeros_like(beta)
    for alpha in config.radial.alphas[::-1]:
        total = total * beta + alpha
    return total


def base_kernel(params: MultiplierParams, z_i: BallPoint, z_j: BallPoint) -> float:
    """Squared cosine similarity |k(z_i,z_j)|^2 / (k(z_i,z_i) k(z_j,z_j)).

    Bounded in [0, 1] by Cauchy-Schwarz; equals 1 on the diagonal.
    """
    return float(_base(_kernel_matrix(params, [z_i, z_j]))[0, 1])


def ahrad(config: KernelConfig, z_i: BallPoint, z_j: BallPoint) -> float:
    """Truncated radial series sum_{l=0}^K alpha_l * base(z_i,z_j)^l."""
    if config.variant != "ahrad":
        raise ConfigError("ahrad evaluation requires an ahrad config")
    return evaluate(config, z_i, z_j).real


def evaluate(config: KernelConfig, z_i: BallPoint, z_j: BallPoint) -> complex:
    """Evaluate the configured kernel at a pair of ball points."""
    return complex(_family(config, _kernel_matrix(config.params, [z_i, z_j]))[0, 1])


def gram(config: KernelConfig, points: list[BallPoint]) -> GramMatrix:
    """Assemble the Hermitian Gram matrix G[i][j] = k(z_i, z_j).

    The lower triangle is overwritten with the conjugates of the upper
    one, so Hermitian symmetry is bit-exact regardless of floating-point
    non-associativity.
    """
    n = len(points)
    if n < 1:
        raise ConfigError("at least one point is required")
    if n > MAX_GRAM_SIZE:
        raise ConfigError(f"point set of size {n} exceeds the maximum {MAX_GRAM_SIZE}")
    kc = config.get_curvature()
    if kc is not None and kc != points[0].curvature:
        raise ConfigError("points do not match the configured curvature")
    K = _kernel_matrix(config.params, points)
    entries = _family(config, K).astype(np.complex128)
    lower = np.tril_indices(n, -1)
    entries[lower] = entries.T[lower].conj()
    diag = entries.diagonal()
    if np.any(np.abs(diag.imag) > 1e-12) or np.any(diag.real <= 0.0):
        raise ArithmeticError("Gram diagonal must be real and positive")
    entries[np.diag_indices(n)] = diag.real
    blob = np.ascontiguousarray(np.stack([p.coords for p in points])).tobytes()
    point_set_id = hashlib.sha256(blob).hexdigest()[:16]
    return GramMatrix(entries, config.fingerprint(), point_set_id)
