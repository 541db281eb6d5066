"""Numerical validation suites: PSD certification, isometry, identity sweeps.

All randomness flows from explicit seeds so every report is reproducible.
Reports serialize to plain dicts and round-trip losslessly through JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    BallPoint,
    Curvature,
    GeometryError,
    _interior_rows,
    _unchecked_point,
    mobius_map,
    pseudo_distance,
)
from .kernels import MAX_GRAM_SIZE, GramMatrix, KernelConfig, gram
from .rkhs import (
    MultiplierParams,
    da_kernel,
    dbr_kernel,
    multiplier_b,
    pointwise_contraction_check,
)

DEFAULT_PSD_TOL = 1e-8


@dataclass(frozen=True)
class PsdReport:
    """Spectral certificate for positive semidefiniteness of a Gram matrix."""

    n: int
    min_eig: float
    max_eig: float
    tolerance: float
    verdict: str
    seed: int | None = None

    def to_record(self) -> dict:
        return {"kind": "psd", **asdict(self)}

    @staticmethod
    def from_record(rec: dict) -> "PsdReport":
        rec = dict(rec)
        rec.pop("kind", None)
        return PsdReport(**rec)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class SweepReport:
    """Aggregate of a randomized identity/isometry sweep."""

    name: str
    trials: int
    max_abs_error: float
    tolerance: float
    worst_case_inputs: str
    verdict: str
    seed: int | None = None

    def to_record(self) -> dict:
        return {"kind": "sweep", **asdict(self)}

    @staticmethod
    def from_record(rec: dict) -> "SweepReport":
        rec = dict(rec)
        rec.pop("kind", None)
        return SweepReport(**rec)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def sample_ball_coords(
    rng: np.random.Generator,
    count: int,
    dim: int,
    curvature: Curvature,
    r_max_frac: float = 0.95,
    complex_coords: bool = True,
) -> np.ndarray:
    """Seeded ball sampling: uniform direction, radius u^(1/n) * r_max.

    The radius law covers the ball without concentrating mass at the
    boundary; r_max = r_max_frac / sqrt(c).  The points are the rows of
    one read-only complex128 count x dim matrix (with zero imaginary
    parts without complex_coords), checked once as `BallPoint` checks a
    point.
    """
    if dim < 1:
        raise GeometryError("coords must be a vector of dimension >= 1")
    Z = np.empty((count, dim), dtype=np.complex128)
    r_max = r_max_frac / np.sqrt(curvature.c)
    for row in Z:
        if complex_coords:
            direction = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            direction = rng.standard_normal(dim).astype(np.complex128)
        nrm = np.linalg.norm(direction)
        if nrm == 0.0:
            direction = np.ones(dim, dtype=np.complex128)
            nrm = np.linalg.norm(direction)
        radius = rng.uniform() ** (1.0 / dim) * r_max
        row[:] = radius / nrm * direction
    Z = _interior_rows(Z, curvature)
    Z.flags.writeable = False
    return Z


def sample_ball_points(
    rng: np.random.Generator,
    count: int,
    dim: int,
    curvature: Curvature,
    r_max_frac: float = 0.95,
    complex_coords: bool = True,
) -> list[BallPoint]:
    """The rows of `sample_ball_coords` as BallPoints."""
    Z = sample_ball_coords(rng, count, dim, curvature, r_max_frac, complex_coords)
    return [_unchecked_point(row, curvature) for row in Z]


def random_multiplier(
    rng: np.random.Generator,
    m: int,
    dim: int,
    curvature: Curvature,
    pole_radius_frac: float = 0.7,
    complex_coords: bool = True,
) -> MultiplierParams:
    poles = sample_ball_coords(rng, m, dim, curvature, r_max_frac=pole_radius_frac,
                               complex_coords=complex_coords)
    return MultiplierParams(poles, rng.standard_normal(m), curvature)


def min_max_eigenvalues(G: GramMatrix | np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of a Hermitian matrix via a self-adjoint solve."""
    mat = G.entries if isinstance(G, GramMatrix) else np.asarray(G)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError("expected a non-empty square matrix")
    if mat.shape[0] > MAX_GRAM_SIZE:
        raise ValueError("matrix too large for the eigenvalue certificate")
    # Before the Hermitian test, which nan passes and inf can pass.
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(mat - mat.conj().T).max() > 1e-12:
        raise ValueError("matrix is not Hermitian within 1e-12")
    eigs = np.linalg.eigvalsh(mat)
    return float(eigs[0]), float(eigs[-1])


def psd_report(G: GramMatrix | np.ndarray, tol: float = DEFAULT_PSD_TOL,
               seed: int | None = None) -> PsdReport:
    min_eig, max_eig = min_max_eigenvalues(G)
    mat = G.entries if isinstance(G, GramMatrix) else np.asarray(G)
    threshold = -tol * max(1.0, abs(max_eig))
    verdict = "pass" if min_eig >= threshold else "fail"
    return PsdReport(mat.shape[0], min_eig, max_eig, tol, verdict, seed)


def check_psd(
    config: KernelConfig,
    points: list[BallPoint] | np.ndarray,
    tol: float = DEFAULT_PSD_TOL,
    seed: int | None = None,
) -> PsdReport:
    """Build the Gram matrix and certify min_eig >= -tol*max(1, |max_eig|)."""
    return psd_report(gram(config, points), tol=tol, seed=seed)


def check_isometry(
    curvature: Curvature, dim: int, trials: int, tol: float, seed: int = 0
) -> SweepReport:
    """Compare the da-kernel-induced metric with the pseudo-hyperbolic distance.

    delta = sqrt(1 - |k(z_i,z_j)|^2 / (k(z_i,z_i) k(z_j,z_j))) must equal
    rho(z_i, z_j) on random pairs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_inputs = ""
    for t in range(trials):
        z_i, z_j = sample_ball_points(rng, 2, dim, curvature)
        k_ij = da_kernel(z_i, z_j)
        k_ii = da_kernel(z_i, z_i).real
        k_jj = da_kernel(z_j, z_j).real
        delta = np.sqrt(max(1.0 - abs(k_ij) ** 2 / (k_ii * k_jj), 0.0))
        err = abs(delta - pseudo_distance(z_i, z_j))
        if err > worst:
            worst = err
            worst_inputs = json.dumps(
                {"trial": t, "z_i": _ser(z_i), "z_j": _ser(z_j)}
            )
    verdict = "pass" if worst <= tol else "fail"
    return SweepReport(
        f"isometry_c{curvature.c}_n{dim}", trials, float(worst), tol,
        worst_inputs, verdict, seed,
    )


def _ser(z: BallPoint) -> list:
    return [[w.real, w.imag] for w in z.coords]


def _identity_errors(
    rng: np.random.Generator, dim: int, curvature: Curvature, near_boundary: bool
) -> dict[str, float]:
    c = curvature.c
    a, z_i, z_j = sample_ball_points(rng, 3, dim, curvature, r_max_frac=0.9)
    if near_boundary:
        # Pin the pair to radius 0.999/sqrt(c); conditioning degrades here.
        target = 0.999 / np.sqrt(c)
        z_i = BallPoint(z_i.coords * (target / z_i.norm), curvature)
        z_j = BallPoint(z_j.coords * (target / z_j.norm), curvature)
    params = random_multiplier(rng, int(rng.integers(1, 4)), dim, curvature)
    errors = {}

    # Closed-form single term of the multiplier vs the explicit Mobius average.
    single = MultiplierParams(a.coords[None], np.zeros(1), curvature)
    closed = multiplier_b(single, z_i).coords
    explicit = 0.5 * (mobius_map(a, z_i).coords + mobius_map(-a, z_i).coords)
    errors["mobius_average"] = float(np.abs(closed - explicit).max())

    # Factorization 1 - c*phi_a(z_i)* phi_a(z_j)
    #   = (1-c||a||^2)(1-c z_i*z_j) / ((1-c z_i*a)(1-c a*z_j)).
    phi_i = mobius_map(a, z_i).coords
    phi_j = mobius_map(a, z_j).coords
    lhs = 1.0 - c * np.vdot(phi_i, phi_j)
    rhs = (
        (1.0 - c * a.norm**2)
        * (1.0 - c * np.vdot(z_i.coords, z_j.coords))
        / ((1.0 - c * np.vdot(z_i.coords, a.coords)) * (1.0 - c * np.vdot(a.coords, z_j.coords)))
    )
    errors["factorization"] = float(abs(lhs - rhs) / max(abs(rhs), 1e-30))

    # Multiplier oddness and kernel sign symmetry.
    b_plus = multiplier_b(params, z_i).coords
    b_minus = multiplier_b(params, -z_i).coords
    errors["oddness"] = float(np.abs(b_plus + b_minus).max())
    k_pp = dbr_kernel(params, z_i, z_j)
    k_mm = dbr_kernel(params, -z_i, -z_j)
    errors["sign_symmetry"] = float(abs(k_pp - k_mm))

    # Pointwise contraction: sqrt(c)*||b(z)|| < 1 must always hold.
    errors["contraction"] = 0.0 if pointwise_contraction_check(params, z_i) else 1.0
    return errors


def check_identities(
    trials: int,
    tol: float,
    seed: int = 0,
    curvatures: tuple[float, ...] = (0.25, 1.0, 2.0),
    dims: tuple[int, ...] = (1, 2, 8),
    near_boundary: bool = False,
) -> SweepReport:
    """Randomized sweep over the algebraic identities behind the kernel family."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (curvatures and dims):
        raise ValueError("the grid of curvatures and dims must be non-empty")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_inputs = ""
    for t in range(trials):
        c = Curvature(float(curvatures[t % len(curvatures)]))
        dim = int(dims[(t // len(curvatures)) % len(dims)])
        errors = _identity_errors(rng, dim, c, near_boundary)
        name, err = max(errors.items(), key=lambda kv: kv[1])
        if err > worst:
            worst = err
            worst_inputs = json.dumps(
                {"trial": t, "identity": name, "c": c.c, "dim": dim}
            )
    name = "identities_boundary" if near_boundary else "identities"
    verdict = "pass" if worst <= tol else "fail"
    return SweepReport(name, trials, float(worst), tol, worst_inputs, verdict, seed)
