"""
A tour of the Poincare ball and the adaptive kernel family
==========================================================

Walks through the geometric primitives (Mobius self-maps, hyperbolic
distances), builds the learnable multiplier, and shows that every kernel
in the family produces a positive semidefinite Gram matrix.
"""

import numpy as np

from hypkernels import (
    BallPoint,
    Curvature,
    KernelConfig,
    MultiplierParams,
    RadialCoeffs,
    TangentVector,
    base_kernel,
    dbr_kernel,
    exp0,
    geodesic_distance,
    gram,
    mobius_map,
    multiplier_b,
    pseudo_distance,
)
from hypkernels.checks import psd_report, random_multiplier, sample_ball_points

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# The ball and its self-maps
# ---------------------------------------------------------------------------
# Work at curvature -c with c = 1: the unit ball.  Points are complex
# vectors; real features embed with zero imaginary part.

c1 = Curvature(1.0)
a = BallPoint(np.array([0.4, 0.1j]), c1)
z = BallPoint(np.array([-0.2, 0.3]), c1)

print("Mobius self-map phi_a:")
print("  phi_a(a) =", mobius_map(a, a).coords, " (pole goes to the origin)")
print("  phi_a(0) =", mobius_map(a, BallPoint(np.zeros(2), c1)).coords)
print("  phi_a(phi_a(z)) - z =",
      np.abs(mobius_map(a, mobius_map(a, z)).coords - z.coords).max(),
      " (involution)")

# Distances: the pseudo-hyperbolic distance rho lives in [0, 1); the
# geodesic distance blows up logarithmically as points approach the rim.
print("\nDistances between a and z:")
print("  rho      =", pseudo_distance(a, z))
print("  geodesic =", geodesic_distance(a, z))

near_rim = exp0(TangentVector(np.array([8.0, 0.0])), c1)
print("  geodesic from origin to exp0(8 e_1) =",
      geodesic_distance(BallPoint(np.zeros(2), c1), near_rim))

# ---------------------------------------------------------------------------
# The learnable multiplier
# ---------------------------------------------------------------------------
# b(z) averages phi_{a_i}(z) with phi_{-a_i}(z) per pole, then mixes the
# poles with softmax weights.  The symmetrization pins b(0) = 0 and makes
# b odd, which keeps the induced kernel positive definite.  The poles are
# the rows of one m x dim matrix, here the point a and one more pole.

params = MultiplierParams(np.stack([a.coords, [0.1, -0.3]]),
                          np.array([0.5, -0.5]), c1)
origin = BallPoint(np.zeros(2), c1)
print("\nMultiplier symmetries:")
print("  b(0)         =", multiplier_b(params, origin).coords)
print("  b(z) + b(-z) =",
      np.abs(multiplier_b(params, z).coords
             + multiplier_b(params, -z).coords).max())

# The kernel divides out the Drury-Arveson denominator:
print("  k_b(z, z) =", dbr_kernel(params, z, z).real)

# ---------------------------------------------------------------------------
# The kernel family is uniformly positive semidefinite
# ---------------------------------------------------------------------------
# Squared-cosine normalization gives the base kernel in [0, 1]; powers and
# nonnegative series of it stay PSD, as do the exponential transforms of
# the induced RKHS distance.

points = sample_ball_points(rng, 24, 2, c1)
learned = random_multiplier(rng, 3, 2, c1)
radial = RadialCoeffs(rng.uniform(0.1, 1.0, 21))

print("\nbase kernel diagonal:",
      base_kernel(learned, points[0], points[0]),
      " off-diagonal sample:", base_kernel(learned, points[0], points[1]))

for config in (
    KernelConfig("ahl", params=learned),
    KernelConfig("ahpoly", params=learned, offset=1.0, degree=3),
    KernelConfig("ahrbf", params=learned, bandwidth=1.0),
    KernelConfig("ahlap", params=learned, bandwidth=1.0),
    KernelConfig("ahrad", params=learned, radial=radial),
):
    rep = psd_report(gram(config, points))
    print(f"  {config.variant:7s} min eig {rep.min_eig: .3e}  "
          f"max eig {rep.max_eig: .3e}  -> {rep.verdict}")
