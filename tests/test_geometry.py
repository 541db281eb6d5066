import numpy as np
import pytest

from hpfd import HPScalar
from hypkernels import _gmath as gm
from hypkernels.geometry import (
    TANH_MAX,
    BallPoint,
    Curvature,
    DimensionMismatch,
    GeometryError,
    TangentVector,
    _clip,
    _exp0,
    _interior_rows,
    clip_project,
    conformal_factor,
    exp0,
    geodesic_distance,
    mobius_decompose,
    mobius_map,
    pseudo_distance,
    pseudo_distance_closed_form,
)
from hypkernels.learning import Projection

C1 = Curvature(1.0)


def pt(coords, c=C1):
    return BallPoint(np.asarray(coords, dtype=np.complex128), c)


class TestCurvature:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(GeometryError):
            Curvature(bad)

    def test_radius(self):
        assert Curvature(4.0).radius == 0.5


class TestBallPoint:
    def test_rejects_boundary(self):
        with pytest.raises(GeometryError):
            pt([1.0, 0.0])

    def test_rejects_near_boundary_margin(self):
        # Norm within 1e-9 of the boundary is rejected at construction.
        with pytest.raises(GeometryError):
            pt([1.0 - 5e-10])

    def test_rejects_nonfinite(self):
        with pytest.raises(GeometryError):
            pt([np.nan, 0.0])

    def test_accepts_interior(self):
        p = pt([0.3, 0.4j])
        assert p.dim == 2
        assert p.norm == pytest.approx(0.5)

    def test_coords_immutable(self):
        p = pt([0.1, 0.2])
        with pytest.raises(ValueError):
            p.coords[0] = 0.0

    def test_negation(self):
        p = pt([0.3, -0.1j])
        np.testing.assert_allclose((-p).coords, -p.coords)

    def test_radius_scales_with_curvature(self):
        # ||z|| = 0.9 is valid at c = 1 but outside the ball at c = 2.
        pt([0.9])
        with pytest.raises(GeometryError):
            pt([0.9], Curvature(2.0))


class TestConformalFactor:
    def test_origin(self):
        assert conformal_factor(pt([0.0, 0.0])) == 1.0

    def test_half_radius(self):
        # 1/(1 - 0.25) at ||z|| = 0.5, c = 1.
        assert conformal_factor(pt([0.5])) == pytest.approx(4.0 / 3.0, rel=1e-15)


class TestExp0:
    def test_zero_vector(self):
        p = exp0(TangentVector(np.zeros(3)), C1)
        assert p.norm == 0.0

    def test_unit_vector(self):
        p = exp0(TangentVector(np.array([1.0, 0.0])), C1)
        assert p.coords[0].real == pytest.approx(np.tanh(1.0), rel=1e-15)
        assert p.coords[1] == 0.0

    def test_large_vector_stays_interior(self):
        p = exp0(TangentVector(np.full(4, 1e6)), C1)
        assert p.norm < 1.0

    def test_direction_preserved(self):
        v = np.array([3.0, 4.0])
        p = exp0(TangentVector(v), Curvature(0.5))
        np.testing.assert_allclose(
            p.coords.real / np.linalg.norm(p.coords), v / np.linalg.norm(v),
            atol=1e-15,
        )

    def test_curvature_scaling(self):
        # sqrt(c)*||exp0(v)|| = tanh(sqrt(c)*||v||).
        c = Curvature(2.5)
        p = exp0(TangentVector(np.array([0.4, -0.3])), c)
        assert np.sqrt(c.c) * p.norm == pytest.approx(
            np.tanh(np.sqrt(c.c) * 0.5), rel=1e-15
        )


class TestClipProject:
    def test_inside_untouched_up_to_beta(self):
        p = clip_project(np.array([0.1, 0.0]), C1, 0.9, 0.1)
        assert p.coords[0].real == pytest.approx(0.09, rel=1e-15)

    def test_outside_clipped_to_shell(self):
        p = clip_project(np.array([5.0, 0.0]), C1, 0.9, 0.1)
        assert p.norm == pytest.approx(0.9 * 0.9, rel=1e-15)

    def test_zero_vector(self):
        assert clip_project(np.zeros(2), C1, 0.9, 0.1).norm == 0.0

    @pytest.mark.parametrize(
        "beta,eps", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, 1.0), (2.0, 0.1)]
    )
    def test_invalid_parameters(self, beta, eps):
        with pytest.raises(GeometryError):
            clip_project(np.array([0.1]), C1, beta, eps)


def _bits(points):
    return np.stack([p.coords for p in points]).view(np.uint64)


def _row_bits(Y):
    """The bits of a real matrix of projected rows as BallPoint coords."""
    return Y.astype(np.complex128).view(np.uint64)


def _rows(rng, n, dim):
    """Rows whose norms span 1e-160 (the series branch of exp0) to 1e150
    (past the tanh clamp), with exact zero and signed-zero rows."""
    X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-160, 150, (n, 1))
    X[0] = 0.0
    X[1] = -0.0
    X[2, 0] = -0.0
    X[3] *= 1e-300
    return X


def _clip_rows(rng, n, dim, c, eps):
    """`_rows` with rows a few ulps either side of the clip threshold."""
    X = _rows(rng, n, dim)
    shell = (1.0 - eps) / np.sqrt(c)
    for k, steps in enumerate(range(-6, 7), start=4):
        u = rng.standard_normal(dim)
        X[k] = u * (shell / np.linalg.norm(u)) * (1.0 + steps * 2.0**-52)
    return X


# Worst relative error of a projected coordinate against the 60-digit map.
PROJECTION_RTOL = 4e-15


class TestBatchedProjection:
    """The one projection layer (`geometry._exp0`, `geometry._clip`) on
    the rows of a matrix, against the 60-digit scalar maps of `_gmath`
    (the exp0 reference with its tanh clamped at TANH_MAX), and the point
    that `exp0` / `clip_project` makes of one row against the same row of
    a batch, bit for bit."""

    @staticmethod
    def _assert_near_60_digits(got, X, reference, c):
        for row, x in zip(got, X):
            ref = reference([HPScalar(v) for v in x], HPScalar(c))
            r = HPScalar(c).sqrt() * gm.norm_sq(ref).sqrt()
            if float(r) > TANH_MAX:
                ref = [v * (TANH_MAX / r) for v in ref]
            # a subnormal coordinate is exact to half its spacing, 2^-1075
            err = [float(abs((HPScalar(g) - v).v) - 2.0**-1075) / abs(float(v))
                   for g, v in zip(row, ref) if float(v)]
            assert max(err, default=0.0) <= PROJECTION_RTOL, x
            assert [g == 0.0 for g in row] == [float(v) == 0.0 for v in ref]

    @pytest.mark.parametrize("c", [0.02, 1.0, 2.5])
    def test_exp0_rows_match_60_digits(self, c):
        rng = np.random.default_rng(int(c * 100))
        for dim in range(1, 41, 5):
            X = _rows(rng, 40, dim)
            self._assert_near_60_digits(_exp0(X, c), X, gm.exp0, c)

    @pytest.mark.parametrize("c", [0.02, 1.0, 2.5])
    @pytest.mark.parametrize("beta,eps", [(0.9, 0.1), (1.0, 1e-3), (0.5, 0.6)])
    def test_clip_project_rows_match_60_digits(self, c, beta, eps):
        rng = np.random.default_rng(int(c * 100))
        for dim in range(1, 41, 5):
            X = _clip_rows(rng, 40, dim, c, eps)
            self._assert_near_60_digits(
                _clip(X, c, beta, eps), X,
                lambda x, c: gm.clip_project(x, c, beta, eps), c)

    @pytest.mark.parametrize("c", [0.02, 1.0, 2.5])
    def test_exp0_rows_bit_identical(self, c):
        rng = np.random.default_rng(int(c * 100))
        curvature = Curvature(c)
        for dim in range(1, 41):
            X = _rows(rng, 40, dim)
            alone = [exp0(TangentVector(row), curvature) for row in X]
            assert np.array_equal(_row_bits(_exp0(X, c)), _bits(alone)), dim

    @pytest.mark.parametrize("c", [0.02, 1.0, 2.5])
    @pytest.mark.parametrize("beta,eps", [(0.9, 0.1), (1.0, 1e-3), (0.5, 0.6)])
    def test_clip_project_rows_bit_identical(self, c, beta, eps):
        rng = np.random.default_rng(int(c * 100))
        curvature = Curvature(c)
        for dim in range(1, 41):
            X = _clip_rows(rng, 40, dim, c, eps)
            alone = [clip_project(row, curvature, beta, eps) for row in X]
            assert np.array_equal(
                _row_bits(_clip(X, c, beta, eps)), _bits(alone)), dim

    def test_exp0_rows_hit_both_branches_and_the_clamp(self):
        X = np.array([[0.0, 0.0], [1e-151, 0.0], [1e-140, 0.0], [50.0, 0.0]])
        Y = _exp0(X, C1.c)
        assert Y[1, 0] == 1e-151    # series branch: unscaled
        assert np.linalg.norm(Y[3]) == pytest.approx(TANH_MAX, rel=1e-15)

    @pytest.mark.parametrize("c", [0.02, 1.0, 2.5])
    def test_huge_vectors_land_next_to_the_boundary(self, c):
        # |v|^2 overflows (numpy warns of it); the image lies along v next
        # to the boundary, not at the origin.
        v = np.full(4, 1e200)
        with np.errstate(over="ignore"):
            p = exp0(TangentVector(v), Curvature(c))
            q = clip_project(v, Curvature(c), 0.9, 0.1)
        assert p.norm == pytest.approx(TANH_MAX / np.sqrt(c), rel=1e-15)
        assert q.norm == pytest.approx(0.9 * 0.9 / np.sqrt(c), rel=1e-15)
        for point in (p, q):
            np.testing.assert_allclose(point.coords.real / point.norm, 0.5, rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_same_error(self, bad):
        X = np.zeros((3, 2))
        X[2, 1] = bad
        with pytest.raises(GeometryError, match="^tangent vector must be finite$"):
            TangentVector(X[2])
        with pytest.raises(GeometryError, match="^input vector must be finite$"):
            clip_project(X[2], C1, 0.9, 0.1)

    @pytest.mark.parametrize("beta,eps,message", [
        pytest.param(0.0, 0.1, "beta must be positive, got 0.0", id="0.0-0.1"),
        pytest.param(-1.0, 0.1, "beta must be positive, got -1.0", id="-1.0-0.1"),
        pytest.param(np.inf, 0.1, "beta must be positive, got inf", id="inf-0.1"),
        pytest.param(np.nan, 0.1, "beta must be positive, got nan", id="nan-0.1"),
        pytest.param(1.0, 0.0, "eps must lie in (0,1), got 0.0", id="1.0-0.0"),
        pytest.param(1.0, 1.0, "eps must lie in (0,1), got 1.0", id="1.0-1.0"),
        pytest.param(0.5, np.nan, "eps must lie in (0,1), got nan", id="0.5-nan"),
        pytest.param(2.0, 0.1, "beta*(1-eps) = 1.8 >= 1 would allow points on or "
                               "outside the ball boundary", id="2.0-0.1")])
    def test_bad_parameters_same_error(self, beta, eps, message):
        # The single vector and the training projection share one
        # parameter check.
        x = np.array([0.1, 0.2])
        for project in (lambda: clip_project(x, C1, beta, eps),
                        lambda: Projection("clip", beta, eps)):
            with pytest.raises(GeometryError) as got:
                project()
            assert str(got.value) == message

    def test_boundary_rejection_same_error(self):
        # beta*(1-eps) < 1 passes the parameter check, but the clipped
        # points sit inside the construction margin: the point and the
        # matrix of clipped rows meet one margin check.
        beta, eps = 1.0, 1e-12
        X = np.array([[0.1, 0.0], [3.0, 4.0], [5.0, 0.0]])
        with pytest.raises(GeometryError) as want:
            clip_project(X[1], C1, beta, eps)
        with pytest.raises(GeometryError) as got:
            _interior_rows(_clip(X, C1.c, beta, eps), C1)
        assert str(got.value) == str(want.value)
        assert str(want.value).startswith("point too close to the ball boundary")

    def test_rows_are_read_only_points(self):
        X = np.array([[0.1, 0.2], [0.3, -0.4]])
        points = [exp0(TangentVector(X[0]), C1), clip_project(X[1], C1, 0.9, 0.1)]
        for p in points:
            assert p.curvature == C1 and p.coords.dtype == np.complex128
            assert not p.coords.flags.writeable
        X[:] = 9.0
        assert points[1].coords[0].real == 0.9 * 0.3


class TestMobius:
    def test_decompose_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = pt(0.5 * rng.uniform(0, 1) * _unit(rng, 3))
            z = pt(0.8 * rng.uniform(0, 1) * _unit(rng, 3))
            P, Q, s = mobius_decompose(a, z)
            np.testing.assert_allclose(P + Q, z.coords, atol=1e-14)
            assert abs(np.vdot(a.coords, Q)) < 1e-14
            assert s == pytest.approx(np.sqrt(1.0 - a.norm**2), rel=1e-15)

    def test_known_value_1d(self):
        # phi_0.5(0.2) = (0.5 - 0.2*1 - ... ) / (1 - 0.1):
        # P = 0.2, Q = 0, s irrelevant => (0.5-0.2)/0.9 = 1/3.
        v = mobius_map(pt([0.5]), pt([0.2]))
        assert v.coords[0].real == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_at_zero_pole_is_negation(self):
        z = pt([0.3, -0.2])
        v = mobius_map(pt([0.0, 0.0]), z)
        np.testing.assert_allclose(v.coords, -z.coords, atol=1e-15)

    def test_maps_pole_to_origin(self):
        a = pt([0.4, 0.1j])
        assert mobius_map(a, a).norm < 1e-15

    def test_maps_origin_to_pole(self):
        a = pt([0.4, 0.1j])
        np.testing.assert_allclose(
            mobius_map(a, pt([0.0, 0.0])).coords, a.coords, atol=1e-15
        )

    def test_involution(self):
        a = pt([0.3, -0.2])
        z = pt([0.1, 0.5])
        np.testing.assert_allclose(
            mobius_map(a, mobius_map(a, z)).coords, z.coords, atol=1e-14
        )

    def test_curvature_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mobius_map(pt([0.1]), pt([0.1], Curvature(2.0)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mobius_map(pt([0.1]), pt([0.1, 0.2]))


class TestDistances:
    def test_pseudo_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for c in (0.25, 1.0, 2.5):
            curv = Curvature(c)
            r = 0.9 / np.sqrt(c)
            for _ in range(50):
                z_i = pt(r * rng.uniform(0, 1) * _unit(rng, 3), curv)
                z_j = pt(r * rng.uniform(0, 1) * _unit(rng, 3), curv)
                assert pseudo_distance(z_i, z_j) == pytest.approx(
                    pseudo_distance_closed_form(z_i, z_j), abs=1e-12
                )

    def test_pseudo_range(self):
        assert pseudo_distance(pt([0.5]), pt([0.5])) == 0.0
        assert 0.0 < pseudo_distance(pt([0.5]), pt([-0.5])) < 1.0

    def test_geodesic_known_value(self):
        # Origin to (r, 0): rho = r, d = 2*artanh(r) at c = 1.
        d = geodesic_distance(pt([0.0, 0.0]), pt([0.6, 0.0]))
        assert d == pytest.approx(2.0 * np.arctanh(0.6), rel=1e-12)

    def test_geodesic_symmetry(self):
        z_i, z_j = pt([0.2, 0.3]), pt([-0.4, 0.1])
        assert geodesic_distance(z_i, z_j) == pytest.approx(
            geodesic_distance(z_j, z_i), rel=1e-14
        )


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
