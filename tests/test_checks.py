import json

import numpy as np
import pytest

import oracle
from hypkernels.checks import (
    PsdReport,
    SweepReport,
    check_identities,
    check_isometry,
    check_psd,
    min_max_eigenvalues,
    psd_report,
    random_multiplier,
    sample_ball_coords,
    sample_ball_points,
)
from hypkernels.geometry import BallPoint, Curvature, GeometryError
from hypkernels.kernels import KernelConfig, RadialCoeffs

C1 = Curvature(1.0)


class TestEigenvalues:
    def test_identity(self):
        lo, hi = min_max_eigenvalues(np.eye(4))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_known_hermitian(self):
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        lo, hi = min_max_eigenvalues(m)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(3.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            min_max_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("mat", [[[np.nan]], [[np.inf]], [[1.0, np.nan], [np.nan, 1.0]]])
    def test_rejects_non_finite(self, mat):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            min_max_eigenvalues(np.array(mat))
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            psd_report(np.array(mat))

    def test_rejects_non_square(self):
        for mat in (np.zeros((2, 3)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="^expected a non-empty square matrix$"):
                min_max_eigenvalues(mat)


class TestPsdReport:
    def test_pass_on_psd(self):
        rep = psd_report(np.eye(3), seed=7)
        assert rep.passed and rep.n == 3 and rep.seed == 7

    def test_fail_on_indefinite(self):
        rep = psd_report(np.diag([1.0, -0.5]))
        assert not rep.passed

    def test_threshold_scales_with_spectral_radius(self):
        # min_eig = -1e-5 passes only because max_eig = 1e4 rescales it.
        rep = psd_report(np.diag([1e4, -1e-5]), tol=1e-8)
        assert rep.passed

    def test_record_round_trip(self):
        rep = psd_report(np.eye(2), seed=1)
        blob = json.dumps(rep.to_record())
        assert PsdReport.from_record(json.loads(blob)) == rep


class TestCheckPsd:
    @pytest.mark.parametrize("variant,extra", [
        ("ahl", {}),
        ("ahpoly", {"offset": 1.0, "degree": 2}),
        ("ahrbf", {"bandwidth": 1.0}),
        ("ahlap", {"bandwidth": 1.0}),
    ])
    def test_variants_pass(self, variant, extra):
        rng = np.random.default_rng(0)
        points = sample_ball_points(rng, 16, 2, C1)
        params = random_multiplier(rng, 2, 2, C1)
        rep = check_psd(KernelConfig(variant, params=params, **extra), points)
        assert rep.passed, rep

    def test_ahrad_passes(self):
        rng = np.random.default_rng(1)
        points = sample_ball_points(rng, 16, 3, Curvature(0.5))
        params = random_multiplier(rng, 3, 3, Curvature(0.5))
        radial = RadialCoeffs(rng.uniform(0.1, 1.0, 11))
        rep = check_psd(KernelConfig("ahrad", params=params, radial=radial), points)
        assert rep.passed, rep


class TestSampling:
    @pytest.mark.parametrize("complex_coords", [True, False])
    @pytest.mark.parametrize("count,dim,c,frac", [(1, 1, 1.0, 0.95), (7, 3, 0.25, 0.7),
                                                  (32, 8, 2.0, 0.9)])
    def test_coords_draw_what_the_per_point_sampler_drew(self, count, dim, c, frac,
                                                         complex_coords):
        curvature = Curvature(c)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        Z = sample_ball_coords(rng, count, dim, curvature, frac, complex_coords)
        ref = oracle.sample_ball_points(ref_rng, count, dim, curvature, frac, complex_coords)
        assert Z.dtype == np.complex128 and Z.shape == (count, dim)
        assert not Z.flags.writeable
        assert Z.tobytes() == np.stack([p.coords for p in ref]).tobytes()
        # The same draws in the same order leave the streams in step.
        assert rng.uniform() == ref_rng.uniform()

    def test_points_are_the_rows_of_the_coords(self):
        points = sample_ball_points(np.random.default_rng(4), 5, 3, C1, complex_coords=False)
        Z = sample_ball_coords(np.random.default_rng(4), 5, 3, C1, complex_coords=False)
        for p, z in zip(points, Z):
            assert not p.coords.flags.writeable
            assert p.coords.tobytes() == z.tobytes()

    def test_multiplier_poles_are_sampled_coords(self):
        params = random_multiplier(np.random.default_rng(6), 3, 4, C1)
        rng = np.random.default_rng(6)
        poles = sample_ball_coords(rng, 3, 4, C1, r_max_frac=0.7)
        assert params.poles.tobytes() == poles.tobytes()
        assert params.weight_logits.tobytes() == rng.standard_normal(3).tobytes()

    def test_psd_on_coords_matches_points(self):
        rng = np.random.default_rng(8)
        Z = sample_ball_coords(rng, 16, 2, C1)
        params = random_multiplier(rng, 2, 2, C1)
        points = [BallPoint(z, C1) for z in Z]
        for extra in ({}, {"bandwidth": 1.0}):
            config = KernelConfig("ahrbf" if extra else "ahl", params=params, **extra)
            assert check_psd(config, Z) == check_psd(config, points)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: sample_ball_coords(np.random.default_rng(0), 2, 0, C1),
                 GeometryError, "coords must be a vector of dimension >= 1", id="coords"),
    pytest.param(lambda: sample_ball_points(np.random.default_rng(0), 2, -1, C1),
                 GeometryError, "coords must be a vector of dimension >= 1", id="points"),
    pytest.param(lambda: random_multiplier(np.random.default_rng(0), 2, 0, C1),
                 GeometryError, "coords must be a vector of dimension >= 1", id="multiplier"),
    pytest.param(lambda: check_isometry(C1, 0, 3, 1e-10),
                 GeometryError, "coords must be a vector of dimension >= 1", id="isometry"),
    pytest.param(lambda: check_identities(3, 1e-11, dims=(0,)),
                 GeometryError, "coords must be a vector of dimension >= 1",
                 id="identities-dim-0"),
    pytest.param(lambda: check_identities(3, 1e-11, curvatures=()),
                 ValueError, "the grid of curvatures and dims must be non-empty",
                 id="identities-no-curvatures"),
    pytest.param(lambda: check_identities(3, 1e-11, dims=()),
                 ValueError, "the grid of curvatures and dims must be non-empty",
                 id="identities-no-dims"),
])
def test_samplers_reject_an_empty_dimension(call, error, message):
    # Each of these divided by zero: 1/dim in the radius law, or the
    # index into an empty grid.
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message


class TestIsometry:
    def test_sweep_passes(self):
        rep = check_isometry(C1, 3, 200, 1e-10, seed=0)
        assert rep.passed
        assert rep.max_abs_error < 1e-12

    def test_tight_tolerance_fails(self):
        rep = check_isometry(C1, 3, 200, 0.0, seed=0)
        assert not rep.passed

    def test_worst_case_recorded(self):
        rep = check_isometry(C1, 2, 50, 1e-10, seed=3)
        worst = json.loads(rep.worst_case_inputs)
        assert {"trial", "z_i", "z_j"} <= set(worst)

    def test_record_round_trip(self):
        rep = check_isometry(C1, 2, 20, 1e-10, seed=0)
        blob = json.dumps(rep.to_record())
        assert SweepReport.from_record(json.loads(blob)) == rep


class TestIdentities:
    def test_sweep_passes(self):
        rep = check_identities(300, 1e-11, seed=0)
        assert rep.passed
        assert rep.max_abs_error < 1e-12

    def test_near_boundary_passes_relaxed(self):
        rep = check_identities(150, 1e-8, seed=0, near_boundary=True)
        assert rep.passed

    def test_deterministic(self):
        a = check_identities(100, 1e-11, seed=5)
        b = check_identities(100, 1e-11, seed=5)
        assert a == b
