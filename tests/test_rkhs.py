import json

import numpy as np
import pytest

from hypkernels.checks import random_multiplier
from hypkernels.cli import _params_to_json
from hypkernels.diff import ParamVector, materialize
from hypkernels.geometry import BallPoint, Curvature, DimensionMismatch, GeometryError, mobius_map
from hypkernels.kernels import KernelConfig
from hypkernels.rkhs import (
    MultiplierParams,
    _rows,
    _stacked,
    da_kernel,
    dbr_kernel,
    multiplier_b,
    pointwise_contraction_check,
    rkhs_distance_sq,
    softmax,
)

C1 = Curvature(1.0)


def pt(coords, c=C1):
    return BallPoint(np.asarray(coords, dtype=np.complex128), c)


def params_1d(pole, logit=0.0, c=C1):
    return MultiplierParams([[pole]], np.array([logit]), c)


class TestSoftmax:
    def test_simplex(self):
        w = softmax(np.array([1.0, -2.0, 0.5]))
        assert w.sum() == pytest.approx(1.0, rel=1e-15)
        assert np.all(w > 0)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-13)

    def test_large_logits_stable(self):
        w = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(w).all()


class TestMultiplierParams:
    def test_weights_sum_to_one(self):
        p = MultiplierParams([[0.1], [0.2]], np.array([0.5, -0.5]), C1)
        assert p.weights.sum() == pytest.approx(1.0)
        assert p.m == 2 and p.dim == 1

    def test_requires_pole(self):
        with pytest.raises(ValueError):
            MultiplierParams(np.zeros((0, 1)), np.array([]), C1)

    def test_logit_shape_checked(self):
        with pytest.raises(ValueError):
            MultiplierParams([[0.1]], np.array([0.0, 1.0]), C1)

    @pytest.mark.parametrize("row,message", [
        ([0.1, np.nan], "coords must be finite"),
        ([0.1, np.inf * 1j], "coords must be finite"),
        ([0.6, 0.8], "too close to the ball boundary"),
    ])
    def test_poles_checked_as_points(self, row, message):
        # The pole matrix gets the messages BallPoint gives each point.
        with pytest.raises(GeometryError, match=message):
            BallPoint(np.array(row), C1)
        with pytest.raises(GeometryError, match=message):
            MultiplierParams([[0.1, 0.2], row], np.zeros(2), C1)

    @pytest.mark.parametrize("poles", [[0.1, 0.2], [[[0.1]]], np.zeros((1, 0))])
    def test_poles_must_be_a_matrix(self, poles):
        with pytest.raises(GeometryError, match="dimension >= 1"):
            MultiplierParams(poles, np.zeros(1), C1)

    def test_pole_matrix_read_only_copy(self):
        rows = np.array([[0.1, 0.2], [0.3, -0.1]])
        p = MultiplierParams(rows, np.zeros(2), C1)
        rows[0, 0] = 0.5
        assert p.poles[0, 0] == 0.1 and not p.poles.flags.writeable
        assert p.poles.dtype == np.float64
        assert (p.m, p.dim) == (2, 2)
        q = MultiplierParams([[0.1, 0.2j]], np.zeros(1), C1)
        assert q.poles.dtype == np.complex128

    @pytest.mark.parametrize("as_points", [True, False], ids=["ball-points", "matrix"])
    def test_rows_checked_against_params(self, as_points):
        # Points as a stacked BallPoint list and as a matrix meet one check.
        p = MultiplierParams([[0.1, 0.2]], np.zeros(1), C1)

        def rows(c, dim):
            Z = np.full((2, dim), 0.1)
            if as_points:
                return _rows(p, *_stacked([BallPoint(z, c) for z in Z]))
            return _rows(p, Z, c)

        with pytest.raises(DimensionMismatch, match="dimension mismatch: 2 vs 3"):
            rows(C1, 3)
        with pytest.raises(DimensionMismatch, match="curvature mismatch: 1.0 vs 2.0"):
            rows(Curvature(2.0), 2)


class TestPinnedBytes:
    """Fingerprints and the `derived.poles` of a params file, recorded
    when the poles were a tuple of BallPoints: the pole matrix keeps them."""

    RAWS = ParamVector(np.array([[0.3, -1.2, 0.05], [2.5, 0.0, -0.7]]),
                       np.array([0.1, -0.4]), np.array([0.5, 0.25, -0.125]),
                       fixed_c=0.7)

    def test_fingerprint_of_real_poles(self):
        params, radial, _ = materialize(self.RAWS)
        config = KernelConfig("ahrad", params=params, radial=radial)
        assert config.fingerprint() == "62661ceedf207c1c"

    def test_fingerprint_of_complex_poles(self):
        params = random_multiplier(np.random.default_rng(11), 3, 4, Curvature(0.5))
        assert KernelConfig("ahl", params=params).fingerprint() == "462425863ca0f947"

    def test_derived_poles(self):
        assert json.dumps(_params_to_json(self.RAWS)["derived"]["poles"]) == (
            "[[[0.22482519739967735, 0.0], [-0.8993007895987094, 0.0], "
            "[0.03747086623327956, 0.0]], [[1.1214615426194032, 0.0], [0.0, 0.0], "
            "[-0.3140092319334329, 0.0]]]")


class TestDaKernel:
    def test_origin(self):
        assert da_kernel(pt([0.0]), pt([0.0])) == 1.0

    def test_diagonal_real_positive(self):
        z = pt([0.3, 0.4j])
        v = da_kernel(z, z)
        assert v.imag == 0.0 and v.real > 1.0

    def test_hermitian(self):
        z_i, z_j = pt([0.2, 0.1j]), pt([-0.3, 0.2])
        assert da_kernel(z_i, z_j) == pytest.approx(np.conj(da_kernel(z_j, z_i)))

    def test_known_value(self):
        # 1/(1 - 0.5*0.2) = 1/0.9.
        assert da_kernel(pt([0.5]), pt([0.2])).real == pytest.approx(
            1.0 / 0.9, rel=1e-15
        )


class TestMultiplierB:
    def test_vanishes_at_origin(self):
        p = MultiplierParams([[0.3, 0.1], [-0.2, 0.4]], np.array([0.2, -0.1]), C1)
        assert multiplier_b(p, pt([0.0, 0.0])).norm < 1e-15

    def test_known_value_1d(self):
        # Single pole a = 0.5 at z = 0.2: the symmetrized average
        # (phi_a(z) + phi_{-a}(z))/2 = (1/3 - 7/11)/2 = -5/33.
        b = multiplier_b(params_1d(0.5), pt([0.2]))
        assert b.coords[0].real == pytest.approx(-5.0 / 33.0, rel=1e-14)

    def test_matches_explicit_average(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = pt(0.5 * _unit(rng, 2) * rng.uniform(0, 1))
            z = pt(0.8 * _unit(rng, 2) * rng.uniform(0, 1))
            b = multiplier_b(MultiplierParams(a.coords[None], np.zeros(1), C1), z)
            avg = 0.5 * (mobius_map(a, z).coords + mobius_map(-a, z).coords)
            np.testing.assert_allclose(b.coords, avg, atol=1e-14)

    def test_odd(self):
        p = MultiplierParams([[0.3, 0.1j]], np.zeros(1), C1)
        z = pt([0.2, -0.4])
        np.testing.assert_allclose(
            multiplier_b(p, -z).coords, -multiplier_b(p, z).coords, atol=1e-15
        )

    def test_zero_pole_is_negation(self):
        z = pt([0.25, -0.3])
        b = multiplier_b(MultiplierParams([[0.0, 0.0]], np.zeros(1), C1), z)
        np.testing.assert_allclose(b.coords, -z.coords, atol=1e-15)

    def test_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = MultiplierParams(
                [0.6 * _unit(rng, 3) * rng.uniform(0, 1),
                 0.6 * _unit(rng, 3) * rng.uniform(0, 1)],
                rng.standard_normal(2), C1,
            )
            z = pt(0.9 * _unit(rng, 3) * rng.uniform(0, 1))
            assert pointwise_contraction_check(p, z)


class TestDbrKernel:
    def test_diagonal_known_value(self):
        # Pole 0.5, z = 0.2: b = -5/33, k = (1 - 25/1089)/(1 - 0.04).
        v = dbr_kernel(params_1d(0.5), pt([0.2]), pt([0.2]))
        expected = (1.0 - (5.0 / 33.0) ** 2) / 0.96
        assert v.real == pytest.approx(expected, rel=1e-14)
        assert v.imag == 0.0

    def test_hermitian(self):
        p = MultiplierParams([[0.3, 0.2j]], np.zeros(1), C1)
        z_i, z_j = pt([0.2, 0.1]), pt([-0.1, 0.4j])
        assert dbr_kernel(p, z_i, z_j) == pytest.approx(
            np.conj(dbr_kernel(p, z_j, z_i))
        )

    def test_diagonal_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = MultiplierParams([0.6 * _unit(rng, 2)], np.zeros(1), C1)
            z = pt(0.9 * rng.uniform(0, 1) * _unit(rng, 2))
            assert dbr_kernel(p, z, z).real > 0


class TestRkhsDistance:
    def test_zero_on_diagonal(self):
        p = params_1d(0.4)
        assert rkhs_distance_sq(p, pt([0.3]), pt([0.3])) == 0.0

    def test_symmetric_positive(self):
        p = MultiplierParams([[0.3, 0.1]], np.zeros(1), C1)
        z_i, z_j = pt([0.2, -0.1]), pt([0.4, 0.3])
        d = rkhs_distance_sq(p, z_i, z_j)
        assert d > 0
        assert d == pytest.approx(rkhs_distance_sq(p, z_j, z_i), rel=1e-14)


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
