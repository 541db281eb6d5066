import numpy as np
import pytest

from hypkernels import _gmath as gm
from hypkernels import kernels, rkhs
from hypkernels.checks import random_multiplier, sample_ball_points
from hpfd import HPScalar
from hypkernels.cli import _gram_config, _gram_values
from hypkernels.geometry import (BallPoint, Curvature, DimensionMismatch, GeometryError,
                                 _exp0, mobius_map)
from hypkernels.kernels import (
    MAX_GRAM_SIZE,
    ConfigError,
    KernelConfig,
    RadialCoeffs,
    ahrad,
    base_kernel,
    evaluate,
    gram,
)
from hypkernels.rkhs import (
    MultiplierParams,
    dbr_kernel,
    multiplier_b,
    rkhs_distance_sq,
)

C1 = Curvature(1.0)


def pt(coords, c=C1):
    return BallPoint(np.asarray(coords, dtype=np.complex128), c)


@pytest.fixture
def params():
    return MultiplierParams([[0.3, 0.1j], [-0.2, 0.4]], np.array([0.5, -0.5]), C1)


@pytest.fixture
def points():
    rng = np.random.default_rng(0)
    return sample_ball_points(rng, 8, 2, C1)


class TestRadialCoeffs:
    def test_alphas_are_squares(self):
        r = RadialCoeffs(np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(r.alphas, [1.0, 4.0, 0.25])
        assert r.truncation == 2

    def test_too_short(self):
        with pytest.raises(ConfigError):
            RadialCoeffs(np.array([1.0]))

    def test_all_zero(self):
        with pytest.raises(ConfigError):
            RadialCoeffs(np.zeros(3))

    def test_nonfinite(self):
        with pytest.raises(ConfigError):
            RadialCoeffs(np.array([1.0, np.nan]))


class TestKernelConfig:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            KernelConfig("gauss")

    def test_da_takes_no_params(self, params):
        with pytest.raises(ConfigError):
            KernelConfig("da", params=params)

    def test_ahl_requires_params(self):
        with pytest.raises(ConfigError):
            KernelConfig("ahl")

    @pytest.mark.parametrize("offset,degree", [(None, 2), (-1.0, 2), (1.0, 0), (1.0, 2.5),
                                               (1.0, np.nan), (1.0, np.inf)])
    def test_ahpoly_validation(self, params, offset, degree):
        with pytest.raises(ConfigError):
            KernelConfig("ahpoly", params=params, offset=offset, degree=degree)

    def test_offset_rejected_elsewhere(self, params):
        with pytest.raises(ConfigError):
            KernelConfig("ahl", params=params, offset=1.0)

    @pytest.mark.parametrize("bw", [None, 0.0, -1.0])
    def test_bandwidth_validation(self, params, bw):
        with pytest.raises(ConfigError):
            KernelConfig("ahrbf", params=params, bandwidth=bw)

    def test_ahrad_requires_radial(self, params):
        with pytest.raises(ConfigError):
            KernelConfig("ahrad", params=params)
        with pytest.raises(ConfigError, match="^ahrad requires radial coefficients$"):
            KernelConfig("ahrad", params=params, radial=[1.0, 0.5])

    def test_curvature_consistency(self, params):
        with pytest.raises(ConfigError):
            KernelConfig("ahl", params=params, curvature=Curvature(2.0))

    def test_fingerprint_deterministic(self, params):
        c1 = KernelConfig("ahl", params=params)
        c2 = KernelConfig("ahl", params=params)
        assert c1.fingerprint() == c2.fingerprint()

    def test_fingerprint_sensitive(self, params):
        a = KernelConfig("ahrbf", params=params, bandwidth=1.0)
        b = KernelConfig("ahrbf", params=params, bandwidth=2.0)
        assert a.fingerprint() != b.fingerprint()


class TestBaseKernel:
    def test_diagonal_is_one(self, params, points):
        for z in points:
            assert base_kernel(params, z, z) == pytest.approx(1.0, abs=1e-12)

    def test_bounded(self, params, points):
        for z_i in points:
            for z_j in points:
                v = base_kernel(params, z_i, z_j)
                assert 0.0 <= v <= 1.0 + 1e-12


class TestAhrad:
    def test_matches_naive_sum(self, params, points):
        radial = RadialCoeffs(np.linspace(1.0, 0.1, 6))
        config = KernelConfig("ahrad", params=params, radial=radial)
        z_i, z_j = points[0], points[1]
        beta = base_kernel(params, z_i, z_j)
        naive = sum(a * beta**l for l, a in enumerate(radial.alphas))
        assert ahrad(config, z_i, z_j) == pytest.approx(naive, rel=1e-14)

    def test_requires_ahrad_config(self, params, points):
        with pytest.raises(ConfigError):
            ahrad(KernelConfig("ahl", params=params), points[0], points[1])


class TestEvaluate:
    def test_da(self, points):
        config = KernelConfig("da", curvature=C1)
        v = evaluate(config, points[0], points[1])
        c = 1.0 - np.vdot(points[0].coords, points[1].coords)
        assert v == pytest.approx(1.0 / c)

    def test_ahl_matches_dbr(self, params, points):
        config = KernelConfig("ahl", params=params)
        assert evaluate(config, points[0], points[1]) == pytest.approx(
            dbr_kernel(params, points[0], points[1])
        )

    def test_ahpoly(self, params, points):
        config = KernelConfig("ahpoly", params=params, offset=1.0, degree=3)
        k = dbr_kernel(params, points[0], points[1])
        assert evaluate(config, points[0], points[1]) == pytest.approx((k + 1.0) ** 3)

    def test_ahrbf(self, params, points):
        config = KernelConfig("ahrbf", params=params, bandwidth=0.7)
        d2 = rkhs_distance_sq(params, points[0], points[1])
        assert evaluate(config, points[0], points[1]).real == pytest.approx(
            np.exp(-d2 / (2 * 0.49))
        )

    def test_ahlap(self, params, points):
        config = KernelConfig("ahlap", params=params, bandwidth=0.7)
        d2 = rkhs_distance_sq(params, points[0], points[1])
        assert evaluate(config, points[0], points[1]).real == pytest.approx(
            np.exp(-np.sqrt(d2) / 0.7)
        )

    def test_exponential_variants_diag_one(self, params, points):
        for variant in ("ahrbf", "ahlap"):
            config = KernelConfig(variant, params=params, bandwidth=1.0)
            assert evaluate(config, points[0], points[0]).real == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", ["da", "ahl"])
    def test_curvature_mismatch_as_gram(self, params, variant):
        """Points at c = 1 against a kernel configured at another curvature:
        evaluate raises the ConfigError that gram raises."""
        if variant == "da":
            config = KernelConfig("da", curvature=Curvature(2.0))
        else:
            scaled = MultiplierParams(params.poles / 2.0, params.weight_logits,
                                      Curvature(2.0))
            config = KernelConfig("ahl", params=scaled)
        pair = [pt([0.1, 0.2]), pt([0.2, -0.3])]
        for call in (lambda: gram(config, pair), lambda: evaluate(config, *pair)):
            with pytest.raises(ConfigError, match="configured curvature"):
                call()


class TestGram:
    def test_hermitian_bit_exact(self, params, points):
        G = gram(KernelConfig("ahl", params=params), points)
        assert np.array_equal(G.entries, G.entries.conj().T)

    def test_diagonal_real(self, params, points):
        G = gram(KernelConfig("ahl", params=params), points)
        assert np.all(G.entries.diagonal().imag == 0.0)

    def test_empty_rejected(self, params):
        with pytest.raises(ConfigError):
            gram(KernelConfig("ahl", params=params), [])

    def test_size_cap(self, params, points):
        with pytest.raises(ConfigError):
            too_many = [points[0]] * (MAX_GRAM_SIZE + 1)
            gram(KernelConfig("ahl", params=params), too_many)

    def test_curvature_mismatch(self):
        config = KernelConfig("da", curvature=Curvature(2.0))
        with pytest.raises(ConfigError):
            gram(config, [pt([0.1]), pt([0.2])])

    def test_ids_deterministic(self, params, points):
        config = KernelConfig("ahl", params=params)
        G1 = gram(config, points)
        G2 = gram(config, points)
        assert G1.config_fingerprint == G2.config_fingerprint
        assert G1.point_set_id == G2.point_set_id
        assert np.array_equal(G1.entries, G2.entries)

    def test_point_set_id_sensitive(self, params, points):
        config = KernelConfig("ahl", params=params)
        assert (
            gram(config, points).point_set_id
            != gram(config, points[::-1]).point_set_id
        )

    def test_mixed_curvature_rejected(self, params):
        rng = np.random.default_rng(1)
        pts = sample_ball_points(rng, 2, 2, C1) + sample_ball_points(
            rng, 1, 2, Curvature(2.0)
        )
        from hypkernels.geometry import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            gram(KernelConfig("ahl", params=params), pts)


def _substitute_output(monkeypatch, name, output):
    """Make the rkhs layer `name` return output(its own result), in rkhs and
    in every module that imported it."""
    layer = getattr(rkhs, name)

    def substitute(*args):
        return output(layer(*args))

    for module in (rkhs, kernels):
        if getattr(module, name, None) is layer:
            monkeypatch.setattr(module, name, substitute)


class TestKernelPathGuards:
    """The checks of the public kernel path on the output of its layers."""

    def test_multiplier_outside_ball(self, params, points, monkeypatch):
        # Rows of b(Z) pushed to norm 1.5 at c = 1.
        _substitute_output(monkeypatch, "_multiplier",
                           lambda B: 1.5 * B / np.linalg.norm(B, axis=-1, keepdims=True))
        for call in (lambda: gram(KernelConfig("ahl", params=params), points),
                     lambda: evaluate(KernelConfig("ahl", params=params), *points[:2]),
                     lambda: multiplier_b(params, points[0]),
                     lambda: dbr_kernel(params, *points[:2]),
                     lambda: rkhs_distance_sq(params, *points[:2])):
            with pytest.raises(GeometryError, match="outside the ball"):
                call()

    def test_negative_squared_distance(self, params, points, monkeypatch):
        # Off-diagonal entries raised by 10 make k_ii + k_jj - 2 Re k_ij < 0.
        _substitute_output(monkeypatch, "_dbr",
                           lambda K: K + 10.0 * (1.0 - np.eye(K.shape[-1])))
        for variant in ("ahrbf", "ahlap"):
            config = KernelConfig(variant, params=params, bandwidth=1.0)
            with pytest.raises(ArithmeticError, match="squared distance"):
                gram(config, points)
        with pytest.raises(ArithmeticError, match="squared distance"):
            rkhs_distance_sq(params, *points[:2])


def _family_configs(params, curvature, radial):
    return [
        KernelConfig("da", curvature=curvature),
        KernelConfig("ahl", params=params),
        KernelConfig("ahpoly", params=params, offset=1.0, degree=3),
        KernelConfig("ahrbf", params=params, bandwidth=0.7),
        KernelConfig("ahlap", params=params, bandwidth=0.7),
        KernelConfig("base", params=params),
        KernelConfig("ahrad", params=params, radial=radial),
    ]


def _mobius_b(params, z):
    """b(z) = 1/2 sum_i w_i (phi_{a_i}(z) + phi_{-a_i}(z)) from explicit Mobius maps."""
    poles = [pt(row, params.curvature) for row in params.poles]
    return sum(
        0.5 * w * (mobius_map(a, z).coords + mobius_map(-a, z).coords)
        for w, a in zip(params.weights, poles)
    )


def _reference_entry(config, z_i, z_j):
    """One kernel value, pair by pair, from the explicit Mobius-map multiplier."""
    c = z_i.curvature.c
    params = config.params

    def k(u, v):
        num = 1.0
        if params is not None:
            num = 1.0 - c * np.vdot(_mobius_b(params, u), _mobius_b(params, v))
        return num / (1.0 - c * np.vdot(u.coords, v.coords))

    k_ij, k_ii, k_jj = k(z_i, z_j), k(z_i, z_i).real, k(z_j, z_j).real
    variant = config.variant
    if variant in ("da", "ahl"):
        return k_ij
    if variant == "ahpoly":
        return (k_ij + config.offset) ** config.degree
    d2 = max(k_ii + k_jj - 2.0 * k_ij.real, 0.0)
    if variant == "ahrbf":
        return np.exp(-d2 / (2.0 * config.bandwidth**2))
    if variant == "ahlap":
        return np.exp(-np.sqrt(d2) / config.bandwidth)
    beta = abs(k_ij) ** 2 / (k_ii * k_jj)
    if variant == "base":
        return beta
    return sum(a * beta**l for l, a in enumerate(config.radial.alphas))


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


@pytest.mark.parametrize("c", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 8])
class TestBatchedDifferential:
    """Batched Gram entries against independent per-pair references."""

    TOL = 1e-13

    def family(self, c, dim, complex_coords):
        curv = Curvature(c)
        rng = np.random.default_rng([dim, int(4 * c), complex_coords])
        points = sample_ball_points(rng, 6, dim, curv, r_max_frac=0.9,
                                    complex_coords=complex_coords)
        params = random_multiplier(rng, 3, dim, curv, complex_coords=complex_coords)
        radial = RadialCoeffs(rng.uniform(0.1, 1.0, 51))
        return points, _family_configs(params, curv, radial)

    def test_complex_points_match_mobius_reference(self, c, dim):
        points, configs = self.family(c, dim, True)
        for config in configs:
            G = gram(config, points).entries
            for i, z_i in enumerate(points):
                for j, z_j in enumerate(points):
                    ref = _reference_entry(config, z_i, z_j)
                    assert _rel(G[i, j], ref) <= self.TOL, (config.variant, i, j)

    def test_real_points_match_gmath(self, c, dim):
        points, configs = self.family(c, dim, False)
        for config in configs:
            G = gram(config, points).entries
            assert np.all(G.imag == 0.0)
            leaves = gm.KernelLeaves.from_config(config)
            embeds = [gm.embed(leaves, list(z.coords.real)) for z in points]
            for i, e_i in enumerate(embeds):
                for j, e_j in enumerate(embeds):
                    ref = gm.kernel(leaves, e_i, e_j)
                    assert _rel(G[i, j], ref) <= self.TOL, (config.variant, i, j)

    def test_evaluate_matches_gram(self, c, dim):
        points, configs = self.family(c, dim, True)
        for config in configs:
            G = gram(config, points).entries
            for i, z_i in enumerate(points):
                for j, z_j in enumerate(points):
                    got = evaluate(config, z_i, z_j)
                    assert _rel(got, G[i, j]) <= self.TOL, (config.variant, i, j)


def _cli_style_config(variant, c):
    """The config `hypkernels gram` builds: m = 2, truncation 50, dim 8."""
    extra = {"ahpoly": {"offset": 1.0, "degree": 2}, "ahrbf": {"bandwidth": 1.0},
             "ahlap": {"bandwidth": 1.0}}.get(variant, {})
    _, config = _gram_config(_gram_values(
        {"kernel": {"variant": variant, "m": 2, "truncation": 50, "init_seed": 0,
                    "init_scale": 0.1, **extra}, "curvature": c}), 8)
    return config


def _projected(n, c, seed=0):
    return _exp0(np.random.default_rng([n, seed]).standard_normal((n, 8)), c)


VARIANTS = ("da", "ahl", "ahpoly", "ahrbf", "ahlap", "base", "ahrad")


class TestOneCore:
    """`gram` on a coordinate matrix and on a list of BallPoints is one
    core; real points and poles run in real arithmetic, and the entries
    keep its dtype."""

    @pytest.mark.parametrize("c", [0.02, 1.0])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matrix_and_points_bit_identical_real(self, variant, c):
        config = _cli_style_config(variant, c)
        Y = _projected(33, c)
        by_matrix = gram(config, Y)
        by_points = gram(config, [BallPoint(y, Curvature(c)) for y in Y])
        # A complex matrix with zero imaginary parts is real too.
        by_complex = gram(config, Y.astype(np.complex128))
        for G in (by_matrix, by_points, by_complex):
            assert G.entries.dtype == np.float64
            assert G.entries.tobytes() == by_matrix.entries.tobytes()
        assert by_matrix.point_set_id == by_points.point_set_id
        assert by_matrix.config_fingerprint == by_points.config_fingerprint

    @pytest.mark.parametrize("c", [0.25, 2.0])
    def test_matrix_and_points_bit_identical_complex(self, c):
        points, configs = TestBatchedDifferential().family(c, 3, True)
        Z = np.stack([p.coords for p in points])
        assert [config.variant for config in configs] == list(VARIANTS)
        for config in configs:
            by_matrix = gram(config, Z).entries
            by_points = gram(config, points).entries
            assert by_matrix.dtype == by_points.dtype == np.complex128, config.variant
            assert by_matrix.tobytes() == by_points.tobytes()

    @pytest.mark.parametrize("c", [0.25, 2.0])
    def test_real_points_complex_poles_give_complex_entries(self, c):
        rng = np.random.default_rng(5)
        curvature = Curvature(c)
        params = random_multiplier(rng, 2, 3, curvature)
        configs = _family_configs(params, curvature, RadialCoeffs(rng.uniform(0.1, 1.0, 6)))
        Y = 0.5 / np.sqrt(c) * np.tanh(rng.standard_normal((9, 3)))
        for config in configs:
            G = gram(config, Y)
            # The Drury-Arveson kernel has no poles: real points stay real.
            want = np.float64 if config.variant == "da" else np.complex128
            assert G.entries.dtype == want, config.variant

    @pytest.mark.parametrize("c", [0.02, 1.0])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pointwise_equals_gram_entries_real(self, variant, c):
        config = _cli_style_config(variant, c)
        points = [BallPoint(y, Curvature(c)) for y in _projected(6, c, seed=1)]
        G = gram(config, points).entries
        for i, z_i in enumerate(points):
            for j, z_j in enumerate(points):
                assert evaluate(config, z_i, z_j) == G[i, j], (i, j)
                if variant == "ahl":
                    assert dbr_kernel(config.params, z_i, z_j) == G[i, j], (i, j)

    def test_real_arithmetic_no_less_accurate_than_complex(self):
        # Worst relative error against the 60-digit scalar path, over the
        # n = 32 sets of every variant at c = 0.02 and 1: the real core, and
        # the same points in complex arithmetic with zero imaginary parts.
        worst = {"real": 0.0, "complex": 0.0}
        for c in (0.02, 1.0):
            Y = _projected(32, c)
            for variant in VARIANTS:
                config = _cli_style_config(variant, c)
                real = gram(config, Y).entries.real
                Z = Y.astype(np.complex128)
                B = None
                if config.params is not None:
                    B = rkhs._multiplier(Z, config.params.poles.astype(np.complex128),
                                         config.params.weights, c)
                complex_ = kernels._transform(
                    config._derived, rkhs._bordered(rkhs._dbr(c, Z, B)), strict=True).real
                leaves = _hp_leaves(config)
                embeds = [gm.embed(leaves, [HPScalar(x) for x in y]) for y in Y]
                for i in range(32):
                    for j in range(i, 32):
                        ref = HPScalar(gm.kernel(leaves, embeds[i], embeds[j])).v
                        for name, G in (("real", real), ("complex", complex_)):
                            err = float(abs(ref - G[i, j]) / abs(ref))
                            worst[name] = max(worst[name], err)
        assert worst["real"] <= worst["complex"] < 1e-11, worst

    def test_ids_computed_on_first_access(self, params, points, monkeypatch):
        calls = []
        fingerprint = KernelConfig.fingerprint
        monkeypatch.setattr(KernelConfig, "fingerprint",
                            lambda self: calls.append(1) or fingerprint(self))
        G = gram(KernelConfig("ahl", params=params), points)
        assert calls == []
        assert G.config_fingerprint == G.config_fingerprint
        assert calls == [1]

    def test_matrix_rows_checked_as_points(self, params):
        config = KernelConfig("ahl", params=params)
        with pytest.raises(GeometryError, match="too close to the ball boundary"):
            gram(config, np.array([[0.1, 0.2], [1.0, 0.0]]))
        with pytest.raises(GeometryError, match="coords must be finite"):
            gram(config, np.array([[0.1, np.nan]]))
        with pytest.raises(DimensionMismatch, match="dimension mismatch: 2 vs 3"):
            gram(config, np.zeros((2, 3)))
        with pytest.raises(ConfigError, match="sets the curvature"):
            gram(KernelConfig("da"), np.zeros((2, 2)))

    def test_matrix_copied_for_point_set_id(self, params):
        Y = np.array([[0.1, 0.2], [0.3, -0.1]])
        G = gram(KernelConfig("ahl", params=params), Y)
        Y[0, 0] = 0.2
        assert G.point_set_id == gram(KernelConfig("ahl", params=params),
                                      np.array([[0.1, 0.2], [0.3, -0.1]])).point_set_id


class TestPinnedPointSetIds:
    """`point_set_id` of a BallPoint list and of a real matrix, recorded
    when `GramMatrix` kept a list as a tuple of points: the stacked
    coordinates keep those bytes, the signed zeros of the imaginary parts
    included."""

    CONFIG = KernelConfig("da", curvature=Curvature(0.5))
    Y = np.arange(-7.0, 8.0).reshape(5, 3) / 30.0

    def test_point_list(self):
        points = [BallPoint(y * (1.0 - 0.5j), Curvature(0.5)) for y in self.Y[:3]]
        points += [-BallPoint(y, Curvature(0.5)) for y in self.Y[3:]]
        G = gram(self.CONFIG, points)
        assert G.point_set_id == "428774a05abd7d01"
        assert isinstance(G.points, np.ndarray) and not G.points.flags.writeable
        assert G.points.dtype == np.complex128

    def test_real_matrix(self):
        G = gram(self.CONFIG, self.Y)
        assert G.point_set_id == "9693f034db711d99"
        assert isinstance(G.points, np.ndarray) and not G.points.flags.writeable


def _hp_leaves(config):
    """`_gmath` leaves of config with every float as a 60-digit scalar."""
    fl = gm.KernelLeaves.from_config(config)

    def hp(values):
        if values is None:
            return None
        return [[HPScalar(x) for x in v] if isinstance(v, list) else HPScalar(v)
                for v in values]

    return gm.KernelLeaves(fl.variant, HPScalar(fl.c), hp(fl.poles), hp(fl.weights),
                           hp(fl.alphas), fl.offset, fl.degree, fl.bandwidth)


class TestRandomSampling:
    def test_points_inside_ball(self):
        rng = np.random.default_rng(2)
        for c in (0.25, 2.0):
            curv = Curvature(c)
            for p in sample_ball_points(rng, 50, 3, curv):
                assert np.sqrt(c) * p.norm < 1.0

    def test_multiplier_poles_inside(self):
        rng = np.random.default_rng(3)
        p = random_multiplier(rng, 4, 2, C1)
        assert p.m == 4
        assert np.linalg.norm(p.poles, axis=1).max() < 0.7 + 1e-12
