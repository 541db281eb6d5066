import math
import types

import numpy as np
import pytest

import oracle
from hpfd import HPScalar, hp_central_diff
from hypkernels import _gmath as gm
from hypkernels import diff, geometry
from hypkernels.diff import (
    DEFAULT_BLOCKS,
    Node,
    OptimizerState,
    ParamVector,
    backward,
    concat,
    exp,
    grad,
    log,
    materialize,
    sqrt,
    step,
    tanh,
    where,
)
from hypkernels.geometry import TangentVector, exp0
from hypkernels.learning import Projection, RunConfig, _kernel_from_raws, _scores


def tape_grad(f, x):
    """f applied to a tape node holding x; gradient of the sum of f(x)."""
    v = Node(x)
    out = f(v)
    backward(out.sum())
    return out.value, v.grad


class TestVar:
    """Tape variables: each primitive's vector-Jacobian product on arrays."""

    @pytest.mark.parametrize("f,df,x", [
        (lambda v: v * v, lambda x: 2 * x, 0.7),
        (lambda v: v + 3.0, lambda x: 1.0, -1.2),
        (lambda v: 3.0 - v, lambda x: -1.0, 0.4),
        (lambda v: 2.0 / v, lambda x: -2.0 / x**2, 0.8),
        (lambda v: v**3, lambda x: 3 * x**2, 1.3),
        (lambda v: exp(v), math.exp, 0.5),
        (lambda v: log(v), lambda x: 1.0 / x, 2.0),
        (lambda v: tanh(v), lambda x: 1.0 - math.tanh(x) ** 2, 0.3),
        (lambda v: sqrt(v), lambda x: 0.5 / math.sqrt(x), 4.0),
        (lambda v: -v, lambda x: -1.0, 0.9),
    ])
    def test_primitives(self, f, df, x):
        xs = x * np.array([[1.0, 0.5], [1.5, 0.25]])
        _, g = tape_grad(f, xs)
        expected = np.vectorize(df)(xs) * np.ones_like(xs)
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_fan_out_accumulates(self):
        # y = x*x + x => dy/dx = 2x + 1.
        val, g = tape_grad(lambda v: v * v + v, np.array([1.5, -2.0]))
        np.testing.assert_allclose(val, [1.5 * 1.5 + 1.5, 2.0])
        np.testing.assert_allclose(g, [4.0, -3.0])

    def test_deep_chain_iterative(self):
        # 3000 sequential ops would overflow a recursive traversal.
        v = Node(np.ones(2))
        out = v
        for _ in range(3000):
            out = out * 0.999 + 0.001
        backward(out.sum())
        np.testing.assert_allclose(v.grad, 0.999**3000, rtol=1e-10)

    def test_composite_matches_hp_fd(self):
        def f(v, exp, tanh, sqrt):
            return exp(tanh(sqrt(v * v + 1.0))) / (v + 2.0)

        x = 0.37
        _, g = tape_grad(lambda v: f(v, exp, tanh, sqrt), np.array(x))
        fd = hp_central_diff(
            lambda h: f(h, HPScalar.exp, HPScalar.tanh, HPScalar.sqrt), x, h=1e-6
        )
        assert float(g) == pytest.approx(fd, rel=1e-9)

    def test_broadcast_gradients_sum_to_operand_shape(self):
        a = Node(np.array([[1.0], [2.0], [3.0]]))
        b = Node(np.array([10.0, 20.0, 30.0, 40.0]))
        c = Node(np.array(0.5))
        backward((a * b + c).sum())
        np.testing.assert_allclose(a.grad, [[100.0], [100.0], [100.0]])
        np.testing.assert_allclose(b.grad, [6.0] * 4)
        assert c.grad == pytest.approx(12.0)

    def test_matmul_transpose_and_reductions(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        W = rng.standard_normal((3, 4))
        a, b = Node(A), Node(B)
        backward((W * (a @ b.mT)).sum(axis=1).sum())
        np.testing.assert_allclose(a.grad, W @ B, rtol=1e-13)
        np.testing.assert_allclose(b.grad, W.T @ A, rtol=1e-13)
        m = Node(A)
        # (column sums) x (row sums), summed, is sum(A)^2.
        backward((m.sum(axis=0, keepdims=True) * m.sum(axis=1)[:, None]).sum())
        np.testing.assert_allclose(m.grad, np.full((3, 2), 2.0 * A.sum()), rtol=1e-13)

    def test_index_and_concat(self):
        v = Node(np.arange(4.0))
        backward((v[np.array([0, 0, 3])] * 2.0).sum())
        np.testing.assert_allclose(v.grad, [4.0, 0.0, 0.0, 2.0])
        a, b = Node(np.ones((2, 3))), Node(np.ones((1, 3)))
        backward((concat([a, np.zeros((2, 3)), b]) * np.arange(5.0)[:, None]).sum())
        np.testing.assert_allclose(a.grad, [[0.0] * 3, [1.0] * 3])
        np.testing.assert_allclose(b.grad, [[4.0] * 3])

    def test_basic_index_assigns_advanced_index_accumulates(self, monkeypatch):
        add_at = []

        class CountingNumpy:
            """numpy, with np.add.at calls counted."""
            add = types.SimpleNamespace(
                at=lambda *args: add_at.append(1) or np.add.at(*args))

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(diff, "np", CountingNumpy())
        v = Node(np.arange(12.0).reshape(3, 4))
        backward((v[1:, ::2] * 3.0).sum() + (v[..., None, 0] * 2.0).sum())
        np.testing.assert_array_equal(
            v.grad, [[2.0, 0.0, 0.0, 0.0], [5.0, 0.0, 3.0, 0.0], [5.0, 0.0, 3.0, 0.0]])
        assert add_at == []
        w = Node(np.arange(4.0))
        backward((w[np.array([1, 1, 1, 2])] * 2.0).sum())
        np.testing.assert_array_equal(w.grad, [0.0, 6.0, 2.0, 0.0])
        assert add_at == [1]

    def test_nodes_of_separate_leaves_share_one_backward(self):
        # Operands grown on two tapes: the later node merges them.
        a, b = Node(np.array([2.0])), Node(np.array([3.0]))
        u, w = a * a, b * 5.0
        out = (u * w + u).sum()
        backward(out)
        np.testing.assert_allclose(a.grad, [2 * 2.0 * 15.0 + 4.0])
        np.testing.assert_allclose(b.grad, [20.0])

    def test_second_pass_over_a_tape_starts_clean(self):
        v = Node(np.array([1.5, -2.0]))
        backward((v * v).sum())
        np.testing.assert_allclose(v.grad, [3.0, -4.0])
        v.grad = None
        backward((v * 3.0).sum())
        np.testing.assert_allclose(v.grad, [3.0, 3.0])

    def test_where_masks_gradient(self):
        v = Node(np.array([-1.0, 0.0, 4.0]))
        positive = v.value > 0.0
        d = where(positive, sqrt(where(positive, v, 1.0)), 0.0)
        backward(d.sum())
        np.testing.assert_array_equal(v.grad, [0.0, 0.0, 0.25])

    def test_plain_arrays_stay_off_the_tape(self):
        out = where(np.array([True]), exp(np.ones(1)), concat([np.ones(1)]))
        assert isinstance(out, np.ndarray)
        assert not isinstance(np.ones(2) * Node(np.ones(2)), np.ndarray)


class TestParamVector:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            ParamVector(np.zeros((2, 2)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            ParamVector(np.zeros((2, 2)), np.zeros(2), np.zeros(1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ParamVector(np.full((1, 1), np.nan), np.zeros(1), np.zeros(2))

    @pytest.mark.parametrize("log_c", [1000.0, -1000.0, math.inf, math.nan])
    def test_curvature_out_of_range_rejected(self, log_c):
        # exp(1000) overflows and exp(-1000) is 0: neither is a curvature.
        with pytest.raises(ValueError, match="positive finite curvature"):
            ParamVector(np.zeros((1, 1)), np.zeros(1), np.zeros(2), log_c=log_c)

    def test_caller_array_not_mutated(self):
        raws = np.zeros((1, 2))
        ParamVector(raws, np.zeros(1), np.ones(2))
        raws[0, 0] = 5.0  # the vector stores a frozen copy

    def test_view_round_trip(self):
        p = ParamVector(np.ones((2, 3)), np.zeros(2), np.ones(4), fixed_c=2.0)
        v = p.view()
        assert v.pole_raws[1][2] == 1.0
        assert v.fixed_c == 2.0
        assert v.log_c is None


class TestMaterialize:
    def test_poles_inside_ball(self):
        p = ParamVector(100.0 * np.ones((2, 3)), np.zeros(2), np.ones(2))
        params, _, curvature = materialize(p)
        assert np.sqrt(curvature.c) * np.linalg.norm(params.poles, axis=1).max() < 1.0

    def test_weights_on_simplex(self):
        p = ParamVector(np.zeros((3, 1)), np.array([1.0, 0.0, -1.0]), np.ones(2))
        params, _, _ = materialize(p)
        assert params.weights.sum() == pytest.approx(1.0)

    def test_alphas_nonnegative(self):
        p = ParamVector(np.zeros((1, 1)), np.zeros(1), np.array([-0.5, 2.0]))
        _, radial, _ = materialize(p)
        np.testing.assert_allclose(radial.alphas, [0.25, 4.0])

    def test_curvature_sources(self):
        p = ParamVector(np.zeros((1, 1)), np.zeros(1), np.ones(2),
                        log_c=math.log(2.0))
        assert materialize(p)[2].c == pytest.approx(2.0)
        q = ParamVector(np.zeros((1, 1)), np.zeros(1), np.ones(2), fixed_c=0.5)
        assert materialize(q)[2].c == 0.5

    def test_poles_projected_in_one_call(self, monkeypatch):
        """All poles go through one call of the projection layer, each
        bit-identical to the single-vector `exp0` of its raw row and to the
        poles that training projects."""
        rng = np.random.default_rng(1)
        p = ParamVector(rng.standard_normal((5, 4)), np.zeros(5), np.ones(2),
                        fixed_c=0.7)
        calls = []
        original = geometry._exp0

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(geometry, "_exp0", counted)
        params, _, curvature = materialize(p)
        assert len(calls) == 1
        for pole, row in zip(params.poles, p.pole_raws):
            ref = exp0(TangentVector(row), curvature)
            np.testing.assert_array_equal(pole, ref.coords)
        trained = Projection().apply(p.pole_raws, 0.7)
        np.testing.assert_array_equal(params.poles, trained)

    def test_matches_generic_path(self):
        # The numpy constrained view and the generic scalar view must agree.
        rng = np.random.default_rng(0)
        p = ParamVector(rng.standard_normal((2, 3)), rng.standard_normal(2),
                        rng.standard_normal(4))
        params, radial, _ = materialize(p)
        leaves = gm.KernelLeaves.from_view(p.view(), "ahrad")
        np.testing.assert_allclose(params.weights, leaves.weights, rtol=1e-14)
        np.testing.assert_allclose(radial.alphas, leaves.alphas, rtol=1e-14)
        for pole, row in zip(params.poles, leaves.poles):
            np.testing.assert_allclose(pole, row, rtol=1e-14)


class TestGrad:
    def test_quadratic_loss(self):
        p = ParamVector(np.array([[0.3, -0.2]]), np.array([0.1]),
                        np.array([0.5, 0.4]))

        def loss(view):
            return ((view.pole_raws * view.pole_raws).sum()
                    + view.weight_logits[0] * view.radial_raws[1])

        g = grad(loss, p)
        np.testing.assert_allclose(g.pole_raws, [[0.6, -0.4]], rtol=1e-14)
        assert g.weight_logits[0] == pytest.approx(0.4)
        np.testing.assert_allclose(g.radial_raws, [0.0, 0.1], rtol=1e-14)

    def test_nonfinite_loss_raises(self):
        p = ParamVector(np.zeros((1, 1)), np.zeros(1), np.ones(2))
        with pytest.raises(ArithmeticError):
            grad(lambda view: log(view.radial_raws[0]) - log(view.radial_raws[0])
                 + float("nan"), p)

    def test_frozen_curvature_has_no_component(self):
        p = ParamVector(np.zeros((1, 1)), np.zeros(1), np.ones(2))
        g = grad(lambda view: (view.radial_raws * view.radial_raws).sum(), p)
        assert g.log_c is None

    def test_untouched_block_gets_zero_gradient(self):
        p = ParamVector(np.zeros((2, 3)), np.zeros(2), np.ones(2))
        g = grad(lambda view: view.radial_raws.sum(), p)
        np.testing.assert_array_equal(g.pole_raws, np.zeros((2, 3)))
        np.testing.assert_array_equal(g.weight_logits, np.zeros(2))

    def test_kernel_loss_matches_hp_fd(self):
        rng = np.random.default_rng(4)
        p = ParamVector(0.3 * rng.standard_normal((2, 2)),
                        rng.standard_normal(2), 0.5 + 0.2 * rng.standard_normal(3))
        z = np.array([[0.2, -0.3]])
        w = np.array([[0.1, 0.4]])
        run = RunConfig(variant="ahrad")

        def loss(view):
            k = _kernel_from_raws(view, run)
            return _scores(k, z, w, "similarity", Projection())[0, 0]

        def reference(view):
            leaves = gm.KernelLeaves.from_view(view, "ahrad")
            e_z = gm.embed(leaves, gm.exp0(list(z[0]), leaves.c))
            e_w = gm.embed(leaves, gm.exp0(list(w[0]), leaves.c))
            return gm.kernel(leaves, e_z, e_w)

        assert oracle.worst_grad_error(loss, reference, p) < 1e-8


class TestTapeLifetime:
    """grad empties its tape on every exit: a step's nodes, VJP closures
    and arrays are freed when it returns, not by the cyclic collector."""

    P = ParamVector(0.3 * np.ones((2, 2)), np.array([0.2, -0.1]), np.array([0.5, 0.4, 0.3]))

    @staticmethod
    def kernel_loss(view):
        k = _kernel_from_raws(view, RunConfig(variant="ahrad"))
        return _scores(k, np.array([[0.2, -0.3]]), np.array([[0.1, 0.4], [0.5, 0.0]]),
                       "distance", Projection()).sum()

    def test_nothing_left_after_grad(self):
        assert oracle.unreachable_after(lambda: grad(self.kernel_loss, self.P)) == 0

    @pytest.mark.parametrize("fail", ["non-finite", "raised"])
    def test_nothing_left_when_grad_raises(self, fail):
        class Stop(Exception):
            pass

        def loss(view):
            out = self.kernel_loss(view)
            if fail == "raised":
                raise Stop
            return out * float("nan")

        def run():
            try:
                grad(loss, self.P)
            except (ArithmeticError, Stop):
                pass
            else:
                raise AssertionError("grad did not raise")

        assert oracle.unreachable_after(run) == 0


class TestOptimizer:
    def make(self):
        return ParamVector(np.ones((1, 2)), np.zeros(1), np.ones(3))

    def make_grad(self):
        from hypkernels.diff import Gradient

        return Gradient(np.full((1, 2), 0.5), np.array([1.0]), np.zeros(3))

    def test_sgd_step(self):
        p = self.make()
        state = OptimizerState(mode="sgd")
        state, q = step(state, p, self.make_grad(), lr=0.1)
        np.testing.assert_allclose(q.pole_raws, 1.0 - 0.05)
        np.testing.assert_allclose(q.weight_logits, [-0.1])
        np.testing.assert_allclose(q.radial_raws, p.radial_raws)

    def test_adam_first_step_is_signed_lr(self):
        p = self.make()
        state = OptimizerState(mode="adam")
        _, q = step(state, p, self.make_grad(), lr=0.01)
        # First bias-corrected update is lr * sign(g) up to eps.
        np.testing.assert_allclose(q.pole_raws, 1.0 - 0.01, rtol=1e-6)

    def test_block_selection(self):
        p = self.make()
        state = OptimizerState(mode="sgd")
        _, q = step(state, p, self.make_grad(), lr=0.1, blocks=("weights",))
        np.testing.assert_allclose(q.pole_raws, p.pole_raws)
        assert q.weight_logits[0] == pytest.approx(-0.1)

    def test_unknown_block(self):
        with pytest.raises(ValueError):
            step(OptimizerState(), self.make(), self.make_grad(), 0.1, ("spam",))

    def test_nonpositive_lr(self):
        with pytest.raises(ValueError):
            step(OptimizerState(), self.make(), self.make_grad(), 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            OptimizerState(mode="rmsprop")

    @pytest.mark.parametrize("mode", ["adam", "sgd"])
    @pytest.mark.parametrize("blocks", [DEFAULT_BLOCKS, ("weights",),
                                        ("alphas", "log_c"), ("affine", "poles"),
                                        ("poles", "weights", "alphas", "log_c", "affine")])
    def test_matches_per_block_step(self, mode, blocks):
        """Bit-identical to the per-block reference step over 300 steps, with
        gradients that change sign and scale from step to step."""
        rng = np.random.default_rng(5)
        p = ParamVector(rng.standard_normal((2, 3)), rng.standard_normal(2),
                        rng.standard_normal(4), log_c=-0.3, fixed_c=0.7,
                        affine=rng.standard_normal((3, 4)))
        q = p
        state = ref_state = OptimizerState(mode=mode)
        for i in range(300):
            scale = 10.0 ** rng.integers(-6, 3)
            g = diff.Gradient(scale * rng.standard_normal((2, 3)),
                              scale * rng.standard_normal(2),
                              scale * rng.standard_normal(4),
                              log_c=float(scale * rng.standard_normal()),
                              affine=scale * rng.standard_normal((3, 4)))
            state, p = step(state, p, g, 0.01, blocks)
            ref_state, q = oracle.step(ref_state, q, g, 0.01, blocks)
            for name in ("pole_raws", "weight_logits", "radial_raws", "affine"):
                np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
                assert not getattr(p, name).flags.writeable
            assert p.log_c == q.log_c and p.fixed_c == q.fixed_c
            assert state.t == ref_state.t == i + 1
            for acc, ref in ((state.m, ref_state.m), (state.v, ref_state.v)):
                assert acc.keys() == ref.keys()
                for key in ref:
                    np.testing.assert_array_equal(acc[key], ref[key])

    @pytest.mark.parametrize("mode", ["adam", "sgd"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_raises(self, mode, bad):
        g = self.make_grad()
        g.weight_logits[0] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            step(OptimizerState(mode=mode), self.make(), g, 0.1)

    def test_state_accumulates(self):
        p = self.make()
        g = self.make_grad()
        state = OptimizerState(mode="adam")
        state, p = step(state, p, g, 0.01, DEFAULT_BLOCKS)
        assert state.t == 1
        state, p = step(state, p, g, 0.01, DEFAULT_BLOCKS)
        assert state.t == 2
        assert "poles" in state.m and "poles" in state.v
