"""Gradients of scalar losses with respect to kernel parameters.

All learnable quantities live in unconstrained real raws; `materialize`
maps them onto their constrained views (poles inside the ball via the
exponential map, weights on the simplex via softmax, nonnegative radial
coefficients via squaring, positive curvature via exp).

Gradients come from a reverse-mode tape over real arrays.  A `Node`
holds an array, its operands and one vector-Jacobian product (VJP) that
maps the gradient of the node onto the cotangents of all its operands at
once.  `record` makes the result of any array function such a node, so
a whole pipeline layer (the projection, the multiplier, a loss; see
`geometry`, `rkhs`, `kernels` and `learning`) is one node whose VJP
computes its shared intermediates once.  The arithmetic operators and
`exp`/`log`/`tanh`/`sqrt`/`where`/`concat` are small cases of the same
mechanism.
Everything accepts plain arrays as well: with no node among the operands
a function returns its numpy result and records nothing, so one forward
serves values and gradients.

Nodes are appended to a tape, a list shared by the nodes of one
computation, in the order they are created; that order is topological,
so `backward` walks the tape once in reverse.  `grad` puts the leaves of
each gradient on a fresh tape and empties it when it returns or raises.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np


def value(x):
    """The array behind a tape node; anything else is returned as is."""
    return x.value if isinstance(x, Node) else x


class Node:
    """An array on the reverse-mode tape.

    `Node(value)` is a leaf; it starts a tape of its own unless one is
    passed.  `record` makes the other nodes: `parents` holds one entry
    per operand (None for a constant) and `vjp(g)` one cotangent per
    operand.  Binary operations broadcast as numpy does; `backward` sums
    a cotangent back to its operand's shape where the two differ.
    """

    __slots__ = ("value", "grad", "tape", "parents", "vjp")
    # ndarray (op) Node defers to the node's reflected operator.
    __array_ufunc__ = None

    def __init__(self, value, tape=None, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.tape = [] if tape is None else tape
        self.parents = parents
        self.vjp = vjp

    def __repr__(self):
        return f"Node({self.value!r})"

    def __add__(self, other):
        return record(self.value + value(other), lambda g: (g, g), self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return record(self.value - value(other), lambda g: (g, -g), self, other)

    def __rsub__(self, other):
        return record(value(other) - self.value, lambda g: (-g,), self)

    def __mul__(self, other):
        a, b = self.value, value(other)
        return record(a * b, lambda g: (g * b, g * a), self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.value, value(other)
        out = a / b
        return record(out, lambda g: (g / b, -g * out / b), self, other)

    def __rtruediv__(self, other):
        b = self.value
        out = value(other) / b
        return record(out, lambda g: (-g * out / b,), self)

    def __neg__(self):
        return record(-self.value, lambda g: (-g,), self)

    def __pow__(self, exponent):
        a = self.value
        return record(a**exponent,
                      lambda g: (g * exponent * a ** (exponent - 1),), self)

    def __matmul__(self, other):
        a, b = self.value, value(other)
        return record(a @ b, lambda g: (g @ b.mT, a.mT @ g), self, other)

    def __rmatmul__(self, other):
        a, b = value(other), self.value
        return record(a @ b, lambda g: (a.mT @ g,), self)

    @property
    def mT(self):
        """Transpose of the last two axes (numpy's ndarray.mT)."""
        return record(self.value.mT, lambda g: (g.mT,), self)

    def __getitem__(self, index):
        shape = self.value.shape
        basic = _is_basic(index)

        def vjp(g):
            out = np.zeros(shape)
            if basic:
                out[index] = g
            else:
                np.add.at(out, index, g)
            return (out,)

        return record(self.value[index], vjp, self)

    def sum(self, axis=None, keepdims=False):
        shape = self.value.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape),)

        return record(self.value.sum(axis=axis, keepdims=keepdims), vjp, self)


def _is_basic(index) -> bool:
    """True for an index made of slices, integers, Ellipsis and None only.

    Such an index selects every element at most once, so its VJP can
    assign; an advanced (array) index may repeat elements and needs
    np.add.at.
    """
    parts = index if isinstance(index, tuple) else (index,)
    return all(p is None or p is Ellipsis or isinstance(p, (slice, int, np.integer))
               for p in parts)


def record(out, vjp, *operands):
    """out, computed from operands, as a node on their tape; out itself
    when no operand is a node.

    vjp(g) maps the gradient g of out onto a tuple with one cotangent per
    operand, in order; entries of operands that are not nodes are ignored
    (they may be None).  A cotangent may keep broadcast axes of out.
    """
    tape = None
    parents = []
    for x in operands:
        if isinstance(x, Node):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                _merge(tape, x.tape)
            parents.append(x)
        else:
            parents.append(None)
    if tape is None:
        return out
    node = Node(out, tape, tuple(parents), vjp)
    tape.append(node)
    return node


def _merge(tape, other):
    """Append to tape the nodes of another tape it does not hold yet
    (operands grown from leaves made apart).  Both lists are in creation
    order and neither depends on the other's new nodes, so the result is
    still topologically ordered."""
    known = set(map(id, tape))
    tape.extend(node for node in other if id(node) not in known)


def _unary(fn, derivative):
    """Elementwise function on arrays and tape nodes alike."""

    def op(x):
        if not isinstance(x, Node):
            return fn(x)
        out = fn(x.value)
        return record(out, lambda g: (g * derivative(x.value, out),), x)

    return op


exp = _unary(np.exp, lambda x, out: out)
log = _unary(np.log, lambda x, out: 1.0 / x)
tanh = _unary(np.tanh, lambda x, out: 1.0 - out * out)
sqrt = _unary(np.sqrt, lambda x, out: 0.5 / out)


def where(cond, a, b):
    """np.where over a constant mask; the masked branch gets zero gradient.

    The masked branch must still evaluate finitely: its local derivatives
    are multiplied by that zero, and 0 * inf is nan.
    """
    out = np.where(cond, value(a), value(b))
    return record(out, lambda g: (np.where(cond, g, 0.0), np.where(cond, 0.0, g)),
                  a, b)


def concat(parts, axis=0):
    """np.concatenate of arrays and tape nodes."""
    values = [value(x) for x in parts]

    def vjp(g):
        return np.split(g, np.cumsum([v.shape[axis] for v in values])[:-1], axis=axis)

    return record(np.concatenate(values, axis=axis), vjp, *parts)


def _sum_to_shape(g: np.ndarray, shape) -> np.ndarray:
    """Undo numpy broadcasting: sum g down to an operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(out: Node) -> None:
    """Accumulate d(out)/d(leaf) into .grad of every leaf out depends on.

    Walks out's tape from the newest node to the oldest: every node's
    gradient is complete before its VJP runs.  Nodes that out does not
    depend on have no gradient and are skipped; a recorded node drops its
    gradient once its VJP has run, so a later pass over the same tape
    starts clean.
    """
    out.grad = np.ones_like(out.value)
    for node in reversed(out.tape):
        g = node.grad
        if g is None:
            continue
        node.grad = None
        for parent, ct in zip(node.parents, node.vjp(g)):
            if parent is None:
                continue
            if ct.shape != parent.value.shape:
                ct = _sum_to_shape(ct, parent.value.shape)
            parent.grad = ct if parent.grad is None else parent.grad + ct


def _exp(x: float) -> float:
    """math.exp, with inf in place of OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ParamVector:
    """Unconstrained real raws for every learnable kernel parameter.

    log_c = None freezes the curvature at fixed_c; affine is an optional
    (out_dim, in_dim+1) matrix [W | b] for the zero-shot semantic embedder.
    """

    pole_raws: np.ndarray
    weight_logits: np.ndarray
    radial_raws: np.ndarray
    log_c: float | None = None
    fixed_c: float = 1.0
    affine: np.ndarray | None = None

    def __post_init__(self):
        pr = np.array(self.pole_raws, dtype=np.float64, copy=True)
        wl = np.array(self.weight_logits, dtype=np.float64, copy=True)
        rr = np.array(self.radial_raws, dtype=np.float64, copy=True)
        if pr.ndim != 2 or pr.shape[0] < 1 or pr.shape[1] < 1:
            raise ValueError("pole_raws must be an m x n matrix")
        if wl.shape != (pr.shape[0],):
            raise ValueError("weight_logits must have one entry per pole")
        if rr.ndim != 1 or rr.size < 2:
            raise ValueError("radial_raws must have length K+1 >= 2")
        arrays = [pr, wl, rr]
        af = None
        if self.affine is not None:
            af = np.array(self.affine, dtype=np.float64, copy=True)
            if af.ndim != 2:
                raise ValueError("affine must be a 2-d [W | b] matrix")
            arrays.append(af)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("all raw entries must be finite")
        if self.log_c is not None and not (
                np.isfinite(self.log_c) and 0.0 < _exp(self.log_c) < math.inf):
            raise ValueError(f"log_c = {self.log_c} gives no positive finite curvature")
        if not (np.isfinite(self.fixed_c) and self.fixed_c > 0):
            raise ValueError("fixed_c must be positive and finite")
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "pole_raws", pr)
        object.__setattr__(self, "weight_logits", wl)
        object.__setattr__(self, "radial_raws", rr)
        object.__setattr__(self, "affine", af)

    @property
    def m(self) -> int:
        return self.pole_raws.shape[0]

    @property
    def dim(self) -> int:
        return self.pole_raws.shape[1]

    @property
    def curvature_value(self) -> float:
        return math.exp(self.log_c) if self.log_c is not None else self.fixed_c

    def _updated(self, blocks: dict) -> "ParamVector":
        """A copy with some raw fields replaced, taken as they are: the
        caller passes read-only float64 blocks of the same shapes (floats
        for log_c), already checked finite."""
        out = object.__new__(ParamVector)
        out.__dict__.update(self.__dict__, **blocks)
        return out

    def view(self) -> "RawView":
        """Plain-float view, the input of the scalar reference path."""
        return RawView(
            pole_raws=[list(map(float, row)) for row in self.pole_raws],
            weight_logits=[float(x) for x in self.weight_logits],
            radial_raws=[float(x) for x in self.radial_raws],
            log_c=float(self.log_c) if self.log_c is not None else None,
            fixed_c=float(self.fixed_c),
            affine=[list(map(float, row)) for row in self.affine]
            if self.affine is not None
            else None,
        )


@dataclass
class RawView:
    """Structural mirror of ParamVector.

    `grad` fills it with one tape node per raw block; `ParamVector.view`
    fills it with nested lists of floats.
    """

    pole_raws: list
    weight_logits: list
    radial_raws: list
    log_c: object = None
    fixed_c: float = 1.0
    affine: list | None = None


@dataclass(frozen=True)
class Gradient:
    """Gradient with the same shape as the ParamVector raws."""

    pole_raws: np.ndarray
    weight_logits: np.ndarray
    radial_raws: np.ndarray
    log_c: float | None = None
    affine: np.ndarray | None = None


def materialize(p: ParamVector) -> tuple[MultiplierParams, RadialCoeffs, Curvature]:
    """Map raws onto constrained parameter values.

    Poles go through the exponential map, all in one `_exp0` call, into
    the pole matrix, so they are always strictly interior; weights
    through softmax; radial coefficients are squared.
    """
    # Imported here, not at the top: `geometry`, `rkhs` and `kernels`
    # record their layers on this module's tape, so they import it.
    from .geometry import Curvature, _exp0
    from .kernels import RadialCoeffs
    from .rkhs import MultiplierParams

    curvature = Curvature(p.curvature_value)
    params = MultiplierParams(_exp0(p.pole_raws, curvature.c), p.weight_logits, curvature)
    radial = RadialCoeffs(p.radial_raws)
    return params, radial, curvature


def grad(loss, p: ParamVector) -> Gradient:
    """Reverse-mode gradient of loss(view) at p.

    `loss` receives a RawView whose blocks are leaf nodes holding the raws
    of p, all on one fresh tape, and returns a scalar; it must evaluate
    finitely.  A frozen curvature (log_c = None) produces no gradient
    component.
    """
    tape = []
    view = RawView(
        pole_raws=Node(p.pole_raws, tape),
        weight_logits=Node(p.weight_logits, tape),
        radial_raws=Node(p.radial_raws, tape),
        log_c=Node(p.log_c, tape) if p.log_c is not None else None,
        fixed_c=p.fixed_c,
        affine=Node(p.affine, tape) if p.affine is not None else None,
    )
    try:
        out = loss(view)
        loss_value = float(value(out))
        if not math.isfinite(loss_value):
            raise ArithmeticError(f"loss evaluated to non-finite value {loss_value}")
        if isinstance(out, Node):
            backward(out)
    finally:
        # Each node holds the tape and the tape each node: emptying it frees
        # the step's nodes, VJP closures and arrays at once, on any exit,
        # instead of leaving the cycles to the cyclic garbage collector.
        tape.clear()

    def collect(leaf):
        return np.zeros(leaf.value.shape) if leaf.grad is None else leaf.grad

    return Gradient(
        pole_raws=collect(view.pole_raws),
        weight_logits=collect(view.weight_logits),
        radial_raws=collect(view.radial_raws),
        log_c=float(collect(view.log_c)) if view.log_c is not None else None,
        affine=collect(view.affine) if view.affine is not None else None,
    )


ALL_BLOCKS = ("poles", "weights", "alphas", "log_c", "affine")
DEFAULT_BLOCKS = ("poles", "weights", "alphas")
OPTIMIZER_MODES = ("adam", "sgd")
_BLOCK_FIELDS = dict(zip(ALL_BLOCKS, ("pole_raws", "weight_logits", "radial_raws",
                                      "log_c", "affine")))
# What `step` keeps of its last update: the blocks asked for, the params
# returned, (block, field, shape, slice) per updated block, and the flat
# raws and moments (None for sgd) in that layout.
_Flat = namedtuple("_Flat", "blocks params layout raws m v")


@dataclass(frozen=True)
class OptimizerState:
    """Per-block first/second moment accumulators for the adaptive update.

    m and v map a block to its moments, views of the flat buffers that
    `step` keeps in `flat` with their layout and the params it returned:
    the next step on those params and blocks derives no layout.
    """

    mode: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    flat: _Flat | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in OPTIMIZER_MODES:
            raise ValueError(f"unknown optimizer mode {self.mode!r}")

    def _advanced(self, t: int, m: dict, v: dict, flat) -> "OptimizerState":
        out = object.__new__(OptimizerState)
        out.__dict__.update(self.__dict__, t=t, m=m, v=v, flat=flat)
        return out


def _flat(blocks) -> np.ndarray:
    """Arrays and floats laid end to end, as float64."""
    return np.concatenate(blocks, axis=None, dtype=np.float64)


def _laid_out(state: OptimizerState, p: ParamVector, blocks) -> _Flat:
    """The layout of a step on the selected blocks that p holds, with p's
    raws and the state's moments (zero for a block without) in it."""
    layout, size = [], 0
    for block in blocks:
        if block not in _BLOCK_FIELDS:
            raise ValueError(f"unknown parameter block {block!r}")
        pv = getattr(p, _BLOCK_FIELDS[block])
        if pv is not None:
            n = np.size(pv)
            layout.append((block, _BLOCK_FIELDS[block], np.shape(pv), slice(size, size + n)))
            size += n
    raws = _flat([getattr(p, f) for _, f, _, _ in layout]) if layout else None
    m = v = None
    if layout and state.mode == "adam":
        m, v = (_flat([acc.get(b, np.zeros(shape)) for b, _, shape, _ in layout])
                for acc in (state.m, state.v))
    return _Flat(blocks, p, tuple(layout), raws, m, v)


def step(
    state: OptimizerState,
    p: ParamVector,
    g: Gradient,
    lr: float,
    blocks: tuple[str, ...] = DEFAULT_BLOCKS,
) -> tuple[OptimizerState, ParamVector]:
    """One first-order update; returns new state and parameters.

    In "adam" mode the update is normalized by bias-corrected accumulated
    squared gradients; "sgd" is the plain update p - lr*g.  The selected
    blocks are updated together: their raws, gradients and moments are
    laid end to end in flat float64 buffers, a few ufunc calls update
    them, and the new blocks are read-only views of the result, which is
    checked for finiteness once (ValueError).  The new state keeps the
    buffers and their layout, so the next step on the returned params
    with the same blocks flattens only its gradient.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    t = state.t + 1
    flat = state.flat
    if flat is None or flat.params is not p or flat.blocks != blocks:
        flat = _laid_out(state, p, blocks)
    if not flat.layout:
        return state._advanced(t, state.m, state.v, None), p
    grads = [getattr(g, f) for _, f, _, _ in flat.layout]
    for (block, _, shape, _), gv in zip(flat.layout, grads):
        if gv is None:
            raise ValueError(f"gradient missing for block {block!r}")
        if np.shape(gv) != shape:
            raise ValueError(f"shape mismatch in block {block!r}")
    flat_g = _flat(grads)
    m = v = None
    new_m, new_v = state.m, state.v
    if state.mode == "sgd":
        new = flat.raws - lr * flat_g
    else:
        b1, b2 = state.beta1, state.beta2
        m = b1 * flat.m + (1.0 - b1) * flat_g
        v = b2 * flat.v + (1.0 - b2) * flat_g * flat_g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new = flat.raws - lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m, new_v = ({**acc, **{b: buf[part].reshape(shape)
                                   for b, _, shape, part in flat.layout}}
                        for acc, buf in ((new_m, m), (new_v, v)))
    if not np.isfinite(new).all():
        raise ValueError("all raw entries must be finite")
    new.flags.writeable = False
    p = p._updated({f: float(new[part][0]) if f == "log_c" else new[part].reshape(shape)
                    for _, f, shape, part in flat.layout})
    return state._advanced(t, new_m, new_v, _Flat(blocks, p, flat.layout, new, m, v)), p
