"""The package computes each projection onto the ball in one place.

The exponential map at the origin (`np.tanh` of the radius) and the clip
projection (a division by the norm against the shell 1 - eps) exist once,
in `geometry._exp0` and `geometry._clip`; training, evaluation, `gram`
and the poles of `diff.materialize` all call them.  The scan reads the
package source outside `_gmath` (the scalar reference path); `diff`'s
generic `tanh` passes `np.tanh` as a value and calls it nowhere else.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hypkernels"


def _is_one_minus_eps(node) -> bool:
    """`1.0 - eps` or `1.0 - self.eps`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1.0):
        return False
    right = node.right
    return (isinstance(right, ast.Name) and right.id == "eps") or (
        isinstance(right, ast.Attribute) and right.attr == "eps")


def _is_division(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "divide")


def _is_tanh_call(node) -> bool:
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr == "tanh" and isinstance(func.value, ast.Name)
            and func.value.id == "np")


class _Sites(ast.NodeVisitor):
    """(module, innermost enclosing function) of each `np.tanh` call and
    of each division by something built from `1.0 - eps`."""

    def __init__(self, module):
        self.module, self.scope = module, ["<module>"]
        self.tanh, self.clip = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def generic_visit(self, node):
        site = (self.module, self.scope[-1])
        if _is_tanh_call(node):
            self.tanh.append(site)
        if _is_division(node) and any(map(_is_one_minus_eps, ast.walk(node))):
            if site not in self.clip:
                self.clip.append(site)
        super().generic_visit(node)


def projection_sites(src: Path = SRC) -> tuple[list, list]:
    """The `np.tanh` call sites and the clip-formula functions of the
    package source outside `_gmath`."""
    tanh, clip = [], []
    for path in sorted(src.glob("*.py")):
        if path.stem == "_gmath":
            continue
        sites = _Sites(path.stem)
        sites.visit(ast.parse(path.read_text()))
        tanh += sites.tanh
        clip += [s for s in sites.clip if s not in clip]
    return tanh, clip


def test_one_exp0_and_one_clip():
    tanh, clip = projection_sites()
    assert tanh == [("geometry", "_exp0")]
    assert clip == [("geometry", "_clip")]
