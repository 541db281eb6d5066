"""The package compares a norm against the construction margin in one place.

`BallPoint`, the pole matrix of `MultiplierParams`, the rows of `gram`,
the samplers of `checks` and the projected points of the geodesic
baseline (`learning._baseline_scores`) all reject a point with
sqrt(c)*||z|| >= 1 - BOUNDARY_MARGIN through `geometry._check_interior`.
The scan reads the package source for comparisons against
`1.0 - BOUNDARY_MARGIN`, and against its square, which compares squared
norms: no such copy is left.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hypkernels"


def _is_margin(node) -> bool:
    """`1.0 - BOUNDARY_MARGIN`."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1.0
            and isinstance(node.right, ast.Name) and node.right.id == "BOUNDARY_MARGIN")


def _is_squared_margin(node) -> bool:
    """`(1.0 - BOUNDARY_MARGIN) ** 2`."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and _is_margin(node.left))


class _Sites(ast.NodeVisitor):
    """(module, innermost enclosing function) of each comparison with the
    margin, or with its square, as an operand."""

    def __init__(self, module):
        self.module, self.scope = module, ["<module>"]
        self.plain, self.squared = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Compare(self, node):
        site = (self.module, self.scope[-1])
        for operand in (node.left, *node.comparators):
            if _is_margin(operand):
                self.plain.append(site)
            if _is_squared_margin(operand):
                self.squared.append(site)
        self.generic_visit(node)


def margin_sites(src: Path = SRC) -> tuple[list, list]:
    """The comparisons against the margin and against its square in the
    package source."""
    plain, squared = [], []
    for path in sorted(src.glob("*.py")):
        sites = _Sites(path.stem)
        sites.visit(ast.parse(path.read_text()))
        plain += sites.plain
        squared += sites.squared
    return plain, squared


def test_one_margin_comparison():
    plain, squared = margin_sites()
    assert plain == [("geometry", "_check_interior")]
    assert squared == []
