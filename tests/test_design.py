"""Design guards on the library source."""

import ast
from pathlib import Path

import semispec

SRC = Path(semispec.__file__).parent
DENSE_MODULES = ("linalg.py", "bipartite.py", "inequalities.py")


def _raw_eig_sites(path: Path) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every ``<pkg>.linalg.eig*`` use or import in a module."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr.startswith("eig")
                and isinstance(child.value, ast.Attribute)
                and child.value.attr == "linalg"
            ):
                sites.append((func, child.lineno))
            if (
                isinstance(child, ast.ImportFrom)
                and child.level == 0
                and (child.module or "").endswith("linalg")
                and any(alias.name.startswith("eig") for alias in child.names)
            ):
                sites.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_dense_spectra_only_through_eig_hermitian():
    # eig_hermitian is a stack of one on top of eig_hermitian_stack, the one raw call
    sites = {name: _raw_eig_sites(SRC / name) for name in DENSE_MODULES}
    stray = [
        (name, func, line) for name, found in sites.items() for func, line in found if func != "eig_hermitian_stack"
    ]
    assert stray == [], f"raw eigensolver calls outside eig_hermitian_stack: {stray}"
    # the scan does see the one sanctioned call
    assert [func for func, _ in sites["linalg.py"]] == ["eig_hermitian_stack"]
