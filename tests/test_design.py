"""Design guards on the library source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _used_names(path: Path) -> set[str]:
    """Every name a module defines, reads, imports or takes as an attribute."""
    return _names_in(ast.parse(path.read_text()))


def _names_in(tree: ast.AST) -> set[str]:
    """Every name a syntax tree defines, reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _solver_names(names: set[str]) -> set[str]:
    """The eigensolvers and derived-matrix builders among ``names``."""
    return {n for n in names if n.lstrip("_").startswith("eig") or n in ("compress_stack", "sliced_stack")}


def test_cli_leaves_solves_and_derived_matrices_to_inequalities():
    # each inequality's stacked evaluator forms, gates and decomposes its own matrices
    assert _solver_names(_used_names(SRC / "cli.py")) == set()
    # the scan does see them where they are used
    assert _solver_names(_used_names(SRC / "inequalities.py")) >= {
        "_eig_by_dim", "eig_hermitian_stack", "compress_stack", "sliced_stack"
    }


def _names_by_function(path: Path) -> dict[str | None, set[str]]:
    """The names each top-level function of a module uses (nested functions
    included), and under None those of the module's other statements."""
    found: dict[str | None, set[str]] = {}
    for node in ast.parse(path.read_text()).body:
        func = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        found.setdefault(func, set()).update(_names_in(node))
    return found


def test_grid_spectra_only_through_spectrum_and_ground_energy():
    # raw grid eigensolvers are confined to spectrum and ground_energy
    sites = _raw_eig_sites(SRC / "schrodinger.py")
    stray = [(func, line) for func, line in sites if func not in ("spectrum", "ground_energy")]
    assert stray == [], f"raw eigensolver calls outside spectrum and ground_energy: {stray}"
    # scipy's tridiagonal solver is left only the full spectrum: no window, no index range
    assert {func for func, _ in sites} == {"spectrum"}
    calls = [
        node for node in ast.walk(ast.parse((SRC / "schrodinger.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "eigvalsh_tridiagonal"
    ]
    assert calls and all(not node.keywords and len(node.args) == 2 for node in calls)
    # the LAPACK binding lives in _lapack.stebz alone; _lapack is imported only by
    # _sector_windows, and only spectrum and ground_energy call that
    uses = {
        (path.name, func): names for path in sorted(SRC.glob("*.py")) for func, names in _names_by_function(path).items()
    }
    assert {site for site, names in uses.items() if names & {"ctypes", "cython_lapack"}} == {("_lapack.py", "stebz")}
    importers = {site for site, names in uses.items() if "_lapack" in names}
    assert importers == {("schrodinger.py", "_sector_windows")}
    callers = {site for site, names in uses.items() if "_sector_windows" in names} - importers
    assert callers == {("schrodinger.py", "spectrum"), ("schrodinger.py", "ground_energy")}


def _import_time_modules(path: Path) -> set[str]:
    """Top-level packages, and modules of this package, that a module imports
    when it is itself imported (function bodies excluded)."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.update(alias.name.split(".")[0] for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.add(child.module.split(".")[0])
            elif isinstance(child, ast.ImportFrom):
                found.update([child.module] if child.module else [alias.name for alias in child.names])
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_no_module_imports_threads_ctypes_or_scipy_when_imported():
    # importing semispec stays as cheap as before; the sector threads and the LAPACK binding load on first use
    found = {path.name: _import_time_modules(path) for path in sorted(SRC.glob("*.py"))}
    stray = {name: mods & {"ctypes", "concurrent", "threading", "scipy", "_lapack"} for name, mods in found.items()}
    assert {name: mods for name, mods in stray.items() if mods} == {}
    # _lapack imports nothing until one of its functions runs
    assert found["_lapack.py"] == {"__future__"}
    # the scan does see module-level imports, relative ones too, and not those inside functions
    assert "numpy" in found["schrodinger.py"] and "scipy" not in found["schrodinger.py"]
    assert {"_frames", "linalg"} <= found["schrodinger.py"]


@pytest.mark.parametrize("argv", [["constants", "--gamma", "2"], ["ineq", "--trials", "1", "--dims", "2x2"]])
def test_scipy_free_commands_never_load_scipy(argv):
    # only schrodinger uses scipy, importing scipy.linalg (and _lapack, with its thread pool) inside its functions
    script = (
        "import sys\n"
        "from semispec import cli\n"
        f"code = cli.main({argv!r})\n"
        "loaded = {'scipy', 'semispec._lapack', 'concurrent.futures'} & set(sys.modules)\n"
        "assert not loaded, f'{sorted(loaded)} were imported'\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
