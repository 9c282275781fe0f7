"""Design guards on the library source."""

import ast
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest

import semispec

SRC = Path(semispec.__file__).parent
DENSE_MODULES = ("linalg.py", "bipartite.py", "inequalities.py")
# the compile() peak of any one module, in KB: without cached bytecode every process compiles
# the sources, and the largest module's peak is a high-water mark that the process keeps.
# Measured on CPython 3.11.7; the peak depends on the interpreter's parser and compiler.
COMPILE_PEAK_KB = 2300
COMPILE_PEAK_PYTHON = ("cpython", (3, 11))


def _sites(source: str, match: Callable[[ast.AST], bool]) -> list[tuple[str | None, int]]:
    """(innermost enclosing function, line) of every node of ``source`` that ``match`` accepts."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                sites.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return sites


def _is_raw_eig(node: ast.AST) -> bool:
    """A ``<pkg>.linalg.eig*`` use, or an import of one."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr.startswith("eig")
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    ) or (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").endswith("linalg")
        and any(alias.name.startswith("eig") for alias in node.names)
    )


def _raw_eig_sites(path: Path) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every ``<pkg>.linalg.eig*`` use or import in a module."""
    return _sites(path.read_text(), _is_raw_eig)


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


def _is_square_division(node: ast.AST) -> bool:
    """A division whose divisor is a square, ``x / y**2``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Pow)
        and isinstance(node.right.right, ast.Constant)
        and node.right.right.value == 2
    )


def test_the_stencil_coefficients_are_written_in_stencil_alone():
    # every grid coefficient k/h^2, in the operator's matrices, counts, bounds and frames, comes from _stencil
    sites = {name: _sites((SRC / name).read_text(), _is_square_division) for name in ("schrodinger.py", "_frames.py")}
    stray = [(name, func, line) for name, found in sites.items() for func, line in found if func != "_stencil"]
    assert stray == [], f"stencil coefficients written outside schrodinger._stencil: {stray}"
    assert [func for func, _ in sites["schrodinger.py"]] == ["_stencil", "_stencil"]
    # the scan does see a coefficient written by hand, in a method, a generator and a function
    planted = (
        "class Grid:\n"
        "    def dense(self):\n"
        "        return -1.0 / self.spacing[0] ** 2\n"
        "def _diagonal(op):\n"
        "    return sum(2.0 / h**2 for h in op.spacing) + op.potential\n"
        "def _block_negcount(hx, hy):\n"
        "    return 2.0 / hx**2 + 2.0 / hy**2, 2.0 / (hx * hx), hx**2 / 2.0\n"
    )
    # (two per line in _block_negcount, and not 2 / (hx * hx) nor hx**2 / 2)
    found = _sites(planted, _is_square_division)
    assert found == [("dense", 3), ("_diagonal", 5), ("_block_negcount", 7), ("_block_negcount", 7)]


def test_the_2d_count_builds_one_matrix_per_sweep():
    # _schur_rows allocates its one buffer (and copies a passed state into it); nothing else in
    # the 2d kernel makes a matrix or walks one entry by entry
    uses = _names_by_function(SRC / "schrodinger.py")
    builders = {"zeros", "empty", "full", "array", "fill_diagonal", "flat", "multiply"}
    assert uses["_block_negcount"] & builders == {"full"}  # the chain's two diagonals
    assert uses["_schur_rows"] & builders == {"zeros", "array"}


def test_cli_draws_operators_without_the_hermitian_gate():
    # draw_hermitian is Hermitian by construction: a gate around it would only check it again
    gated = [
        node for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "hermitian_stack"
    ]
    assert gated and all("draw_density" in _names_in(node) for node in gated)


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


def _compile_peak_kb(source: str, name: str) -> float:
    """The tracemalloc peak of compiling ``source`` once, in KB."""
    tracemalloc.start()
    try:
        compile(source, name, "exec")
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(
    (sys.implementation.name, sys.version_info[:2]) != COMPILE_PEAK_PYTHON,
    reason="the compile() peak bound was measured on CPython 3.11",
)
def test_no_module_compiles_above_the_peak_bound():
    # the median of five compiles; a large new subsystem belongs in a module of its own
    peaks = {
        path.name: statistics.median(_compile_peak_kb(path.read_text(), path.name) for _ in range(5))
        for path in sorted(SRC.glob("*.py"))
    }
    over = {name: round(kb) for name, kb in peaks.items() if kb > COMPILE_PEAK_KB}
    assert over == {}, f"modules whose compile() peak exceeds {COMPILE_PEAK_KB} KB: {over}"
    # the measure does see a module's size: the largest is over half the bound
    assert max(peaks.values()) > COMPILE_PEAK_KB / 2
