"""Dense Hermitian linear algebra: eigendecompositions, spectral functions, traces.

Everything in the package is built on the three types defined here.
`HermitianOperator` is the universal carrier for Hamiltonians, density
matrices and compressed operators; `ScalarFunction` is a tagged real
function applied through the spectral theorem; `eig_hermitian` is the only
eigensolver in `linalg`, `bipartite` and `inequalities`.  `schrodinger` takes
grid spectra from LAPACK's tridiagonal, banded and dense `eigvalsh` routines.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Construction gate: asymmetry below this (relative) is averaged away,
# anything above is rejected as a genuinely non-Hermitian input.
HERMITICITY_ATOL = 1e-8

# Post-conditions on eigendecompositions (relative Frobenius).
RECONSTRUCTION_RTOL = 1e-10

# When True, `custom` scalar functions declared convex are spot-checked for
# midpoint convexity on the spectral hull whenever their domain is checked.
DEBUG_CONVEXITY = False


class TraceImagWarning(UserWarning):
    """Diagonal of a nominally Hermitian matrix carried an imaginary residue."""


# ---------------------------------------------------------------------------
# operator carrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex self-adjoint matrix.

    The constructor averages the input with its conjugate transpose, which
    removes round-off level asymmetry from composed operations.  Asymmetry
    beyond ``1e-8 * (1 + max|entry|)`` is an error rather than something to
    silently repair.
    """

    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        scale = 1.0 + float(np.abs(a).max(initial=0.0))
        asym = float(np.abs(a - a.conj().T).max(initial=0.0))
        if asym > HERMITICITY_ATOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
                f"{HERMITICITY_ATOL:.0e} * {scale:.3e}"
            )
        h = (a + a.conj().T) / 2.0
        h.flags.writeable = False
        object.__setattr__(self, "mat", h)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_diag(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=np.complex128)))

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=np.complex128))

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.mat + other.mat)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.mat - other.mat)

    def __mul__(self, c: float) -> "HermitianOperator":
        return HermitianOperator(self.mat * float(c))

    __rmul__ = __mul__

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.mat))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def eig_hermitian(op: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator.

    Deterministic for a fixed input.  The orthonormality and reconstruction
    residuals are checked against the 1e-10 contract and reported in the
    error message on failure.
    """
    h = op.mat
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    vals = np.asarray(vals, dtype=float)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    dec = SpectralDecomposition(vals, vecs)
    n = h.shape[0]
    ortho = float(np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)))
    recon = float(np.linalg.norm(dec.reconstruct() - h))
    hnorm = float(np.linalg.norm(h))
    if ortho > RECONSTRUCTION_RTOL or recon > RECONSTRUCTION_RTOL * (1.0 + hnorm):
        raise RuntimeError(
            "eigendecomposition residuals out of contract: "
            f"orthonormality {ortho:.3e}, reconstruction {recon:.3e}"
        )
    return dec


def trace(op) -> float:
    """Real trace.  Warns if the imaginary residue exceeds 1e-12 (relative)."""
    mat = op.mat if isinstance(op, HermitianOperator) else np.asarray(op)
    diag = np.diagonal(mat)
    imag = float(abs(np.sum(np.imag(diag))))
    scale = 1.0 + float(np.abs(diag).max(initial=0.0))
    if imag > 1e-12 * scale:
        warnings.warn(
            f"trace imaginary residue {imag:.3e} exceeds 1e-12 relative",
            TraceImagWarning,
            stacklevel=2,
        )
    return float(np.sum(np.real(diag)))


# ---------------------------------------------------------------------------
# scalar functions applied spectrally
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFunction:
    """Tagged real function, applied to operators through their spectrum.

    ``kind`` is one of ``exp_neg``, ``power_neg``, ``affine``,
    ``positive_part``, ``square``, ``custom``.  All built-in kinds are convex
    on their stated domains; a ``custom`` function's convexity is declared by
    the caller, not verified (enable ``DEBUG_CONVEXITY`` for a midpoint spot
    check on the spectral hull).
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    convex: bool
    params: tuple = ()

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def check_domain(self, eigenvalues: np.ndarray) -> None:
        """Raise if any eigenvalue lies outside the function's domain.

        Under ``DEBUG_CONVEXITY`` also spot-check a declared-convex ``custom``
        function on the spectral hull, unless the hull is a single point.
        """
        if self.kind == "power_neg":
            lo = float(np.min(eigenvalues))
            if lo <= 0.0:
                raise ValueError(
                    f"power_neg requires a strictly positive spectrum; "
                    f"smallest eigenvalue is {lo!r}"
                )
        if DEBUG_CONVEXITY and self.kind == "custom" and self.convex:
            lo, hi = float(np.min(eigenvalues)), float(np.max(eigenvalues))
            if hi > lo:
                self.check_midpoint_convexity(lo, hi)

    def check_midpoint_convexity(self, lo: float, hi: float, samples: int = 33) -> None:
        """Spot-check f((x+y)/2) <= (f(x)+f(y))/2 on a mesh of [lo, hi]."""
        xs = np.linspace(lo, hi, samples)
        fx = self(xs)
        for i in range(samples):
            for j in range(i + 1, samples):
                mid = self(0.5 * (xs[i] + xs[j]))
                if mid > 0.5 * (fx[i] + fx[j]) + 1e-10 * (1.0 + abs(mid)):
                    raise ValueError(
                        f"function declared convex fails midpoint convexity at "
                        f"({xs[i]:.6g}, {xs[j]:.6g})"
                    )


def exp_neg(t: float) -> ScalarFunction:
    """x -> exp(-t x) for t > 0; convex on all of R."""
    if not t > 0:
        raise ValueError(f"exp_neg requires t > 0, got {t}")
    return ScalarFunction("exp_neg", lambda x: np.exp(-t * x), True, (float(t),))


def power_neg(p: float) -> ScalarFunction:
    """x -> x**(-p) for p > 0; convex on x > 0."""
    if not p > 0:
        raise ValueError(f"power_neg requires p > 0, got {p}")
    return ScalarFunction("power_neg", lambda x: x ** (-p), True, (float(p),))


def affine(a: float, b: float) -> ScalarFunction:
    """x -> a x + b; convex (and concave), the equality case of Jensen."""
    return ScalarFunction("affine", lambda x: a * x + b, True, (float(a), float(b)))


def positive_part() -> ScalarFunction:
    """x -> max(x, 0)."""
    return ScalarFunction("positive_part", lambda x: np.maximum(x, 0.0), True)


def square() -> ScalarFunction:
    """x -> x**2."""
    return ScalarFunction("square", lambda x: x * x, True)


def custom(fn: Callable[[np.ndarray], np.ndarray], convex: bool = False) -> ScalarFunction:
    """Wrap an arbitrary callable; convexity is declared, not checked."""
    return ScalarFunction("custom", fn, bool(convex))


def apply_function(op: HermitianOperator, f: ScalarFunction) -> HermitianOperator:
    """f(H) through the spectral theorem: U f(Lambda) U*.

    The spectrum is checked against the domain of ``f`` first; the result is
    Hermitian and commutes with H up to the eigendecomposition contract.
    """
    dec = eig_hermitian(op)
    f.check_domain(dec.eigenvalues)
    fvals = np.asarray(f(dec.eigenvalues), dtype=float)
    u = dec.eigenvectors
    return HermitianOperator((u * fvals) @ u.conj().T)


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (the C library's ``lgamma``)."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# text dump format
# ---------------------------------------------------------------------------


def format_operator(op: HermitianOperator) -> str:
    """Text dump: first line ``dim N``, then N*N lines ``re im`` row-major."""
    lines = [f"dim {op.dim}"]
    flat = op.mat.ravel()
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in flat)
    return "\n".join(lines) + "\n"


def parse_operator(text: str) -> HermitianOperator:
    """Inverse of :func:`format_operator`."""
    lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ValueError(f"expected 'dim N' header, got {lines[0]!r}")
    n = int(head[1])
    if len(lines) - 1 != n * n:
        raise ValueError(f"expected {n * n} entry lines, got {len(lines) - 1}")
    entries = np.empty(n * n, dtype=np.complex128)
    for i, ln in enumerate(lines[1:]):
        re_s, im_s = ln.split()
        entries[i] = complex(float(re_s), float(im_s))
    return HermitianOperator(entries.reshape(n, n))


def save_operator(path, op: HermitianOperator) -> None:
    with open(path, "w") as fh:
        fh.write(format_operator(op))


def load_operator(path) -> HermitianOperator:
    with open(path) as fh:
        return parse_operator(fh.read())
