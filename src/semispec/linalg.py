"""Dense Hermitian linear algebra: eigendecompositions, spectral functions, traces.

Everything in the package is built on the three types defined here.
`HermitianOperator` is the universal carrier for Hamiltonians, density
matrices and compressed operators, and `hermitian_stack` is its
construction gate on a stack of matrices; `ScalarFunction` is a tagged real
function applied through the spectral theorem; `eig_hermitian_stack` is the
only eigensolver in `linalg`, `bipartite` and `inequalities`, and
`eig_hermitian` is its stack of one.  `schrodinger` takes grid spectra from
LAPACK's tridiagonal, banded and dense `eigvalsh` routines.

All values are immutable after construction and safe to share across
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Construction gate: asymmetry below this (relative) is averaged away,
# anything above is rejected as a genuinely non-Hermitian input.
HERMITICITY_ATOL = 1e-8

# Post-conditions on eigendecompositions (relative Frobenius).
RECONSTRUCTION_RTOL = 1e-10


class TraceImagWarning(UserWarning):
    """Diagonal of a nominally Hermitian matrix carried an imaginary residue."""


# ---------------------------------------------------------------------------
# operator carrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex self-adjoint matrix.

    The constructor is :func:`hermitian_stack` on a stack of one: it averages
    the input with its conjugate transpose, which removes round-off level
    asymmetry from composed operations.  Asymmetry beyond
    ``1e-8 * (1 + max|entry|)`` is an error rather than something to silently
    repair, and so is a NaN or infinite entry.
    """

    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        h = hermitian_stack(a[None])
        h.shape = a.shape  # in place: no view holding the stack of one alive
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


def hermitian_stack(mats) -> np.ndarray:
    """The Hermitian construction gate on a ``(k, d, d)`` stack, ``d >= 1``.

    Every entry must be finite, and each matrix Hermitian within
    ``HERMITICITY_ATOL * (1 + max|entry|)`` of its own entries.  Returns the
    read-only stack ``(A + A*) / 2``; on a matrix that is Hermitian by
    construction this average is exact and changes no bit.  An error names
    the first offending matrix by its stack index; a stack of one gets the
    bare message of :class:`HermitianOperator`.
    """
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (k, d, d) stack, got shape {a.shape}")
    if a.shape[1] < 1:
        raise ValueError("dimension must be at least 1")
    scale = 1.0 + np.abs(a).max(axis=(1, 2))
    ok = np.isfinite(scale)  # max|entry| is inf or NaN otherwise
    if not ok.all():
        s = int(np.argmin(ok))
        i, j = np.argwhere(~np.isfinite(a[s]))[0]
        raise ValueError(f"{_member(s, len(a))}matrix entry ({i}, {j}) is not finite: {complex(a[s, i, j])}")
    adj = a.conj().swapaxes(1, 2)
    asym = np.abs(a - adj).max(axis=(1, 2))
    ok = asym <= HERMITICITY_ATOL * scale
    if not ok.all():
        s = int(np.argmin(ok))
        raise ValueError(
            f"{_member(s, len(a))}matrix is not Hermitian: max asymmetry {asym[s]:.3e} exceeds "
            f"{HERMITICITY_ATOL:.0e} * {scale[s]:.3e}"
        )
    h = a + adj
    h /= 2.0
    h.flags.writeable = False
    return h


def _member(index: int, size: int) -> str:
    """Error prefix naming a stack member; empty for a stack of one."""
    return "" if size == 1 else f"stack index {index}: "


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def eig_hermitian_stack(mats) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a ``(k, d, d)`` stack of Hermitian matrices.

    Returns read-only ascending eigenvalues, shape ``(k, d)``, and
    orthonormal eigenvector columns, shape ``(k, d, d)``.  LAPACK runs on
    each matrix of the stack in turn, so every result is bit-identical to a
    stack of one holding that matrix.  Only the lower triangle is read.  The
    orthonormality and reconstruction residuals of every matrix are checked
    against the 1e-10 contract (a NaN residual fails it); the error names
    the first matrix out of contract by its stack index.
    """
    h = np.ascontiguousarray(mats, dtype=np.complex128)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected a (k, d, d) stack, got shape {h.shape}")
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigendecomposition failed to converge: {exc}") from exc
    # the residuals, a slab of about 2**13 entries at a time, reuse two buffers:
    # U*, then Lambda U*; U*U - I, then U Lambda U* - H
    ortho, resid = np.empty((2, len(h)))
    step = max(1, 2**13 // max(1, h.shape[1]) ** 2)
    for at in range(0, len(h), step):
        s = slice(at, at + step)
        vecs_h = vecs[s].conj().swapaxes(1, 2)
        gram = vecs_h @ vecs[s]
        gram.reshape(len(gram), -1)[:, :: h.shape[1] + 1] -= 1.0
        ortho[s] = _frobenius(gram)
        vecs_h *= vals[s, :, None]
        recon = np.matmul(vecs[s], vecs_h, out=gram)
        resid[s] = _frobenius(np.subtract(recon, h[s], out=recon))
    ok = (ortho <= RECONSTRUCTION_RTOL) & (resid <= RECONSTRUCTION_RTOL * (1.0 + _frobenius(h)))
    if not ok.all():
        i = int(np.argmin(ok))
        raise RuntimeError(
            f"eigendecomposition residuals out of contract at stack index {i}: "
            f"orthonormality {ortho[i]:.3e}, reconstruction {resid[i]:.3e}"
        )
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a contiguous complex ``(k, d, d)`` stack."""
    parts = stack.view(np.float64)
    return np.sqrt(np.einsum("kij,kij->k", parts, parts))


def eig_hermitian(op: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator: a stack of one.

    Deterministic for a fixed input; the residual contract and its error are
    those of :func:`eig_hermitian_stack`.
    """
    vals, vecs = eig_hermitian_stack(op.mat[None])
    return SpectralDecomposition(vals[0], vecs[0])


def _shifted_exp(vals: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The pivot and factors exp(-t (vals - pivot)) along the last axis.  The pivot,
    the smallest entry for t > 0 and the largest otherwise, keeps every factor in
    [0, 1] and one at 1: exp(-t pivot) * sum(factors) is finite wherever its value is."""
    pivot = vals.min(axis=-1) if t > 0 else vals.max(axis=-1)
    return pivot, np.exp(-t * (vals - pivot[..., None]))


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
    the caller, not verified (:meth:`check_midpoint_convexity` spot-checks it
    on an interval).
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    convex: bool

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def check_domain(self, eigenvalues: np.ndarray) -> None:
        """Raise if any eigenvalue lies outside the function's domain."""
        if self.kind == "power_neg":
            lo = float(np.min(eigenvalues))
            if lo <= 0.0:
                raise ValueError(
                    f"power_neg requires a strictly positive spectrum; "
                    f"smallest eigenvalue is {lo!r}"
                )

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
    return ScalarFunction("exp_neg", lambda x: np.exp(-t * x), True)


def power_neg(p: float) -> ScalarFunction:
    """x -> x**(-p) for p > 0; convex on x > 0."""
    if not p > 0:
        raise ValueError(f"power_neg requires p > 0, got {p}")
    return ScalarFunction("power_neg", lambda x: x ** (-p), True)


def affine(a: float, b: float) -> ScalarFunction:
    """x -> a x + b; convex (and concave), the equality case of Jensen."""
    return ScalarFunction("affine", lambda x: a * x + b, True)


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

