"""Executable trace inequalities, each exposed as a nonnegative gap.

Every function returns ``RHS - LHS`` of the corresponding inequality (never a
boolean), so callers can distinguish round-off from a genuine violation and
test equality cases.  The uniform tolerance policy is: a gap counts as a
violation only below ``-1e-10 * (1 + |RHS|)``; :func:`violates` implements it.

Covered inequalities:

* scalar Jensen         f(<psi|H|psi>) <= <psi|f(H)|psi>
* partial-trace Jensen  Tr f(K_rho)    <= Tr[rho . Tr_2 f(H)]  with
  K_rho = Tr_1[(rho (x) 1) H] = Tr_1[(rho (x) 1)^(1/2) H (rho (x) 1)^(1/2)]
* Golden-Thompson       Tr e^(A+B)     <= Tr[e^(A/2) e^B e^(A/2)]
* sliced GT             Tr e^(-tH)     <= sum_m (e^(-tT))_mm Tr e^(-tW_m)
  for H = T (x) 1 + blockdiag(W_m)
* Gibbs principle       -ln Tr e^(-H)  <= Tr[rho H] + Tr[rho ln rho]

Every side is read off eigenvalues and eigenvector overlaps; no f(H) matrix
is formed only to take its trace.  Each public ``*_sides`` decomposes its
operators and passes the decompositions to one private helper holding the
formula; ``semispec ineq`` calls the same helpers with decompositions taken
from stacked eigensolver calls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bipartite import BipartiteDims, DensityMatrix, compress
from .linalg import (
    HermitianOperator,
    ScalarFunction,
    SpectralDecomposition,
    eig_hermitian,
    eig_hermitian_stack,
)

def violates(gap: float, rhs: float) -> bool:
    """True when a gap is negative beyond the scaled tolerance."""
    return gap < -1e-10 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Jensen, scalar and partial-trace forms
# ---------------------------------------------------------------------------


def jensen_scalar_sides(op: HermitianOperator, psi, f: ScalarFunction) -> tuple[float, float]:
    psi = np.asarray(psi, dtype=np.complex128)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"psi must be normalized; its norm is {nrm!r}")
    return _jensen_scalar_sides(op, eig_hermitian(op), psi, [f])[0]


def _jensen_scalar_sides(
    op: HermitianOperator, dec: SpectralDecomposition, psi: np.ndarray, functions: Sequence[ScalarFunction]
) -> list[tuple[float, float]]:
    """Both sides for each function, read off the decomposition ``dec`` of ``op``."""
    weights = np.abs(dec.eigenvectors.conj().T @ psi) ** 2
    expectation = float(np.real(np.vdot(psi, op.mat @ psi)))
    sides = []
    for f in functions:
        if not f.convex:
            raise ValueError("jensen_scalar_gap requires a convex function")
        f.check_domain(dec.eigenvalues)
        sides.append((float(f(expectation)), float(np.dot(weights, f(dec.eigenvalues)))))
    return sides


def jensen_scalar_gap(op: HermitianOperator, psi, f: ScalarFunction) -> float:
    """<psi|f(H)|psi> - f(<psi|H|psi>) for a unit vector and convex f."""
    lhs, rhs = jensen_scalar_sides(op, psi, f)
    return rhs - lhs


def jensen_partial_trace_sides(
    op: HermitianOperator, rho: DensityMatrix, dims: BipartiteDims, f: ScalarFunction
) -> tuple[float, float]:
    dims.check(op)
    kappa = eig_hermitian(compress(op, rho, dims)).eigenvalues
    return _jensen_partial_trace_sides(eig_hermitian(op), kappa, rho, dims, [f])[0]


def _jensen_partial_trace_sides(
    dec: SpectralDecomposition,
    kappa: np.ndarray,
    rho: DensityMatrix,
    dims: BipartiteDims,
    functions: Sequence[ScalarFunction],
) -> list[tuple[float, float]]:
    """Both sides for each function, from the decomposition of H and the spectrum of K_rho."""
    # Tr[rho . Tr_2 f(H)] = sum_k f(lambda_k) <u_k|rho (x) 1|u_k>
    u = dec.eigenvectors.reshape(dims.dim1, dims.dim2, -1)
    weights = np.real(np.einsum("ank,ab,bnk->k", u.conj(), rho.op.mat, u))
    sides = []
    for f in functions:
        if not f.convex:
            raise ValueError("jensen_partial_trace_gap requires a convex function")
        f.check_domain(kappa)
        lhs = float(np.sum(f(kappa)))
        f.check_domain(dec.eigenvalues)
        sides.append((lhs, float(np.dot(weights, f(dec.eigenvalues)))))
    return sides


def jensen_partial_trace_gap(
    op: HermitianOperator, rho: DensityMatrix, dims: BipartiteDims, f: ScalarFunction
) -> float:
    """Tr[rho . Tr_2 f(H)] - Tr f(K_rho); both sides are full traces (scalars)."""
    lhs, rhs = jensen_partial_trace_sides(op, rho, dims, f)
    return rhs - lhs


# ---------------------------------------------------------------------------
# Golden-Thompson, plain and sliced
# ---------------------------------------------------------------------------


def golden_thompson_sides(a: HermitianOperator, b: HermitianOperator) -> tuple[float, float]:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _golden_thompson_sides(eig_hermitian(a + b), eig_hermitian(a), eig_hermitian(b))


def _golden_thompson_sides(
    dsum: SpectralDecomposition, da: SpectralDecomposition, db: SpectralDecomposition
) -> tuple[float, float]:
    """Both sides from the decompositions of A + B, A and B."""
    lhs = float(np.sum(np.exp(dsum.eigenvalues)))
    # Tr[e^(A/2) e^B e^(A/2)] = Tr[e^A e^B] = e^a . |U* V|^2 . e^b
    overlaps = np.abs(da.eigenvectors.conj().T @ db.eigenvectors) ** 2
    rhs = float(np.exp(da.eigenvalues) @ overlaps @ np.exp(db.eigenvalues))
    return lhs, rhs


def golden_thompson_gap(a: HermitianOperator, b: HermitianOperator) -> float:
    """Tr[e^(A/2) e^B e^(A/2)] - Tr[e^(A+B)]; zero when A and B commute."""
    lhs, rhs = golden_thompson_sides(a, b)
    return rhs - lhs


def sliced_hamiltonian(t_op: HermitianOperator, blocks: Sequence[HermitianOperator]) -> HermitianOperator:
    """H = T (x) 1 + sum_m |e_m><e_m| (x) W_m on the M*N product space."""
    m = t_op.dim
    if len(blocks) != m:
        raise ValueError(f"need one block per basis vector: {len(blocks)} != {m}")
    n = blocks[0].dim
    if any(w.dim != n for w in blocks):
        raise ValueError("all blocks must share one dimension")
    h = np.kron(t_op.mat, np.eye(n, dtype=np.complex128))
    for i, w in enumerate(blocks):
        h[i * n : (i + 1) * n, i * n : (i + 1) * n] += w.mat
    return HermitianOperator(h)


def sliced_gt_sides(
    t_op: HermitianOperator, blocks: Sequence[HermitianOperator], t: float
) -> tuple[float, float]:
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    h = sliced_hamiltonian(t_op, blocks)
    block_vals, _ = eig_hermitian_stack([w.mat for w in blocks])
    return _sliced_gt_sides(eig_hermitian(h), eig_hermitian(t_op), block_vals, t)


def _sliced_gt_sides(
    dh: SpectralDecomposition, dt: SpectralDecomposition, block_vals: Sequence[np.ndarray], t: float
) -> tuple[float, float]:
    """Both sides from the decompositions of H and T and the spectrum of each block."""
    lhs = float(np.sum(np.exp(-t * dh.eigenvalues)))
    # (e^(-tT))_mm = sum_k |U_mk|^2 e^(-t lambda_k)
    damp = np.abs(dt.eigenvectors) ** 2 @ np.exp(-t * dt.eigenvalues)
    block_traces = [np.sum(np.exp(-t * vals)) for vals in block_vals]
    rhs = float(damp @ block_traces)
    return lhs, rhs


def sliced_gt_gap(t_op: HermitianOperator, blocks: Sequence[HermitianOperator], t: float) -> float:
    """Blockwise Golden-Thompson gap for H = T (x) 1 + blockdiag(W).

    ``sum_m (e^(-tT))[m,m] Tr e^(-t W_m) - Tr e^(-tH)``, the discrete
    analogue of bounding a heat trace by a phase-space integral of
    transverse heat traces.  Zero when T is diagonal or all blocks agree.
    """
    lhs, rhs = sliced_gt_sides(t_op, blocks, t)
    return rhs - lhs


# ---------------------------------------------------------------------------
# Gibbs variational principle
# ---------------------------------------------------------------------------


def gibbs_sides(rho: DensityMatrix, op: HermitianOperator) -> tuple[float, float]:
    if rho.dim != op.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {op.dim}")
    return _gibbs_sides(rho, op, eig_hermitian(op).eigenvalues)


def _gibbs_sides(rho: DensityMatrix, op: HermitianOperator, vals: np.ndarray) -> tuple[float, float]:
    """Both sides from the spectrum ``vals`` of H; the entropy uses the spectrum rho keeps."""
    energy = float(np.real(np.vdot(rho.op.mat, op.mat)))  # Tr[rho H], both Hermitian
    rhs = energy + rho.entropy_term()
    # log-sum-exp keeps ln Z finite for large spectra
    shift = float(np.min(vals))
    lhs = -(float(np.log(np.sum(np.exp(-(vals - shift))))) - shift)
    return lhs, rhs


def gibbs_gap(rho: DensityMatrix, op: HermitianOperator) -> float:
    """Free-energy gap Tr[rho H] + Tr[rho ln rho] + ln Tr[e^(-H)].

    Nonnegative for every state; zero exactly at the Gibbs state
    e^(-H) / Tr e^(-H).  The entropy term uses 0 ln 0 := 0.
    """
    lhs, rhs = gibbs_sides(rho, op)
    return rhs - lhs


def gibbs_state(op: HermitianOperator, s: float = 1.0) -> DensityMatrix:
    """Normalized e^(-s H), the minimizer of the Gibbs functional at s = 1."""
    dec = eig_hermitian(op)
    w = np.exp(-s * (dec.eigenvalues - np.min(dec.eigenvalues)))
    w = w / np.sum(w)
    u = dec.eigenvectors
    return DensityMatrix(HermitianOperator((u * w) @ u.conj().T))
