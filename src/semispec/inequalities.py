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
is formed only to take its trace.  Each inequality is evaluated by one
private helper on a stack of gated inputs of one shape: it forms and gates
the matrices derived from them (K_rho, A + B, the sliced H), applies the
state gate, and decomposes every matrix in one stacked solve per dimension
(:func:`_eig_by_dim`).  The public ``*_sides`` check their arguments and
call it on a stack of one; ``semispec ineq`` calls it on each shape group
of a block of trials.  The helpers reduce with stacked ``matmul`` and
``einsum`` and row-wise ``np.sum``, each of which gives every member the
bits that the same reduction gives it alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bipartite import BipartiteDims, DensityMatrix, compress_stack, entropy_terms, state_stack
from .linalg import HermitianOperator, ScalarFunction, eig_hermitian, eig_hermitian_stack, hermitian_stack


def _group(keys) -> dict:
    """Positions of each key, keys in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _eig_by_dim(*stacks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues and eigenvectors of gated ``(k, d, d)`` stacks, in order;
    one :func:`eig_hermitian_stack` call per dimension d."""
    out = [None] * len(stacks)
    for idx in _group(s.shape[1] for s in stacks).values():
        members = [stacks[i] for i in idx]
        vals, vecs = eig_hermitian_stack(members[0] if len(members) == 1 else np.concatenate(members))
        at = 0
        for i, s in zip(idx, members):
            out[i] = (vals[at : at + len(s)], vecs[at : at + len(s)])
            at += len(s)
    return out


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two ``(k, d)`` stacks: a stacked ``matmul``,
    which takes each row's dot product as ``np.dot`` takes it alone."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def violates(gap: float, rhs: float) -> bool:
    """True when a gap is negative beyond the scaled tolerance (elementwise on arrays)."""
    return gap < -1e-10 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Jensen, scalar and partial-trace forms
# ---------------------------------------------------------------------------


def jensen_scalar_sides(op: HermitianOperator, psi, f: ScalarFunction) -> tuple[float, float]:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (op.dim,):
        raise ValueError(f"psi must have shape ({op.dim},) for a {op.dim}-dim operator, got {psi.shape}")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"psi must be normalized; its norm is {nrm!r}")
    lhs, rhs = _jensen_scalar_sides(op.mat[None], psi[None], [f])
    return float(lhs[0, 0]), float(rhs[0, 0])


def _jensen_scalar_sides(
    mats: np.ndarray, psi: np.ndarray, functions: Sequence[ScalarFunction]
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, shape ``(k, len(functions))``, for a gated ``(k, d, d)`` stack
    and unit vectors ``psi`` of shape ``(k, d)``."""
    [(vals, vecs)] = _eig_by_dim(mats)
    weights = np.abs(vecs.conj().swapaxes(1, 2) @ psi[:, :, None])[..., 0] ** 2
    expectation = np.real(_rowdot(psi.conj(), (mats @ psi[:, :, None])[..., 0]))
    lhs, rhs = [], []
    for f in functions:
        if not f.convex:
            raise ValueError("jensen_scalar_gap requires a convex function")
        f.check_domain(vals)
        lhs.append(f(expectation))
        rhs.append(_rowdot(weights, f(vals)))
    return np.stack(lhs, axis=1), np.stack(rhs, axis=1)


def jensen_scalar_gap(op: HermitianOperator, psi, f: ScalarFunction) -> float:
    """<psi|f(H)|psi> - f(<psi|H|psi>) for a unit vector and convex f."""
    lhs, rhs = jensen_scalar_sides(op, psi, f)
    return rhs - lhs


def jensen_partial_trace_sides(
    op: HermitianOperator, rho: DensityMatrix, dims: BipartiteDims, f: ScalarFunction
) -> tuple[float, float]:
    dims.check(op)
    if rho.dim != dims.dim1:
        raise ValueError(f"state dimension {rho.dim} does not match dim1 {dims.dim1}")
    lhs, rhs = _jensen_partial_trace_sides(op.mat[None], rho.op.mat[None], dims, [f])
    return float(lhs[0, 0]), float(rhs[0, 0])


def _jensen_partial_trace_sides(
    mats: np.ndarray, states: np.ndarray, dims: BipartiteDims, functions: Sequence[ScalarFunction]
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, shape ``(k, len(functions))``, for a gated ``(k, MN, MN)`` stack
    of H and a Hermitian-gated ``(k, M, M)`` stack of states."""
    compressed = hermitian_stack(compress_stack(mats, states, dims))
    (vals, vecs), (kappa, _), (state_vals, _) = _eig_by_dim(mats, compressed, states)
    state_stack(states, state_vals)
    # Tr[rho . Tr_2 f(H)] = sum_k f(lambda_k) <u_k|rho (x) 1|u_k>
    u = vecs.reshape(len(vecs), dims.dim1, dims.dim2, -1)
    weights = np.real(np.einsum("tank,tab,tbnk->tk", u.conj(), states, u))
    lhs, rhs = [], []
    for f in functions:
        if not f.convex:
            raise ValueError("jensen_partial_trace_gap requires a convex function")
        f.check_domain(kappa)
        lhs.append(np.sum(f(kappa), axis=1))
        f.check_domain(vals)
        rhs.append(_rowdot(weights, f(vals)))
    return np.stack(lhs, axis=1), np.stack(rhs, axis=1)


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
    lhs, rhs = _golden_thompson_sides(a.mat[None], b.mat[None])
    return float(lhs[0]), float(rhs[0])


def _golden_thompson_sides(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, shape ``(k,)``, for two gated ``(k, d, d)`` stacks of A and B,
    dropped once A + B, A and B are concatenated: the solve holds only the copy."""
    mats = np.concatenate([hermitian_stack(a + b), a, b])
    del a, b
    [(vals, vecs)] = _eig_by_dim(mats)
    sum_vals, a_vals, b_vals = vals.reshape(3, -1, vals.shape[1])
    _, a_vecs, b_vecs = vecs.reshape(3, -1, *vecs.shape[1:])
    lhs = np.sum(np.exp(sum_vals), axis=1)
    # Tr[e^(A/2) e^B e^(A/2)] = Tr[e^A e^B] = e^a . |U* V|^2 . e^b
    overlaps = np.abs(a_vecs.conj().swapaxes(1, 2) @ b_vecs) ** 2
    rhs = _rowdot((np.exp(a_vals)[:, None, :] @ overlaps)[:, 0], np.exp(b_vals))
    return lhs, rhs


def golden_thompson_gap(a: HermitianOperator, b: HermitianOperator) -> float:
    """Tr[e^(A/2) e^B e^(A/2)] - Tr[e^(A+B)]; zero when A and B commute."""
    lhs, rhs = golden_thompson_sides(a, b)
    return rhs - lhs


def _block_stack(t_op: HermitianOperator, blocks: Sequence[HermitianOperator]) -> np.ndarray:
    """The ``(M, N, N)`` stack of the blocks, one per basis vector of T, all of one dimension."""
    m = t_op.dim
    if len(blocks) != m:
        raise ValueError(f"need one block per basis vector: {len(blocks)} != {m}")
    n = blocks[0].dim
    if any(w.dim != n for w in blocks):
        raise ValueError("all blocks must share one dimension")
    return np.stack([w.mat for w in blocks])


def sliced_hamiltonian(t_op: HermitianOperator, blocks: Sequence[HermitianOperator]) -> HermitianOperator:
    """H = T (x) 1 + sum_m |e_m><e_m| (x) W_m on the M*N product space."""
    return HermitianOperator(sliced_stack(t_op.mat[None], _block_stack(t_op, blocks)[None])[0])


def sliced_stack(t_mats: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """:func:`sliced_hamiltonian` of each member of a ``(k, M, M)`` stack of T and a
    ``(k, M, N, N)`` stack of blocks; the raw ``(k, MN, MN)`` result, before the
    Hermitian gate.  T (x) 1 is formed as ``np.kron`` forms it."""
    k, m, n = len(t_mats), t_mats.shape[1], blocks.shape[2]
    h = t_mats[:, :, None, :, None] * np.eye(n, dtype=np.complex128)[:, None, :]
    for i in range(m):
        h[:, i, :, i, :] += blocks[:, i]
    return h.reshape(k, m * n, m * n)


def sliced_gt_sides(
    t_op: HermitianOperator, blocks: Sequence[HermitianOperator], t: float
) -> tuple[float, float]:
    if not 0 < t < np.inf:
        raise ValueError(f"t must be positive, got {t}")
    lhs, rhs = _sliced_gt_sides(t_op.mat[None], _block_stack(t_op, blocks)[None], t)
    if np.isnan(rhs[0]):  # a damping factor underflowed to 0 and a block trace overflowed to inf
        raise ValueError(f"t={t!r} puts the sliced Golden-Thompson sides out of float range (0 * inf)")
    return float(lhs[0]), float(rhs[0])


def _sliced_gt_sides(t_mats: np.ndarray, blocks: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, shape ``(k,)``, for a gated ``(k, M, M)`` stack of T and a
    ``(k, M, N, N)`` stack of gated blocks."""
    k, m, n = blocks.shape[:3]
    h = hermitian_stack(sliced_stack(t_mats, blocks))
    (h_vals, _), (t_vals, t_vecs), (block_vals, _) = _eig_by_dim(h, t_mats, blocks.reshape(k * m, n, n))
    lhs = np.sum(np.exp(-t * h_vals), axis=1)
    # (e^(-tT))_mm = sum_k |U_mk|^2 e^(-t lambda_k)
    damp = (np.abs(t_vecs) ** 2 @ np.exp(-t * t_vals)[:, :, None])[..., 0]
    block_traces = np.sum(np.exp(-t * block_vals.reshape(k, m, n)), axis=2)
    rhs = _rowdot(damp, block_traces)
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
    lhs, rhs = _gibbs_sides(rho.op.mat[None], op.mat[None])
    return float(lhs[0]), float(rhs[0])


def _gibbs_sides(states: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides, shape ``(k,)``, for a Hermitian-gated ``(k, d, d)`` stack of
    states and a gated stack of H."""
    (vals, _), (state_vals, _) = _eig_by_dim(mats, states)
    entropies = entropy_terms(state_stack(states, state_vals))  # Tr[rho ln rho]
    k = len(mats)
    energy = np.real(_rowdot(states.reshape(k, -1).conj(), mats.reshape(k, -1)))  # Tr[rho H], both Hermitian
    rhs = energy + entropies
    # log-sum-exp keeps ln Z finite for large spectra
    shift = np.min(vals, axis=1)
    lhs = -(np.log(np.sum(np.exp(-(vals - shift[:, None])), axis=1)) - shift)
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
