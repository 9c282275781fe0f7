"""Tensor-product structure on H1 (x) H2: Kronecker products, partial traces,
density matrices and their gate on a stack, the compressed operator
Tr_1[(rho (x) 1) H], the seeded draws of operators and states (as stacks,
one Generator per member), and the operator text dump.

Index convention (fixed everywhere): the basis vector of H1 (x) H2 with flat
index ``i = m * N + n`` is ``e_m (x) v_n``, i.e. the first factor is major.
All formulas below are stated under this convention and the Kronecker
identities in the tests pin it down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, _member, eig_hermitian_stack

# Dense storage only; refuse tensor products beyond this total dimension.
MAX_TENSOR_DIM = 4096

# PSD round-off floor: a density matrix may carry eigenvalues in
# [-PSD_TOL, 0) from round-off; anything more negative is rejected.
PSD_TOL = 1e-10


@dataclass(frozen=True)
class BipartiteDims:
    """Ordered pair (M, N) fixing the factorization H1 (x) H2."""

    dim1: int
    dim2: int

    def __post_init__(self):
        if self.dim1 < 1 or self.dim2 < 1:
            raise ValueError(f"dimensions must be positive, got {self}")

    @property
    def total(self) -> int:
        return self.dim1 * self.dim2

    def check(self, op: HermitianOperator) -> None:
        if op.dim != self.total:
            raise ValueError(
                f"operator dimension {op.dim} does not match "
                f"{self.dim1} x {self.dim2} = {self.total}"
            )


@dataclass(frozen=True)
class DensityMatrix:
    """Positive semidefinite operator of unit trace (a quantum state).

    The constructor is :func:`state_stack` on a stack of one.
    """

    op: HermitianOperator

    def __post_init__(self):
        state_stack(self.op.mat[None])

    @property
    def dim(self) -> int:
        return self.op.dim

    @classmethod
    def pure(cls, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=np.complex128)
        v = v / np.linalg.norm(v)
        return cls(HermitianOperator(np.outer(v, v.conj())))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(HermitianOperator(np.eye(dim) / dim))

    def entropy_term(self) -> float:
        """Tr[rho ln rho] with 0 ln 0 := 0 (a nonpositive number)."""
        return float(entropy_terms(eig_hermitian_stack(self.op.mat[None])[0])[0])


def state_stack(mats, spectra=None) -> np.ndarray:
    """The state gate on a stack that passed :func:`~semispec.linalg.hermitian_stack`.

    Each matrix must have unit trace within 1e-10 and no eigenvalue below
    ``-PSD_TOL``.  ``spectra`` are the stack's ascending eigenvalues when a
    stacked solve has taken them already; otherwise they are computed here,
    after the trace check.  Returns the spectra.  An error names the first
    offending matrix by its stack index; a stack of one gets the bare
    message of :class:`DensityMatrix`.
    """
    traces = np.sum(np.real(np.diagonal(mats, axis1=1, axis2=2)), axis=1)
    bad = np.abs(traces - 1.0) > 1e-10
    if bad.any():
        s = int(np.argmax(bad))
        raise ValueError(f"{_member(s, len(mats))}density matrix trace {float(traces[s])!r} is not 1 within 1e-10")
    if spectra is None:
        spectra, _ = eig_hermitian_stack(mats)
    bad = spectra[:, 0] < -PSD_TOL
    if bad.any():
        s = int(np.argmax(bad))
        raise ValueError(
            f"{_member(s, len(mats))}density matrix has negative eigenvalue {spectra[s, 0]:.3e} beyond -1e-10"
        )
    return spectra


def entropy_terms(spectra) -> np.ndarray:
    """Tr[rho ln rho] of each state from its spectrum, a row of ``spectra``;
    0 ln 0 := 0, and the entries clipped to 0 are left out of the sum."""
    vals = np.clip(spectra, 0.0, None)
    positive = vals > 0.0
    counts = positive.sum(axis=1)
    out = np.empty(len(vals))
    # rows with the same number of positive entries sum as one block, so each
    # row is summed exactly as a lone vector of its positive entries is
    for count in set(counts.tolist()):
        rows = counts == count
        pos = vals[rows][positive[rows]].reshape(np.count_nonzero(rows), count)
        out[rows] = np.sum(pos * np.log(pos), axis=1)
    return out


def kron(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product under the first-factor-major convention.

    ``(A kron B)[(m N + n), (m' N + n')] = A[m, m'] B[n, n']``; refused
    above ``MAX_TENSOR_DIM``.
    """
    total = a.dim * b.dim
    if total > MAX_TENSOR_DIM:
        raise ValueError(f"tensor dimension {total} exceeds the cap {MAX_TENSOR_DIM}")
    return HermitianOperator(np.kron(a.mat, b.mat))


def partial_trace_1(op: HermitianOperator, dims: BipartiteDims) -> HermitianOperator:
    """Trace out the first factor: result[n, n'] = sum_m H[(m,n), (m,n')]."""
    dims.check(op)
    m, n = dims.dim1, dims.dim2
    four = op.mat.reshape(m, n, m, n)
    return HermitianOperator(np.einsum("anaq->nq", four))


def partial_trace_2(op: HermitianOperator, dims: BipartiteDims) -> HermitianOperator:
    """Trace out the second factor: result[m, m'] = sum_n H[(m,n), (m',n)]."""
    dims.check(op)
    m, n = dims.dim1, dims.dim2
    four = op.mat.reshape(m, n, m, n)
    return HermitianOperator(np.einsum("anqn->aq", four))


def compress(op: HermitianOperator, rho: DensityMatrix, dims: BipartiteDims) -> HermitianOperator:
    """State-averaged reduction K = Tr_1[(rho (x) 1) H], an operator on H2.

    By cyclicity of the partial trace, K equals Tr_1[(rho (x) 1)^(1/2) H
    (rho (x) 1)^(1/2)]; no square root is taken.  For a pure state K is the
    entrywise expectation <phi|H|phi>.
    """
    dims.check(op)
    if rho.dim != dims.dim1:
        raise ValueError(f"state dimension {rho.dim} does not match dim1 {dims.dim1}")
    return HermitianOperator(compress_stack(op.mat[None], rho.op.mat[None], dims)[0])


def compress_stack(mats: np.ndarray, states: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """:func:`compress` of each pair from a ``(k, MN, MN)`` stack and a ``(k, M, M)``
    stack of states; the raw ``(k, N, N)`` result, before the Hermitian gate."""
    four = mats.reshape(len(mats), dims.dim1, dims.dim2, dims.dim1, dims.dim2)
    return np.einsum("tba,tanbq->tnq", states, four)


def draw_hermitian(rngs, dim: int) -> np.ndarray:
    """One GUE-style draw from each Generator of ``rngs``, in order: the
    read-only ``(k, dim, dim)`` stack of ``(G + G*) / 2`` for complex
    Gaussian G, real parts drawn first.  Hermitian by construction, so the
    Hermitian gate would return it bit for bit; :func:`random_hermitian` is
    the gated stack of one."""
    normals = np.array([rng.standard_normal((2, dim, dim)) for rng in rngs]).reshape(-1, 2, dim, dim)
    g = np.empty((len(normals), dim, dim), dtype=np.complex128)
    g.real, g.imag = normals[:, 0], normals[:, 1]
    h = g + g.conj().swapaxes(1, 2)
    h /= 2.0
    h.flags.writeable = False
    return h


def draw_density(rngs, dim: int, ranks) -> np.ndarray:
    """One state draw from each Generator of ``rngs``, in order: the
    ``(k, dim, dim)`` stack of trace-normalized Gram matrices of ``ranks[i]``
    complex Gaussian vectors; :func:`random_density` is the gated stack of one."""
    grams = np.empty((len(rngs), dim, dim), dtype=np.complex128)
    for gram, rng, rank in zip(grams, rngs, ranks):
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must satisfy 1 <= rank <= {dim}, got {rank}")
        g = np.empty((dim, rank), dtype=np.complex128)
        g.real, g.imag = rng.standard_normal((2, dim, rank))
        np.matmul(g, g.conj().T, out=gram)
    return grams / np.real(np.trace(grams, axis1=1, axis2=2))[:, None, None]


def random_hermitian(dim: int, seed: int | np.random.Generator) -> HermitianOperator:
    """Seeded GUE-style Hermitian matrix (complex Gaussian entries, symmetrized).

    ``seed`` is an int or a Generator; a Generator's stream is continued.
    """
    return HermitianOperator(draw_hermitian([np.random.default_rng(seed)], dim)[0])


def random_density(dim: int, rank: int, seed: int | np.random.Generator) -> DensityMatrix:
    """Seeded random state: normalized Gram matrix of `rank` complex Gaussians.

    ``seed`` is an int or a Generator.  Reproducible bit-for-bit for a fixed seed.
    """
    return DensityMatrix(HermitianOperator(draw_density([np.random.default_rng(seed)], dim, [rank])[0]))


def random_unit_vector(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Seeded random unit vector (complex Gaussian); ``seed`` is an int or a Generator."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# operator text dump
# ---------------------------------------------------------------------------


def format_bipartite_operator(op: HermitianOperator, dims: BipartiteDims) -> str:
    """Text dump: a ``dims M N`` line, a ``dim M*N`` line, then one ``re im``
    line per entry, row-major, each float written by ``repr`` (exact round trip)."""
    dims.check(op)
    lines = [f"dims {dims.dim1} {dims.dim2}", f"dim {op.dim}"]
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in op.mat.ravel())
    return "\n".join(lines) + "\n"


def parse_bipartite_operator(text: str) -> tuple[HermitianOperator, BipartiteDims]:
    """Inverse of :func:`format_bipartite_operator`; blank lines after the first are skipped.

    Every part is checked: both headers, positive dims, a dimension in
    1..``MAX_TENSOR_DIM`` (before any entry is read), the entry-line count,
    finite (Hermitian) entries, and that the dims factor the dimension.
    """
    first, _, rest = text.partition("\n")
    head = first.split()
    if len(head) != 3 or head[0] != "dims":
        raise ValueError(f"expected 'dims M N' header, got {first!r}")
    dims = BipartiteDims(int(head[1]), int(head[2]))
    lines = [ln for ln in rest.splitlines() if ln.strip()] or [""]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ValueError(f"expected 'dim N' header, got {lines[0]!r}")
    n = int(head[1])
    if not 1 <= n <= MAX_TENSOR_DIM:
        raise ValueError(f"dim {n} is not in 1..{MAX_TENSOR_DIM} (the tensor dimension cap)")
    if len(lines) - 1 != n * n:
        raise ValueError(f"expected {n * n} entry lines, got {len(lines) - 1}")
    entries = np.empty(n * n, dtype=np.complex128)
    for i, ln in enumerate(lines[1:]):
        re_s, im_s = ln.split()
        entries[i] = complex(float(re_s), float(im_s))
    op = HermitianOperator(entries.reshape(n, n))
    dims.check(op)
    return op, dims
