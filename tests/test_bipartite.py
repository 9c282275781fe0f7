import dataclasses

import numpy as np
import pytest

from semispec import bipartite
from semispec.bipartite import (
    BipartiteDims,
    DensityMatrix,
    compress,
    format_bipartite_operator,
    kron,
    parse_bipartite_operator,
    partial_trace_1,
    partial_trace_2,
    random_density,
    random_hermitian,
    random_unit_vector,
)
from semispec.inequalities import gibbs_sides
from semispec.linalg import HermitianOperator, trace


def test_kron_identities():
    assert np.allclose(
        kron(HermitianOperator.identity(2), HermitianOperator.identity(3)).mat, np.eye(6)
    )


def test_kron_trace_multiplicative():
    a = random_hermitian(3, seed=1)
    b = random_hermitian(4, seed=2)
    assert trace(kron(a, b)) == pytest.approx(trace(a) * trace(b), abs=1e-10)


def test_kron_index_convention():
    # first factor major: entry [(m N + n), (m' N + n')] = A[m,m'] B[n,n']
    a = HermitianOperator.from_diag([1.0, -1.0])
    b = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    k = kron(a, b).mat
    assert k[0 * 2 + 0, 0 * 2 + 1] == pytest.approx(1.0)
    assert k[1 * 2 + 0, 1 * 2 + 1] == pytest.approx(-1.0)


def test_kron_dimension_guard(monkeypatch):
    a = random_hermitian(3, seed=1)
    b = random_hermitian(4, seed=2)
    monkeypatch.setattr(bipartite, "MAX_TENSOR_DIM", 10)
    with pytest.raises(ValueError, match="exceeds the cap 10"):
        kron(a, b)


def test_partial_trace_of_product():
    a = random_hermitian(3, seed=3)
    b = random_hermitian(2, seed=4)
    dims = BipartiteDims(3, 2)
    k = kron(a, b)
    assert np.allclose(partial_trace_1(k, dims).mat, trace(a) * b.mat, atol=1e-12)
    assert np.allclose(partial_trace_2(k, dims).mat, trace(b) * a.mat, atol=1e-12)


def test_partial_trace_preserves_full_trace():
    dims = BipartiteDims(4, 5)
    op = random_hermitian(20, seed=5)
    assert trace(partial_trace_1(op, dims)) == pytest.approx(trace(op), abs=1e-10)
    assert trace(partial_trace_2(op, dims)) == pytest.approx(trace(op), abs=1e-10)


def test_partial_trace_of_identity():
    dims = BipartiteDims(3, 2)
    eye = HermitianOperator.identity(6)
    assert np.allclose(partial_trace_1(eye, dims).mat, 3.0 * np.eye(2))
    assert np.allclose(partial_trace_2(eye, dims).mat, 2.0 * np.eye(3))


def test_partial_trace_linearity():
    dims = BipartiteDims(3, 3)
    g = random_hermitian(9, seed=6)
    h = random_hermitian(9, seed=7)
    combo = HermitianOperator(0.7 * g.mat - 1.3 * h.mat)
    direct = partial_trace_1(combo, dims).mat
    split = 0.7 * partial_trace_1(g, dims).mat - 1.3 * partial_trace_1(h, dims).mat
    assert np.max(np.abs(direct - split)) <= 1e-12 * (1 + np.max(np.abs(direct)))


def test_partial_trace_duality():
    # trace(Tr_1(H) B) = trace(H (I (x) B))
    dims = BipartiteDims(3, 4)
    op = random_hermitian(12, seed=8)
    b = random_hermitian(4, seed=9)
    lhs = np.trace(partial_trace_1(op, dims).mat @ b.mat)
    rhs = np.trace(op.mat @ kron(HermitianOperator.identity(3), b).mat)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(HermitianOperator.identity(3))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(HermitianOperator.from_diag([1.5, -0.5]))


def test_density_matrix_holds_only_its_operator():
    rho = random_density(4, 2, 5)
    assert DensityMatrix(rho.op) == rho
    assert [f.name for f in dataclasses.fields(rho)] == ["op"]
    vals = np.linalg.eigh(rho.op.mat)[0]
    pos = np.clip(vals, 0.0, None)[vals > 0.0]
    assert rho.entropy_term() == float(np.sum(pos * np.log(pos)))
    # gibbs_sides takes the same entropy bits from its own stacked solve
    h = random_hermitian(4, 6)
    assert gibbs_sides(rho, h)[1] == float(np.real(np.vdot(rho.op.mat, h.mat))) + rho.entropy_term()


def test_compress_pure_state_matches_expectation_form():
    # rank-1 rho: compression equals the entrywise expectation Tr_1[(rho (x) 1) H],
    # i.e. K[n,n'] = <phi (x) e_n| H |phi (x) e_n'> computed directly
    dims = BipartiteDims(4, 3)
    op = random_hermitian(12, seed=10)
    phi = random_unit_vector(4, seed=11)
    got = compress(op, DensityMatrix.pure(phi), dims)
    four = op.mat.reshape(4, 3, 4, 3)
    expected = np.einsum("a,anbq,b->nq", phi.conj(), four, phi)
    assert np.max(np.abs(got.mat - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))


def test_compress_pure_product_state():
    # H = A (x) B compresses to <phi|A|phi> B
    dims = BipartiteDims(3, 2)
    a = random_hermitian(3, seed=12)
    b = random_hermitian(2, seed=13)
    phi = random_unit_vector(3, seed=14)
    got = compress(kron(a, b), DensityMatrix.pure(phi), dims)
    scale = float(np.real(np.vdot(phi, a.mat @ phi)))
    assert np.allclose(got.mat, scale * b.mat, atol=1e-12)


def test_compress_maximally_mixed_is_scaled_partial_trace():
    dims = BipartiteDims(4, 3)
    op = random_hermitian(12, seed=15)
    got = compress(op, DensityMatrix.maximally_mixed(4), dims)
    assert np.allclose(got.mat, partial_trace_1(op, dims).mat / 4.0, atol=1e-12)


def test_compress_block_diagonal_against_block_expansion():
    # diagonal rho with weights w_m and block-diagonal H give sum_m w_m H_mm
    m, n = 3, 4
    dims = BipartiteDims(m, n)
    rng = np.random.default_rng(16)
    w = rng.random(m)
    w /= w.sum()
    blocks = [random_hermitian(n, seed=100 + i).mat for i in range(m)]
    h = np.zeros((m * n, m * n), dtype=complex)
    for i, blk in enumerate(blocks):
        h[i * n : (i + 1) * n, i * n : (i + 1) * n] = blk
    rho = DensityMatrix(HermitianOperator(np.diag(w).astype(complex)))
    got = compress(HermitianOperator(h), rho, dims)
    expected = sum(wi * blk for wi, blk in zip(w, blocks))
    assert np.max(np.abs(got.mat - expected)) <= 1e-12 * (1 + np.max(np.abs(expected)))


def test_random_density_trivial_cases():
    one = random_density(1, 1, seed=0)
    assert np.allclose(one.op.mat, [[1.0]])
    pure = random_density(5, 1, seed=1)
    vals = np.linalg.eigvalsh(pure.op.mat)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(vals[:-1] <= 1e-10)


def test_random_density_rank_and_normalization():
    rho = random_density(6, 3, seed=2)
    vals = np.linalg.eigvalsh(rho.op.mat)
    assert np.sum(vals > 1e-10) == 3
    assert float(np.sum(vals)) == pytest.approx(1.0, abs=1e-10)


def test_random_density_deterministic():
    a = random_density(5, 2, seed=33)
    b = random_density(5, 2, seed=33)
    assert np.array_equal(a.op.mat, b.op.mat)


def test_random_density_rank_bounds():
    with pytest.raises(ValueError):
        random_density(3, 0, seed=0)
    with pytest.raises(ValueError):
        random_density(3, 4, seed=0)


def test_bipartite_dump_roundtrip():
    dims = BipartiteDims(2, 3)
    op = random_hermitian(6, seed=40)
    text = format_bipartite_operator(op, dims)
    assert text.splitlines()[0] == "dims 2 3"
    back, back_dims = parse_bipartite_operator(text)
    assert back_dims == dims
    assert np.array_equal(back.mat, op.mat)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("dims 0 2\ndim 0\n", "dimensions must be positive"),
        ("dims 1 4097\ndim 4097\n", r"dim 4097 is not in 1\.\.4096 \(the tensor dimension cap\)"),
        ("dims 1 1\ndim -1\n0 0\n", r"dim -1 is not in 1\.\.4096"),
        ("dims 1 2\ndim 2\n0 0\n0 0\n0 0\n", "expected 4 entry lines, got 3"),
        ("dims 1 2\ndim 2\n0 0\n0 0\n0 0\nnan 0\n", "is not finite"),
        ("dims 1 3\ndim 2\n0 0\n0 0\n0 0\n0 0\n", "does not match 1 x 3 = 3"),
    ],
)
def test_bipartite_dump_rejects_malformed_text(text, reason):
    with pytest.raises(ValueError, match=reason):
        parse_bipartite_operator(text)
