"""The spectral forms of compress and the *_sides functions against dense oracles.

Inputs are drawn with numpy directly and every oracle side is built from
explicit matrices (scipy's expm, matrix products, Kronecker sandwiches), so
nothing here shares a code path with the library beyond the call under test.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from semispec.bipartite import BipartiteDims, DensityMatrix, compress, random_density, random_hermitian
from semispec.inequalities import golden_thompson_sides, jensen_partial_trace_sides, sliced_gt_sides
from semispec.linalg import HermitianOperator, exp_neg, positive_part, square

from oracles import compress_by_sandwich, matrix_function, partial_jensen_sides_by_matrices

RTOL = 1e-12
CASES = range(50)


def _hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2.0


def _state(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    gram = g @ g.conj().T
    return gram / np.real(np.trace(gram))


def _close(got, expected):
    return abs(got - expected) <= RTOL * abs(expected)


# compress ---------------------------------------------------------------------


@pytest.mark.parametrize("dim1", range(1, 7))
def test_compress_matches_square_root_sandwich_at_every_rank(dim1):
    rng = np.random.default_rng(700 + dim1)
    for dim2 in (1, 3, 6):
        dims = BipartiteDims(dim1, dim2)
        h = _hermitian(rng, dims.total)
        for rank in range(1, dim1 + 1):
            rho = _state(rng, dim1, rank)
            got = compress(HermitianOperator(h), DensityMatrix(HermitianOperator(rho)), dims).mat
            expected = compress_by_sandwich(h, rho, dim1, dim2)
            assert np.max(np.abs(got - expected)) <= RTOL * (1.0 + np.max(np.abs(expected)))


# sides ------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_partial_jensen_sides_match_matrix_functions(case):
    rng = np.random.default_rng(800 + case)
    dim1, dim2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    dims = BipartiteDims(dim1, dim2)
    h = _hermitian(rng, dims.total)
    rho = _state(rng, dim1, int(rng.integers(1, dim1 + 1)))
    pairs = (
        (exp_neg(0.5), lambda x: expm(-0.5 * x)),
        (square(), lambda x: x @ x),
        (positive_part(), lambda x: matrix_function(x, lambda v: np.maximum(v, 0.0))),
    )
    for f, fmat in pairs:
        lhs, rhs = jensen_partial_trace_sides(HermitianOperator(h), DensityMatrix(HermitianOperator(rho)), dims, f)
        ref_lhs, ref_rhs = partial_jensen_sides_by_matrices(h, rho, dim1, dim2, fmat)
        assert _close(lhs, ref_lhs) and _close(rhs, ref_rhs), (f.kind, lhs, ref_lhs, rhs, ref_rhs)


@pytest.mark.parametrize("case", CASES)
def test_golden_thompson_sides_match_expm(case):
    rng = np.random.default_rng(900 + case)
    dim = int(rng.integers(2, 37))
    a, b = _hermitian(rng, dim, 0.5), _hermitian(rng, dim, 0.5)
    lhs, rhs = golden_thompson_sides(HermitianOperator(a), HermitianOperator(b))
    half = expm(a / 2.0)
    assert _close(lhs, float(np.real(np.trace(expm(a + b)))))
    assert _close(rhs, float(np.real(np.trace(half @ expm(b) @ half))))


@pytest.mark.parametrize("case", CASES)
def test_sliced_gt_sides_match_expm(case):
    rng = np.random.default_rng(1000 + case)
    m, n = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    t = float(rng.uniform(0.1, 1.0))
    t_mat = _hermitian(rng, m)
    blocks = [_hermitian(rng, n) for _ in range(m)]
    h = np.kron(t_mat, np.eye(n))
    for i, w in enumerate(blocks):
        h[i * n : (i + 1) * n, i * n : (i + 1) * n] += w
    lhs, rhs = sliced_gt_sides(HermitianOperator(t_mat), [HermitianOperator(w) for w in blocks], t)
    damp = np.real(np.diagonal(expm(-t * t_mat)))
    expected_rhs = sum(d * float(np.real(np.trace(expm(-t * w)))) for d, w in zip(damp, blocks))
    assert _close(lhs, float(np.real(np.trace(expm(-t * h)))))
    assert _close(rhs, expected_rhs)


# generators -------------------------------------------------------------------


def test_random_generators_continue_a_generator_stream():
    rng = np.random.default_rng(17)
    drawn = [random_hermitian(4, rng), random_hermitian(3, rng), random_density(4, 2, rng).op]
    ref = np.random.default_rng(17)
    for got, dim in zip(drawn[:2], (4, 3)):
        g = ref.standard_normal((dim, dim)) + 1j * ref.standard_normal((dim, dim))
        assert np.array_equal(got.mat, (g + g.conj().T) / 2.0)
    g = ref.standard_normal((4, 2)) + 1j * ref.standard_normal((4, 2))
    gram = g @ g.conj().T
    assert np.array_equal(drawn[2].mat, gram / np.real(np.trace(gram)))
