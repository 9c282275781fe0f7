import math

import numpy as np
import pytest

from semispec.bipartite import (
    BipartiteDims,
    DensityMatrix,
    random_density,
    random_hermitian,
    random_unit_vector,
)
from semispec.inequalities import (
    gibbs_gap,
    gibbs_sides,
    gibbs_state,
    golden_thompson_gap,
    golden_thompson_sides,
    jensen_partial_trace_gap,
    jensen_partial_trace_sides,
    jensen_scalar_gap,
    jensen_scalar_sides,
    sliced_gt_gap,
    sliced_gt_sides,
    sliced_hamiltonian,
    violates,
)
from semispec.linalg import (
    HermitianOperator,
    affine,
    custom,
    eig_hermitian,
    exp_neg,
    positive_part,
    square,
)

from oracles import double_jensen_chain

PAULI_X = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
PAULI_Z = HermitianOperator(np.array([[1.0, 0.0], [0.0, -1.0]]))


# scalar Jensen ---------------------------------------------------------------


def test_scalar_gap_zero_for_affine():
    op = random_hermitian(5, seed=1)
    psi = random_unit_vector(5, seed=2)
    assert abs(jensen_scalar_gap(op, psi, affine(1.7, -0.3))) <= 1e-12 * (1 + np.linalg.norm(op.mat))


def test_scalar_gap_zero_on_eigenvector():
    op = random_hermitian(5, seed=3)
    vec = eig_hermitian(op).eigenvectors[:, 2]
    assert abs(jensen_scalar_gap(op, vec, exp_neg(1.0))) <= 1e-12 * 10


def test_scalar_gap_closed_form():
    op = HermitianOperator.from_diag([0.0, 2.0])
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    expected = (1.0 + math.exp(-2.0)) / 2.0 - math.exp(-1.0)
    assert jensen_scalar_gap(op, psi, exp_neg(1.0)) == pytest.approx(expected, abs=1e-12)


def test_scalar_gap_rejects_unnormalized():
    op = random_hermitian(3, seed=4)
    with pytest.raises(ValueError, match="normalized"):
        jensen_scalar_gap(op, np.array([1.0, 1.0, 0.0]), square())


@pytest.mark.parametrize("psi", [np.array([1.0, 0.0, 0.0, 0.0]), np.array([[1.0], [0.0], [0.0]])])
def test_scalar_sides_refuse_a_psi_of_the_wrong_shape(psi):
    op = random_hermitian(3, seed=4)
    with pytest.raises(ValueError) as err:
        jensen_scalar_sides(op, psi, square())
    assert str(err.value) == f"psi must have shape (3,) for a 3-dim operator, got {psi.shape}"


# partial-trace Jensen --------------------------------------------------------


def test_partial_gap_zero_for_affine():
    dims = BipartiteDims(3, 4)
    op = random_hermitian(12, seed=5)
    rho = random_density(3, 2, seed=6)
    lhs, rhs = jensen_partial_trace_sides(op, rho, dims, affine(0.8, 0.1))
    assert abs(rhs - lhs) <= 1e-10 * (1 + abs(rhs))


def test_partial_gap_reduces_to_scalar_when_second_factor_trivial():
    dims = BipartiteDims(6, 1)
    op = random_hermitian(6, seed=7)
    phi = random_unit_vector(6, seed=8)
    rho = DensityMatrix.pure(phi)
    for f in (exp_neg(0.7), square(), positive_part()):
        partial = jensen_partial_trace_gap(op, rho, dims, f)
        scalar = jensen_scalar_gap(op, phi, f)
        assert partial == pytest.approx(scalar, abs=1e-12 * (1 + abs(scalar)))


def test_partial_gap_zero_for_block_diagonal_with_eigenprojection():
    m, n = 3, 3
    dims = BipartiteDims(m, n)
    h = np.zeros((m * n, m * n), dtype=complex)
    for i in range(m):
        h[i * n : (i + 1) * n, i * n : (i + 1) * n] = random_hermitian(n, seed=50 + i).mat
    op = HermitianOperator(h)
    basis_state = np.zeros(m)
    basis_state[1] = 1.0
    rho = DensityMatrix.pure(basis_state)
    gap = jensen_partial_trace_gap(op, rho, dims, exp_neg(1.0))
    assert abs(gap) <= 1e-10


def test_partial_gap_scales_linearly_in_f():
    dims = BipartiteDims(3, 3)
    op = random_hermitian(9, seed=9)
    rho = random_density(3, 3, seed=10)
    base = jensen_partial_trace_gap(op, rho, dims, exp_neg(1.0))
    c = 7.5
    from semispec.linalg import custom

    scaled = jensen_partial_trace_gap(op, rho, dims, custom(lambda x: c * np.exp(-x), convex=True))
    assert scaled == pytest.approx(c * base, rel=1e-10)


@pytest.mark.parametrize("seed", range(40))
def test_partial_gap_nonnegative_and_matches_proof_chain(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    dims = BipartiteDims(m, n)
    op = random_hermitian(m * n, seed=300 + seed)
    rho = random_density(m, int(rng.integers(1, m + 1)), seed=600 + seed)
    for f in (exp_neg(0.1), exp_neg(1.0), square(), positive_part()):
        lhs, rhs = jensen_partial_trace_sides(op, rho, dims, f)
        gap = rhs - lhs
        assert not violates(gap, rhs)
        chain = double_jensen_chain(op.mat, rho.op.mat, m, n, f)
        tol = 1e-10 * (1.0 + abs(rhs))
        # both Jensen steps hold termwise
        assert np.all(chain["b"] - chain["a"] >= -tol)
        assert np.all(chain["per_term_rhs"] - chain["per_term_lhs"] >= -tol)
        # chain ends agree with the library's two sides
        assert chain["lhs"] == pytest.approx(lhs, abs=tol)
        assert chain["rhs"] == pytest.approx(rhs, abs=tol)


# Golden-Thompson -------------------------------------------------------------


def test_gt_zero_for_commuting():
    a = HermitianOperator.from_diag([0.3, -1.2, 2.0])
    b = HermitianOperator.from_diag([1.0, 0.5, -0.7])
    assert abs(golden_thompson_gap(a, b)) <= 1e-10 * 10


def test_gt_zero_for_equal_arguments():
    a = random_hermitian(4, seed=11)
    rhs_scale = float(np.exp(2 * np.abs(np.linalg.eigvalsh(a.mat)).max()))
    assert abs(golden_thompson_gap(a, a)) <= 1e-10 * (1 + rhs_scale)


def test_gt_pauli_closed_form():
    # Tr e^(X/2) e^Z e^(X/2) = 2 cosh(1)^2, Tr e^(X+Z) = 2 cosh(sqrt(2))
    expected = 2.0 * math.cosh(1.0) ** 2 - 2.0 * math.cosh(math.sqrt(2.0))
    assert golden_thompson_gap(PAULI_X, PAULI_Z) == pytest.approx(expected, abs=1e-12)
    assert golden_thompson_gap(PAULI_X, PAULI_Z) > 0


def test_gt_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        golden_thompson_gap(PAULI_X, random_hermitian(3, seed=12))


@pytest.mark.parametrize("seed", range(25))
def test_gt_nonnegative_on_random_pairs(seed):
    a = random_hermitian(5, seed=1000 + seed)
    b = random_hermitian(5, seed=2000 + seed)
    from semispec.inequalities import golden_thompson_sides

    lhs, rhs = golden_thompson_sides(a, b)
    assert not violates(rhs - lhs, rhs)


# R rotates a spectrum off the basis; the exponents of every case below commute, so each
# side is a plain sum of exponentials.  A case whose exponents pair one top eigenvalue with
# one far below stays diagonal: rotated, its eigenvectors' round-off of order eps^2 is
# weighted by e^800
ROTATION = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
E700 = math.exp(700.0) + math.exp(690.0)


def _rotated(*eigenvalues):
    return HermitianOperator(ROTATION @ np.diag(eigenvalues) @ ROTATION.T)


@pytest.mark.parametrize("a,b,side", [
    (_rotated(800.0, 790.0), _rotated(-100.0, -100.0), E700),  # e^800 overflows; it was inf, with a warning
    # e^(a_top + b_top) = e^800 overflows: times the pivoted 2e^-400 it is inf, times 2e^-800 = 0 it is NaN
    (HermitianOperator.from_diag([400.0, 0.0]), HermitianOperator.from_diag([0.0, 400.0]), 2.0 * math.exp(400.0)),
    (HermitianOperator.from_diag([400.0, -400.0]), HermitianOperator.from_diag([-400.0, 400.0]), 2.0),
], ids=["e700", "e400", "two"])
def test_gt_sides_are_finite_wherever_their_value_is(a, b, side):
    # the rhs is pivoted at its largest term e^(a_i + b_j) |U* V|^2_ij, not at A's or B's top
    assert golden_thompson_sides(a, b) == pytest.approx((side, side), rel=1e-12)


# sliced Golden-Thompson ------------------------------------------------------


def _torus_laplacian_matrix(m):
    mat = 2.0 * np.eye(m)
    idx = np.arange(m - 1)
    mat[idx, idx + 1] = mat[idx + 1, idx] = -1.0
    mat[0, m - 1] += -1.0
    mat[m - 1, 0] += -1.0
    return HermitianOperator(mat)


def test_sliced_gt_zero_for_diagonal_t():
    t_op = HermitianOperator.from_diag([0.5, -0.2, 1.0])
    blocks = [random_hermitian(2, seed=20 + i) for i in range(3)]
    assert abs(sliced_gt_gap(t_op, blocks, 0.8)) <= 1e-10 * 100


def test_sliced_gt_zero_for_identical_blocks():
    t_op = random_hermitian(4, seed=13)
    w = random_hermitian(3, seed=14)
    assert abs(sliced_gt_gap(t_op, [w] * 4, 0.8)) <= 1e-10 * 1000


def test_sliced_hamiltonian_layout():
    t_op = HermitianOperator.from_diag([1.0, 2.0])
    blocks = [HermitianOperator.from_diag([0.0, 3.0]), HermitianOperator.from_diag([4.0, 0.0])]
    h = sliced_hamiltonian(t_op, blocks).mat
    assert np.allclose(np.diag(h), [1.0, 4.0, 6.0, 2.0])


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([HermitianOperator.identity(2)], "need one block per basis vector: 1 != 2"),
        ([HermitianOperator.identity(2), HermitianOperator.identity(3)], "all blocks must share one dimension"),
    ],
)
def test_sliced_hamiltonian_and_sides_refuse_the_same_block_shapes(blocks, message):
    t_op = HermitianOperator.from_diag([1.0, 2.0])
    for build in (lambda: sliced_hamiltonian(t_op, blocks), lambda: sliced_gt_sides(t_op, blocks, 0.5)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("seed", range(30))
def test_sliced_gt_nonnegative_with_psd_blocks(seed):
    # torus Laplacian couplings plus random PSD transverse blocks
    rng = np.random.default_rng(seed)
    t_op = _torus_laplacian_matrix(8)
    blocks = []
    for i in range(8):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        blocks.append(HermitianOperator(g @ g.conj().T))
    lhs, rhs = sliced_gt_sides(t_op, blocks, float(rng.uniform(0.05, 2.0)))
    assert not violates(rhs - lhs, rhs)


@pytest.mark.parametrize("t_op,block_vals,side", [
    # e^(-tT) overflows, but T (x) 1 commutes with the equal blocks; it was refused as overflowing
    (_rotated(-800.0, -790.0), (100.0, 100.0), E700),
    # T is diagonal and row 1 misses T's lowest eigenvector, so its damping pivoted at T's lowest
    # eigenvalue is e^-690, or 0, against a pivot exponent of e^800, or e^1450
    (HermitianOperator.from_diag([-400.0, 290.0]), (0.0, -400.0), math.exp(400.0) + math.exp(110.0)),
    (HermitianOperator.from_diag([-800.0, 100.0]), (1000.0, -650.0), math.exp(-200.0) + math.exp(550.0)),
], ids=["e700", "small_damping", "zero_damping"])
def test_sliced_sides_are_finite_wherever_their_value_is(t_op, block_vals, side):
    sides = sliced_gt_sides(t_op, [HermitianOperator(np.array([[w]])) for w in block_vals], 1.0)
    assert sides == pytest.approx((side, side), rel=1e-12)


# Gibbs variational principle -------------------------------------------------


def test_gibbs_gap_zero_at_gibbs_state():
    op = random_hermitian(6, seed=15)
    assert abs(gibbs_gap(gibbs_state(op), op)) <= 1e-10


def test_gibbs_gap_zero_for_maximally_mixed_free_case():
    # H = 0: energy 0, entropy -ln N, ln Z = ln N
    op = HermitianOperator(np.zeros((5, 5)))
    rho = DensityMatrix.maximally_mixed(5)
    lhs, rhs = gibbs_sides(rho, op)
    assert rhs == pytest.approx(-math.log(5.0), abs=1e-12)
    assert lhs == pytest.approx(-math.log(5.0), abs=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_gibbs_gap_nonnegative(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    op = random_hermitian(dim, seed=3000 + seed)
    rho = random_density(dim, int(rng.integers(1, dim + 1)), seed=4000 + seed)
    lhs, rhs = gibbs_sides(rho, op)
    assert not violates(rhs - lhs, rhs)


def test_gibbs_gap_minimized_near_inverse_temperature_one():
    op = random_hermitian(6, seed=16)
    scan = np.linspace(0.2, 2.0, 37)
    gaps = [gibbs_gap(gibbs_state(op, s), op) for s in scan]
    best = scan[int(np.argmin(gaps))]
    assert abs(best - 1.0) <= 0.06  # scan spacing
    assert min(gaps) >= -1e-10


def test_gibbs_state_is_finite_where_e_to_the_minus_sh_overflows():
    # at s = -1 the weights pivot at the largest eigenvalue: e^(800 - 800) and e^(0 - 800);
    # pivoted at the smallest, e^800 overflowed and the state was refused as NaN
    state = gibbs_state(HermitianOperator.from_diag([0.0, 800.0]), s=-1.0)
    assert np.array_equal(state.op.mat, np.diag([0.0, 1.0]).astype(np.complex128))


CONCAVE = custom(lambda x: -x * x)
UNIFORM_2, UNIFORM_3 = (DensityMatrix(HermitianOperator(np.eye(d) / d)) for d in (2, 3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: jensen_scalar_sides(HermitianOperator(np.eye(4)), np.eye(4)[0], CONCAVE),
         "jensen_scalar_gap requires a convex function"),
        (lambda: jensen_partial_trace_sides(HermitianOperator(np.eye(4)), UNIFORM_2, BipartiteDims(2, 2), CONCAVE),
         "jensen_partial_trace_gap requires a convex function"),
        (lambda: jensen_partial_trace_sides(HermitianOperator(np.eye(4)), UNIFORM_3, BipartiteDims(2, 2), square()),
         "state dimension 3 does not match dim1 2"),
        (lambda: gibbs_sides(UNIFORM_3, HermitianOperator(np.eye(4))), "dimension mismatch: 3 vs 4"),
    ],
    ids=["scalar-concave", "partial-concave", "partial-state-dim", "gibbs-dim"],
)
def test_sides_refuse_a_concave_function_or_a_mismatched_state(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
