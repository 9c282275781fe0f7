import math
import tracemalloc

import numpy as np
import pytest

from semispec.linalg import (
    HermitianOperator,
    affine,
    apply_function,
    custom,
    eig_hermitian,
    eig_hermitian_stack,
    exp_neg,
    hermitian_stack,
    positive_part,
    power_neg,
    square,
    trace,
)
from semispec.bipartite import (
    BipartiteDims,
    format_bipartite_operator,
    parse_bipartite_operator,
    random_hermitian,
    random_unit_vector,
)

from oracles import eigenvalues_by_bisection


def test_construction_symmetrizes_roundoff():
    a = np.array([[1.0, 0.5 + 1e-10j], [0.5, 2.0]], dtype=complex)
    op = HermitianOperator(a)
    assert np.allclose(op.mat, op.mat.conj().T)


def test_construction_rejects_gross_asymmetry():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_construction_rejects_non_finite_entries(bad):
    a = np.zeros((3, 3), dtype=complex)
    a[2, 1] = a[1, 2] = bad
    with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
        HermitianOperator(a)


def test_construction_rejects_nonsquare():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)))


def test_eig_identity():
    dec = eig_hermitian(HermitianOperator.identity(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eig_pauli_x():
    op = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    dec = eig_hermitian(op)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eig_matches_char_poly_bisection():
    op = random_hermitian(8, seed=20240817)
    dec = eig_hermitian(op)
    roots = eigenvalues_by_bisection(op.mat)
    assert roots.size == 8
    assert np.max(np.abs(roots - dec.eigenvalues)) < 1e-8


def test_eig_contracts():
    op = random_hermitian(12, seed=7)
    dec = eig_hermitian(op)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    u = dec.eigenvectors
    assert np.linalg.norm(u.conj().T @ u - np.eye(12)) <= 1e-10
    assert np.linalg.norm(dec.reconstruct() - op.mat) <= 1e-10 * (1 + np.linalg.norm(op.mat))


def test_eig_deterministic():
    op = random_hermitian(9, seed=3)
    d1, d2 = eig_hermitian(op), eig_hermitian(op)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eig_stack_bit_identical_to_single_matrices():
    rng = np.random.default_rng(20)
    for d in range(1, 37):
        ops = [random_hermitian(d, rng) for _ in range(3)]
        vals, vecs = eig_hermitian_stack(np.stack([op.mat for op in ops]))
        assert vals.shape == (3, d) and vecs.shape == (3, d, d)
        for i, op in enumerate(ops):
            dec = eig_hermitian(op)
            raw_vals, raw_vecs = np.linalg.eigh(op.mat)
            assert np.array_equal(vals[i], dec.eigenvalues) and np.array_equal(vecs[i], dec.eigenvectors), d
            assert np.array_equal(vals[i], raw_vals) and np.array_equal(vecs[i], raw_vecs), d


def test_eig_stack_names_the_matrix_out_of_contract():
    rng = np.random.default_rng(21)
    stack = np.stack([random_hermitian(4, rng).mat for _ in range(5)])
    eig_hermitian_stack(stack)
    # eigh reads only the lower triangle, so no decomposition reproduces this entry
    stack[3, 0, 1] += 1.0
    with pytest.raises(RuntimeError, match="out of contract at stack index 3:"):
        eig_hermitian_stack(stack)
    with pytest.raises(ValueError, match=r"\(k, d, d\) stack"):
        eig_hermitian_stack(stack[0])
    # a NaN residual fails the contract rather than passing the comparisons
    # (HermitianOperator refuses a NaN entry, so the raw stack carries it here)
    with pytest.raises(RuntimeError, match="stack index 0"):
        eig_hermitian_stack(np.array([[[math.nan, 0.0], [0.0, 1.0]]]))


def test_eig_stack_checks_every_slab_in_bounded_memory():
    rng = np.random.default_rng(22)
    stack = np.stack([random_hermitian(30, rng).mat for _ in range(64)])
    tracemalloc.start()
    try:
        vals, vecs = eig_hermitian_stack(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the eigenvectors are one stack's worth; checked all at once, the two
    # residual buffers would add two more
    assert peak < 2 * stack.nbytes, peak / stack.nbytes
    for i in (0, 40, 63):  # the first and a later slab, and the last member
        assert np.array_equal(vals[i], np.linalg.eigh(stack[i])[0])
        bad = stack.copy()
        bad[i, 0, 1] += 1.0
        with pytest.raises(RuntimeError, match=f"out of contract at stack index {i}:"):
            eig_hermitian_stack(bad)


def test_apply_exp_on_diagonal():
    op = HermitianOperator.from_diag([0.0, math.log(2.0)])
    out = apply_function(op, exp_neg(1.0))
    assert np.allclose(out.mat, np.diag([1.0, 0.5]), atol=1e-14)


def test_apply_square_matches_matmul():
    op = random_hermitian(5, seed=11)
    out = apply_function(op, square())
    assert np.linalg.norm(out.mat - op.mat @ op.mat) <= 1e-10 * (1 + np.linalg.norm(op.mat) ** 2)


def test_apply_exp_of_zero_is_identity():
    op = HermitianOperator(np.zeros((4, 4)))
    out = apply_function(op, exp_neg(0.7))
    assert np.allclose(out.mat, np.eye(4), atol=1e-14)


def test_apply_function_commutes_with_input():
    op = random_hermitian(6, seed=13)
    out = apply_function(op, exp_neg(0.5))
    comm = out.mat @ op.mat - op.mat @ out.mat
    assert np.linalg.norm(comm) <= 1e-10 * (1 + np.linalg.norm(op.mat) ** 2)


def test_apply_function_composition():
    op = random_hermitian(6, seed=17)
    a, b, t = 0.7, -0.4, 1.3
    step = apply_function(apply_function(op, affine(a, b)), exp_neg(t))
    composed = apply_function(op, custom(lambda x: np.exp(-t * (a * x + b)), convex=True))
    assert np.linalg.norm(step.mat - composed.mat) <= 1e-10 * (1 + np.linalg.norm(step.mat))


def test_power_neg_domain_error_names_eigenvalue():
    op = HermitianOperator.from_diag([2.0, -0.5])
    with pytest.raises(ValueError, match="-0.5"):
        apply_function(op, power_neg(1.0))


def test_positive_part_and_square_values():
    op = HermitianOperator.from_diag([-2.0, 3.0])
    assert np.allclose(apply_function(op, positive_part()).mat, np.diag([0.0, 3.0]))
    assert np.allclose(apply_function(op, square()).mat, np.diag([4.0, 9.0]))


def test_trace_values():
    assert trace(HermitianOperator.identity(7)) == pytest.approx(7.0)
    assert trace(HermitianOperator.from_diag([1.0, 2.0, 3.0])) == pytest.approx(6.0)


def test_trace_matches_eigenvalue_sum():
    op = random_hermitian(10, seed=23)
    vals = eig_hermitian(op).eigenvalues
    assert trace(op) == pytest.approx(float(np.sum(vals)), abs=1e-10)


def test_trace_warns_on_imaginary_residue():
    from semispec.linalg import TraceImagWarning

    raw = np.array([[1.0 + 1e-6j, 0.0], [0.0, 2.0]])
    with pytest.warns(TraceImagWarning):
        trace(raw)


def test_debug_convexity_spot_check():
    vals = eig_hermitian(random_hermitian(5, seed=29)).eigenvalues
    lo, hi = float(vals.min()), float(vals.max())  # the spectral hull
    concave = custom(lambda x: -np.abs(x) ** 1.5, convex=True)  # falsely declared
    with pytest.raises(ValueError, match="midpoint convexity"):
        concave.check_midpoint_convexity(lo, hi)
    # a genuinely convex custom function passes the spot check
    custom(lambda x: np.cosh(x), convex=True).check_midpoint_convexity(lo, hi)


@pytest.mark.parametrize("seed", range(8))
def test_scalar_jensen_invariant_for_each_builtin(seed):
    # <psi|f(H)|psi> >= f(<psi|H|psi>) at machine scale for every convex kind
    op = random_hermitian(7, seed=1000 + seed)
    psi = random_unit_vector(7, seed=2000 + seed)
    dec = eig_hermitian(op)
    weights = np.abs(dec.eigenvectors.conj().T @ psi) ** 2
    expectation = float(np.real(np.vdot(psi, op.mat @ psi)))
    for f in (exp_neg(0.5), square(), positive_part(), affine(1.5, 0.2)):
        lhs = float(f(expectation))
        rhs = float(weights @ f(dec.eigenvalues))
        assert rhs - lhs >= -1e-10 * (1 + abs(rhs))


# dump format (written and read by bipartite) ---------------------------------


def test_operator_dump_roundtrip():
    op = random_hermitian(4, seed=31)
    text = format_bipartite_operator(op, BipartiteDims(4, 1))
    lines = text.splitlines()
    assert lines[:2] == ["dims 4 1", "dim 4"]
    assert len(lines) == 2 + 16
    back, dims = parse_bipartite_operator(text)
    assert dims == BipartiteDims(4, 1)
    assert np.array_equal(back.mat, op.mat)


def test_operator_dump_rejects_bad_header():
    entries = "0 0\n" * 4
    with pytest.raises(ValueError, match="'dims M N' header"):
        parse_bipartite_operator("size 2\n" + entries)
    with pytest.raises(ValueError, match="'dim N' header"):
        parse_bipartite_operator("dims 2 1\nsize 2\n" + entries)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hermitian_stack(np.zeros((2, 3))), r"expected a \(k, d, d\) stack, got shape \(2, 3\)"),
        (lambda: hermitian_stack(np.zeros((2, 3, 4))), r"expected a \(k, d, d\) stack, got shape \(2, 3, 4\)"),
        (lambda: hermitian_stack(np.zeros((2, 0, 0))), "dimension must be at least 1"),
        (lambda: exp_neg(0.0), "exp_neg requires t > 0, got 0.0"),
        (lambda: exp_neg(math.nan), "exp_neg requires t > 0, got nan"),
        (lambda: power_neg(-1.0), r"power_neg requires p > 0, got -1.0"),
    ],
)
def test_stack_gate_and_function_parameters_refuse_with_a_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
