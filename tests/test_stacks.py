"""The stack gates, the stacked draws and the stacked side kernels against their
one-matrix forms.

``semispec ineq`` evaluates every trial block as stacks, and its output is
pinned bit for bit.  So every stacked reduction here is compared with the
one-matrix formula it replaces (written out below, as the library computed it
one trial at a time) for exact equality of bits, not within a tolerance.
"""

import sys
import weakref

import numpy as np
import pytest

from semispec import bipartite, inequalities, linalg
from semispec.bipartite import BipartiteDims, DensityMatrix, draw_density, draw_hermitian, state_stack
from semispec.linalg import HermitianOperator, affine, eig_hermitian_stack, exp_neg, hermitian_stack
from semispec.linalg import positive_part, square

FUNCTIONS = [exp_neg(0.1), exp_neg(1.0), exp_neg(10.0), square(), positive_part(), affine(2.0, -0.5)]


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _same(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


def _hermitian_by_trial(rng, dim):
    """The one-matrix draw: two normal calls, then (G + G*) / 2."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _state_by_trial(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    gram = g @ g.conj().T
    return gram / np.real(np.trace(gram))


def _stack(seed, k, dim):
    rng = np.random.default_rng(seed)
    return hermitian_stack([_hermitian_by_trial(rng, dim) for _ in range(k)])


def _states(seed, k, dim):
    rng = np.random.default_rng(seed)
    return hermitian_stack([_state_by_trial(rng, dim, int(rng.integers(1, dim + 1))) for _ in range(k)])


# gates ------------------------------------------------------------------------


def _message(exc_info) -> str:
    return str(exc_info.value)


@pytest.mark.parametrize("defect", ["asymmetry", "nan", "inf"])
def test_hermitian_gate_names_the_first_offending_member(defect):
    mats = np.array(_stack(1, 5, 3))
    for s in (2, 4):  # two bad members: the first is named
        if defect == "asymmetry":
            mats[s, 0, 1] += 0.5
        else:
            mats[s, 1, 2] = mats[s, 2, 1] = np.nan if defect == "nan" else np.inf
    with pytest.raises(ValueError) as alone:
        HermitianOperator(mats[2])
    with pytest.raises(ValueError) as stacked:
        hermitian_stack(mats)
    assert _message(stacked) == "stack index 2: " + _message(alone)
    # a stack of one gets the constructor's bare message
    with pytest.raises(ValueError) as one:
        hermitian_stack(mats[2:3])
    assert _message(one) == _message(alone)


def test_hermitian_gate_symmetrizes_each_member_as_alone():
    rng = np.random.default_rng(2)
    mats = np.array(_stack(3, 6, 5))
    mats += 1e-12 * (rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape))
    gated = hermitian_stack(mats)
    assert not gated.flags.writeable
    for a, h in zip(mats, gated):
        assert _same(h.view(np.float64), ((a + a.conj().T) / 2.0).view(np.float64))
        assert _same(h.view(np.float64), HermitianOperator(a).mat.view(np.float64))


def test_hermitian_gate_changes_no_bit_of_a_hermitian_draw():
    mats = draw_hermitian([np.random.default_rng(s) for s in range(8)], 7)
    assert _same(hermitian_stack(mats).view(np.float64), mats.view(np.float64))


@pytest.mark.parametrize("dim", [1, 2, 5, 36])
def test_a_hermitian_draw_is_read_only_and_needs_no_gate(dim):
    # semispec ineq hands draw_hermitian stacks to the evaluators ungated
    mats = draw_hermitian([np.random.default_rng(s) for s in range(5)], dim)
    assert not mats.flags.writeable
    assert _same(hermitian_stack(mats).view(np.float64), mats.view(np.float64))


@pytest.mark.parametrize("defect", ["trace", "negative"])
def test_state_gate_names_the_first_offending_member(defect):
    mats = np.array(_states(4, 5, 3))
    for s in (1, 3):
        if defect == "trace":
            mats[s] *= 1.5
        else:
            mats[s] = np.diag([1.5, -0.25, -0.25])
    with pytest.raises(ValueError) as alone:
        DensityMatrix(HermitianOperator(mats[1]))
    with pytest.raises(ValueError) as stacked:
        state_stack(mats)
    assert _message(stacked) == "stack index 1: " + _message(alone)
    with pytest.raises(ValueError) as one:
        state_stack(mats[1:2])
    assert _message(one) == _message(alone)


def test_state_gate_takes_the_spectra_of_a_stacked_solve(monkeypatch):
    mats = _states(5, 4, 3)
    spectra, _ = eig_hermitian_stack(mats)

    def refuse(mats):
        raise AssertionError("the spectra were recomputed")

    monkeypatch.setattr(bipartite, "eig_hermitian_stack", refuse)
    assert state_stack(mats, spectra) is spectra


# draws ------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_stacked_draws_match_the_one_trial_draws(dim):
    seeds = range(6)
    rngs = [np.random.default_rng(s) for s in seeds]
    ranks = [1 + s % dim for s in seeds]
    hs = draw_hermitian(rngs, dim)
    states = draw_density(rngs, dim, ranks)
    for s, h, state, rank, rng in zip(seeds, hs, states, ranks, rngs):
        alone = np.random.default_rng(s)
        assert _same(h.view(np.float64), _hermitian_by_trial(alone, dim).view(np.float64))
        assert _same(state.view(np.float64), _state_by_trial(alone, dim, rank).view(np.float64))
        assert rng.standard_normal() == alone.standard_normal()  # the streams moved alike


def test_random_generators_are_gated_stacks_of_one():
    assert _same(bipartite.random_hermitian(4, 9).mat.view(np.float64),
                 _hermitian_by_trial(np.random.default_rng(9), 4).view(np.float64))
    rho = bipartite.random_density(4, 2, 9)
    assert _same(rho.op.mat.view(np.float64), _state_by_trial(np.random.default_rng(9), 4, 2).view(np.float64))
    with pytest.raises(ValueError, match="rank must satisfy"):
        bipartite.random_density(3, 4, 0)


# kernels, one stack of one shape against each member alone -----------------
#
# Each stacked helper takes gated inputs and does its own solves; the
# reference formulas take their spectra from eig_hermitian_stack here.

SHAPES = [(1, 1, 1), (1, 3, 4), (7, 1, 5), (9, 2, 3), (16, 3, 3), (5, 4, 3), (3, 2, 6)]


def _alone(helper, i, *stacks, **kwargs):
    """``helper`` on member i of each stack, as a stack of one."""
    return helper(*(s[i : i + 1] for s in stacks), **kwargs)


def _same_member(sides, i, alone) -> bool:
    return all(_same(side[i], one[0]) for side, one in zip(sides, alone))


@pytest.mark.parametrize("k,m,n", SHAPES)
def test_jensen_scalar_sides_stacked_bit_for_bit(k, m, n):
    dim = m * n
    mats = _stack(10 + k, k, dim)
    rng = np.random.default_rng(11)
    psi = np.array([bipartite.random_unit_vector(dim, rng) for _ in range(k)])
    sides = lhs, rhs = inequalities._jensen_scalar_sides(mats, psi, FUNCTIONS)
    vals, vecs = eig_hermitian_stack(mats)
    for i in range(k):
        weights = np.abs(vecs[i].conj().T @ psi[i]) ** 2
        expectation = float(np.real(np.vdot(psi[i], mats[i] @ psi[i])))
        for j, f in enumerate(FUNCTIONS):
            assert _same(lhs[i, j], float(f(expectation)))
            assert _same(rhs[i, j], float(np.dot(weights, f(vals[i]))))
        assert _same_member(sides, i, _alone(inequalities._jensen_scalar_sides, i, mats, psi, functions=FUNCTIONS))


@pytest.mark.parametrize("k,m,n", SHAPES)
def test_compress_and_partial_jensen_sides_stacked_bit_for_bit(k, m, n):
    dims = BipartiteDims(m, n)
    mats, states = _stack(20 + k, k, dims.total), _states(21 + k, k, m)
    sides = lhs, rhs = inequalities._jensen_partial_trace_sides(mats, states, dims, FUNCTIONS)
    ks = hermitian_stack(bipartite.compress_stack(mats, states, dims))
    vals, vecs = eig_hermitian_stack(mats)
    kappa, _ = eig_hermitian_stack(ks)
    for i in range(k):
        four = mats[i].reshape(m, n, m, n)
        raw = np.einsum("ba,anbq->nq", states[i], four)
        assert _same(ks[i].view(np.float64), ((raw + raw.conj().T) / 2.0).view(np.float64))
        u = vecs[i].reshape(m, n, -1)
        weights = np.real(np.einsum("ank,ab,bnk->k", u.conj(), states[i], u))
        for j, f in enumerate(FUNCTIONS):
            assert _same(lhs[i, j], float(np.sum(f(kappa[i]))))
            assert _same(rhs[i, j], float(np.dot(weights, f(vals[i]))))
        alone = _alone(inequalities._jensen_partial_trace_sides, i, mats, states, dims=dims, functions=FUNCTIONS)
        assert _same_member(sides, i, alone)


def _with_extreme(stack, shift):
    """The stack and one more member: its first, moved by ``shift`` I, so that the new
    member's spectra sit near ``shift``."""
    return np.concatenate([stack, stack[:1] + shift * np.eye(stack.shape[-1])])


@pytest.mark.parametrize("k,m,n", SHAPES)
def test_golden_thompson_sides_stacked_bit_for_bit(k, m, n):
    # the last member's e^A and e^B are near e^700 and e^-700, at the ends of float range
    a, b = _with_extreme(_stack(30 + k, k, m * n), 700.0), _with_extreme(_stack(31 + k, k, m * n), -700.0)
    sides = lhs, rhs = inequalities._golden_thompson_sides(a, b)
    sum_vals, _ = eig_hermitian_stack(hermitian_stack(a + b))
    (a_vals, a_vecs), (b_vals, b_vecs) = eig_hermitian_stack(a), eig_hermitian_stack(b)
    for i in range(k + 1):
        # the rhs's terms e^(a_i + b_j) |U* V|^2_ij, summed pivoted at the largest exponent
        overlaps = np.abs(a_vecs[i].conj().T @ b_vecs[i]) ** 2
        exponents = (a_vals[i][:, None] + b_vals[i][None, :] + np.log(overlaps)).ravel()
        assert _same(lhs[i], float(np.sum(np.exp(sum_vals[i]))))
        assert _same(rhs[i], float(np.exp(exponents.max()) * np.sum(np.exp(exponents - exponents.max()))))
        assert _same_member(sides, i, _alone(inequalities._golden_thompson_sides, i, a, b))
    assert 0.0 < rhs[k] < np.inf


@pytest.mark.parametrize("k,m,n", SHAPES)
def test_sliced_hamiltonian_and_sides_stacked_bit_for_bit(k, m, n):
    # the last member's T sits near -1400 and its blocks near +1400: at t = 0.5 its exponents
    # are near +-700, at the ends of float range, but its side is of order 1
    t_mats = _with_extreme(_stack(40 + k, k, m), -1400.0)
    blocks = _with_extreme(_stack(41 + k, k * m, n).reshape(k, m, n, n), 1400.0)
    hs = hermitian_stack(inequalities.sliced_stack(t_mats, blocks))
    for i in range(k + 1):
        h = np.kron(t_mats[i], np.eye(n, dtype=np.complex128))
        for j in range(m):
            h[j * n : (j + 1) * n, j * n : (j + 1) * n] += blocks[i, j]
        assert _same(hs[i].view(np.float64), ((h + h.conj().T) / 2.0).view(np.float64))
    sides = lhs, rhs = inequalities._sliced_gt_sides(t_mats, blocks, 0.5)
    h_vals, _ = eig_hermitian_stack(hs)
    t_vals, t_vecs = eig_hermitian_stack(t_mats)
    block_vals = eig_hermitian_stack(blocks.reshape(-1, n, n))[0].reshape(k + 1, m, n)
    for i in range(k + 1):
        # the rhs's terms |U_mk|^2 e^(-t (lambda_k + w_mj)), summed pivoted at the largest exponent
        weights = np.log(np.abs(t_vecs[i]) ** 2)[:, :, None]
        exponents = (weights - 0.5 * (t_vals[i][None, :, None] + block_vals[i][:, None, :])).ravel()
        assert _same(lhs[i], float(np.sum(np.exp(-0.5 * h_vals[i]))))
        assert _same(rhs[i], float(np.exp(exponents.max()) * np.sum(np.exp(exponents - exponents.max()))))
        assert _same_member(sides, i, _alone(inequalities._sliced_gt_sides, i, t_mats, blocks, t=0.5))
    assert 0.0 < rhs[k] < np.inf


@pytest.mark.parametrize("k,dim", [(1, 1), (6, 3), (12, 6), (9, 11), (5, 20)])
def test_entropy_and_gibbs_sides_stacked_bit_for_bit(k, dim):
    states, mats = _states(50 + k, k, dim), _stack(51 + k, k, dim)
    sides = lhs, rhs = inequalities._gibbs_sides(states, mats)
    spectra = state_stack(states)
    vals, _ = eig_hermitian_stack(mats)
    entropies = bipartite.entropy_terms(spectra)
    for i in range(k):
        clipped = np.clip(spectra[i], 0.0, None)
        pos = clipped[clipped > 0.0]
        entropy = float(np.sum(pos * np.log(pos)))
        assert _same(entropies[i], entropy)
        energy = float(np.real(np.vdot(states[i], mats[i])))
        shift = float(np.min(vals[i]))
        assert _same(rhs[i], energy + entropy)
        assert _same(lhs[i], -(float(np.log(np.sum(np.exp(-(vals[i] - shift))))) - shift))
        assert _same_member(sides, i, _alone(inequalities._gibbs_sides, i, states, mats))


def test_each_helper_solves_once_per_distinct_dimension(monkeypatch):
    solved = []

    def counting(mats):
        solved.append(np.shape(mats)[1])
        return eig_hermitian_stack(mats)

    monkeypatch.setattr(inequalities, "eig_hermitian_stack", counting)
    k = 4
    psi = np.array([bipartite.random_unit_vector(6, s) for s in range(k)])
    t_mats = {m: _stack(60 + m, k, m) for m in (2, 3)}
    blocks = _stack(63, 3 * k, 3).reshape(k, 3, 3, 3)
    cases = [
        (lambda: inequalities._jensen_scalar_sides(_stack(61, k, 6), psi, FUNCTIONS), [6]),
        (lambda: inequalities._jensen_partial_trace_sides(_stack(62, k, 6), _states(62, k, 2), BipartiteDims(2, 3),
                                                          FUNCTIONS), [6, 3, 2]),
        (lambda: inequalities._jensen_partial_trace_sides(_stack(62, k, 9), _states(62, k, 3), BipartiteDims(3, 3),
                                                          FUNCTIONS), [9, 3]),
        (lambda: inequalities._golden_thompson_sides(_stack(64, k, 5), _stack(65, k, 5)), [5]),
        (lambda: inequalities._sliced_gt_sides(t_mats[3], blocks, 0.5), [9, 3]),  # m = n
        (lambda: inequalities._sliced_gt_sides(t_mats[2], blocks[:, :2], 0.5), [6, 2, 3]),
        (lambda: inequalities._gibbs_sides(_states(66, k, 4), _stack(67, k, 4)), [4]),
    ]
    for run, dims in cases:
        solved.clear()
        run()
        assert solved == dims
    # the public sides are the helpers on a stack of one: Golden-Thompson takes one solve
    solved.clear()
    inequalities.golden_thompson_sides(bipartite.random_hermitian(5, 1), bipartite.random_hermitian(5, 2))
    assert solved == [5]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller's frame holds its call arguments")
def test_golden_thompson_helper_drops_temporary_inputs_before_its_solve(monkeypatch):
    inputs, alive = [], []

    def tracked(stack):
        inputs.append(weakref.ref(stack))
        return stack

    def solving(mats):
        alive.append([ref() is not None for ref in inputs])
        return eig_hermitian_stack(mats)

    monkeypatch.setattr(inequalities, "eig_hermitian_stack", solving)
    lhs, rhs = inequalities._golden_thompson_sides(tracked(_stack(64, 4, 5)), tracked(_stack(65, 4, 5)))
    assert alive == [[False, False]]
    monkeypatch.undo()
    expected = inequalities._golden_thompson_sides(_stack(64, 4, 5), _stack(65, 4, 5))
    assert _same(lhs, expected[0]) and _same(rhs, expected[1])


def test_entropy_terms_of_rows_without_positive_entries_are_zero():
    terms = bipartite.entropy_terms(np.array([[-1e-17, 0.0], [0.5, 0.5], [0.0, 0.0]]))
    assert terms.tolist() == [0.0, float(np.log(0.5)), 0.0]
