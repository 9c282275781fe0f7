"""Property tests for exact eigenvalue counting: 1d Sturm counts against the
one-shift oracle and dense spectra, 2d counts against dense spectra, and the
mirror sectors of symmetric chains against the unsplit counts and spectra."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from semispec import schrodinger
from semispec.schrodinger import (
    GridOperator,
    Homogeneous,
    QuadrantProfile,
    SeparatelyHomogeneous,
    build_hamiltonian,
    counting_function,
    ground_energy,
    spectrum,
)

from oracles import mirror_sturm_negcount, sturm_negcount

profiles = st.builds(QuadrantProfile, *[st.floats(0.0, 4.0)] * 4)
potentials = st.builds(
    SeparatelyHomogeneous, st.floats(0.5, 3.0), st.floats(0.5, 3.0), profiles
)
grids = st.tuples(
    potentials,
    st.tuples(st.floats(1.0, 6.0), st.floats(1.0, 6.0)),
    st.tuples(st.integers(3, 14), st.integers(3, 14)),
)


def _bracket(vals, lam, slack):
    """Dense counts below lam - slack and up to lam + slack."""
    return int(np.count_nonzero(vals < lam - slack)), int(np.count_nonzero(vals <= lam + slack))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grids, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.data())
def test_counts_monotone_and_match_dense(grid, fractions, data):
    op = build_hamiltonian(*grid)
    vals = np.linalg.eigvalsh(op.dense())
    lo, hi = float(vals[0]) - 1.0, float(vals[-1]) + 1.0
    lams = sorted(lo + f * (hi - lo) for f in fractions)
    on_eigenvalues = data.draw(st.lists(st.integers(0, vals.size - 1), min_size=1, max_size=4))
    slack = 1e-9 * (1.0 + np.abs(vals).max())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = [counting_function(op, lam) for lam in lams]
        for k in on_eigenvalues:
            mu = float(vals[k])
            low, high = _bracket(vals, mu, slack)
            assert low <= counting_function(op, mu) <= high

    assert counts == sorted(counts)
    for lam, count in zip(lams, counts):
        low, high = _bracket(vals, lam, slack)
        assert low <= count <= high


# 1d ----------------------------------------------------------------------------

def _unsplit(diag, off, shifts):
    """Sturm counts of the whole chain in one pass, with no sector split."""
    return schrodinger._sturm_pass(diag, off, 0, diag.size, None, shifts)[0]


# small integers and halves make exact zeros in the Sturm recursion likely
entries = st.one_of(st.integers(-4, 4).map(lambda k: k / 2.0), st.floats(-8.0, 8.0))


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(1, 40))
    diag = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    off = np.array(draw(st.lists(entries, min_size=n - 1, max_size=n - 1)))
    return diag, off


@settings(derandomize=True, max_examples=100, deadline=None)
@given(tridiagonals(), st.lists(st.floats(-20.0, 20.0), max_size=6), st.integers(1, 8), st.data())
def test_sturm_counts_match_oracle_monotone_and_in_dense_bracket(tri, free, block, data):
    diag, off = tri
    mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigvalsh(mat)
    # shifts on diagonal entries hit q == 0 at the first node or after a zero coupling
    on_diag = data.draw(st.lists(st.sampled_from(diag.tolist()), max_size=4))
    on_eig = data.draw(st.lists(st.sampled_from(vals.tolist()), max_size=4))
    shifts = np.array(sorted(free + on_diag + on_eig), dtype=float)

    counts = _unsplit(diag, off, shifts)
    with mock.patch.object(schrodinger, "_STURM_BLOCK", block):  # many blocks, each maybe rerun
        assert np.array_equal(_unsplit(diag, off, shifts), counts)
    with np.errstate(over="ignore"):  # a q near underflow makes the next ratio inf
        assert counts.tolist() == [sturm_negcount(diag, off, s) for s in shifts]
    assert np.all(np.diff(counts) >= 0)
    slack = 1e-9 * (1.0 + np.abs(mat).sum(axis=1).max())
    assert np.all(np.searchsorted(vals, shifts - slack, side="left") <= counts)
    assert np.all(counts <= np.searchsorted(vals, shifts + slack, side="right"))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.floats(0.5, 4.0),
    st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
    st.floats(1.0, 8.0),
    st.integers(3, 40),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_counting_function_1d_array_matches_scalar_and_dense(gamma, profile, box, points, fractions):
    op = build_hamiltonian(Homogeneous(gamma, 1, profile), box, points)
    vals = np.linalg.eigvalsh(op.dense())
    lams = [vals[0] - 1.0 + f * (vals[-1] - vals[0] + 2.0) for f in fractions]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = counting_function(op, lams)
        assert counts.tolist() == [counting_function(op, lam) for lam in lams]
    slack = 1e-9 * (1.0 + np.abs(vals).max())
    for lam, count in zip(lams, counts):
        low, high = _bracket(vals, lam, slack)
        assert low <= count <= high


# mirror sectors ----------------------------------------------------------------


@st.composite
def mirror_tridiagonals(draw):
    """Persymmetric tridiagonals (diagonal and couplings equal to their reversals) of 2..40 nodes."""
    n = draw(st.integers(2, 40))
    half = np.array(draw(st.lists(entries, min_size=(n + 1) // 2, max_size=(n + 1) // 2)))
    links = np.array(draw(st.lists(entries, min_size=n // 2, max_size=n // 2)))
    diag = np.concatenate([half, half[: n // 2][::-1]])
    off = np.concatenate([links, links[: (n - 1) // 2][::-1]])
    return diag, off


@settings(derandomize=True, max_examples=100, deadline=None)
@given(mirror_tridiagonals(), st.lists(st.floats(-20.0, 20.0), max_size=6), st.integers(1, 8), st.data())
def test_mirror_sweep_matches_sector_oracle_and_dense_bracket(tri, free, block, data):
    diag, off = tri
    assert len(schrodinger._sector_chains(diag, off)) == 2
    mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals = np.linalg.eigvalsh(mat)
    # shifts on diagonal entries and on d +- e make zero Sturm terms likely
    on_diag = data.draw(st.lists(st.sampled_from((diag.tolist() + (diag[:-1] + off).tolist())), max_size=4))
    on_eig = data.draw(st.lists(st.sampled_from(vals.tolist()), max_size=4))
    shifts = np.array(sorted(free + on_diag + on_eig), dtype=float)

    counts = schrodinger._fold(schrodinger._sturm_pass, diag, off, shifts)
    with mock.patch.object(schrodinger, "_STURM_BLOCK", block):
        assert np.array_equal(schrodinger._fold(schrodinger._sturm_pass, diag, off, shifts), counts)
    with np.errstate(over="ignore"):
        assert counts.tolist() == [mirror_sturm_negcount(diag, off, s) for s in shifts]
    assert np.all(np.diff(counts) >= 0)
    slack = 1e-9 * (1.0 + np.abs(mat).sum(axis=1).max())
    assert np.all(np.searchsorted(vals, shifts - slack, side="left") <= counts)
    assert np.all(counts <= np.searchsorted(vals, shifts + slack, side="right"))
    # away from every eigenvalue the sectors count what the unsplit sweep counts
    clear = np.array([s for s in shifts if np.min(np.abs(vals - s)) > slack])
    if clear.size:
        assert np.array_equal(schrodinger._fold(schrodinger._sturm_pass, diag, off, clear), _unsplit(diag, off, clear))


@st.composite
def mirror_grids(draw):
    """1d Dirichlet operators with mirror-symmetric samples, some of them hard walls."""
    n = draw(st.integers(2, 60))
    half = draw(st.lists(st.one_of(st.floats(0.0, 50.0), st.just(math.inf)), min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    if all(math.isinf(x) for x in half):
        half[0] = 0.0
    samples = np.array(half + half[: n // 2][::-1])
    return GridOperator(1, "dirichlet", (n,), (draw(st.floats(0.1, 2.0)),), samples)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(mirror_grids(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_mirror_sectors_count_and_solve_like_the_unsplit_chain(op, fractions):
    diag, off = schrodinger._chain(op)
    full = np.sort(eigvalsh_tridiagonal(diag, off))  # the unsplit chain, hard walls removed
    norm = float(np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0))
    tol = 8.0 * np.finfo(float).eps * norm  # a few times stebz's default eps * ||T||_1
    assert ground_energy(op) == pytest.approx(full[0], abs=tol, rel=0.0)
    got = spectrum(op)
    assert got.size == full.size and np.max(np.abs(got - full)) <= tol
    # a window ending midway in a gap of the unsplit spectrum holds the same eigenvalues
    gaps = np.flatnonzero(np.diff(full) > 4.0 * tol)
    for k in gaps[:: max(1, gaps.size // 3)]:
        upto = 0.5 * (full[k] + full[k + 1])
        window = spectrum(op, upto=upto)
        assert window.size == k + 1 and np.max(np.abs(window - full[: k + 1])) <= tol

    # counts of the raw chain, hard walls kept as +inf entries, at shifts clear of every eigenvalue
    lo, hi = float(full[0]) - 1.0, float(full[-1]) + 1.0
    shifts = np.array([lo + f * (hi - lo) for f in fractions])
    shifts = shifts[[np.min(np.abs(full - s)) > 1e-9 * (1.0 + norm) for s in shifts]]
    assert len(schrodinger._sector_chains(diag, off)) == min(diag.size, 2)  # the finite chain mirrors too
    raw = 2.0 / op.spacing[0] ** 2 + op.potential, np.full(op.n - 1, -1.0 / op.spacing[0] ** 2)
    with np.errstate(over="ignore"):
        expected = [sturm_negcount(*raw, s) for s in shifts]
    assert schrodinger._count_below(op, shifts).tolist() == expected
