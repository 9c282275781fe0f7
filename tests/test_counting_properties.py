"""Property tests for exact 2d eigenvalue counting against dense spectra."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from semispec.schrodinger import (
    QuadrantProfile,
    SeparatelyHomogeneous,
    build_hamiltonian,
    counting_function,
)

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
