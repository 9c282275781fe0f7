"""Property tests: every text format parses back to what was formatted."""

import numpy as np
from hypothesis import given, settings, strategies as st

from semispec.bipartite import BipartiteDims, format_bipartite_operator, parse_bipartite_operator
from semispec.linalg import HermitianOperator

ENTRIES = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def hermitian(draw, dim):
    re = np.array(draw(st.lists(ENTRIES, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    im = np.array(draw(st.lists(ENTRIES, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    mat = np.tril(re) + np.tril(re, -1).T + 1j * (np.tril(im, -1) - np.tril(im, -1).T)
    return HermitianOperator(mat)


@st.composite
def bipartite(draw):
    dims = BipartiteDims(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return draw(hermitian(dims.total)), dims


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(hermitian))
def test_operator_dump_roundtrip_property(op):
    back, _ = parse_bipartite_operator(format_bipartite_operator(op, BipartiteDims(1, op.dim)))
    assert np.array_equal(back.mat, op.mat)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bipartite())
def test_bipartite_dump_roundtrip_property(case):
    op, dims = case
    back, back_dims = parse_bipartite_operator(format_bipartite_operator(op, dims))
    assert back_dims == dims
    assert np.array_equal(back.mat, op.mat)
