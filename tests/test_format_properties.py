"""Property tests: every text format parses back to what was formatted."""

import numpy as np
from hypothesis import given, settings, strategies as st

from semispec.bipartite import BipartiteDims, format_bipartite_operator, parse_bipartite_operator
from semispec.linalg import HermitianOperator, format_operator, parse_operator
from semispec.schrodinger import (
    Homogeneous,
    QuadrantProfile,
    SeparatelyHomogeneous,
    format_potential_config,
    format_spectrum,
    load_spectrum,
    parse_potential_config,
)

ENTRIES = st.floats(-1e300, 1e300, allow_nan=False)
POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
NONNEG = st.floats(0.0, 1e300)


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


potentials = st.one_of(
    st.builds(Homogeneous, POSITIVE, st.just(1), st.tuples(NONNEG, NONNEG)),
    st.builds(SeparatelyHomogeneous, POSITIVE, POSITIVE, st.builds(QuadrantProfile, *[NONNEG] * 4)),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(hermitian))
def test_operator_dump_roundtrip_property(op):
    assert np.array_equal(parse_operator(format_operator(op)).mat, op.mat)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(bipartite())
def test_bipartite_dump_roundtrip_property(case):
    op, dims = case
    back, back_dims = parse_bipartite_operator(format_bipartite_operator(op, dims))
    assert back_dims == dims
    assert np.array_equal(back.mat, op.mat)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(potentials)
def test_potential_config_roundtrip_property(pot):
    assert parse_potential_config(format_potential_config(pot)) == pot


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=20))
def test_spectrum_dump_roundtrip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("spectrum") / "spec.csv"
    path.write_text(format_spectrum(values))
    assert np.array_equal(load_spectrum(path), np.array(values, dtype=float))
