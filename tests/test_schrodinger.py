import dataclasses
import json
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lapack

from semispec import _lapack, schrodinger
from semispec.inequalities import sliced_gt_gap, sliced_gt_sides
from semispec.linalg import HermitianOperator
from semispec.bipartite import random_hermitian
from semispec.schrodinger import (
    BoundaryWarning,
    CoherentWindow,
    GridOperator,
    Homogeneous,
    QuadrantProfile,
    SeparatelyHomogeneous,
    build_hamiltonian,
    channel_boxes,
    coherent_frame_defect,
    coherent_lower_bound,
    coherent_partial_lower_bound,
    counting_box,
    counting_function,
    delta_window,
    flat_window,
    gaussian_window,
    gershgorin_bounds,
    ground_energy,
    heat_box,
    heat_trace,
    heat_truncation_bound,
    points_for_spacing,
    spectrum,
    transverse_growth_exponent,
    transverse_zetas,
    zeta_trace,
)

from oracles import (
    banded_negcount,
    box_doubling_change,
    bunch_kaufman_inertia,
    coherent_frame_defect_by_sum,
    coherent_lower_bound_by_sum,
    coherent_partial_lower_bound_by_sum,
    dirichlet_bands,
    dirichlet_laplacian_eigenvalues,
    gershgorin_by_bands,
    ground_energy_by_serial_stebz,
    lower_bands,
    window_by_serial_stebz,
    zeta_by_full_spectrum,
)

OSCILLATOR = Homogeneous(2.0, 1, (1.0, 1.0))
SIMON = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 1.0, 1.0, 1.0))


# potentials ------------------------------------------------------------------


def test_homogeneous_scaling_by_construction():
    pot = Homogeneous(1.5, 1, (2.0, 0.5))
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    for s in (2.0, 5.0):
        assert np.allclose(pot.value(s * x), s**1.5 * pot.value(x))


def test_separately_homogeneous_scaling():
    x = np.linspace(-2, 2, 9)[:, None]
    y = np.linspace(-1, 1, 7)[None, :]
    v = SIMON.value(x, y)
    assert np.allclose(SIMON.value(2 * x, y), 2.0 * v)
    assert np.allclose(SIMON.value(x, 2 * y), 4.0 * v)
    assert np.all(v >= 0)


def test_profile_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        Homogeneous(2.0, 1, (1.0, -1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        QuadrantProfile(1.0, 1.0, -0.1, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="profile values"):
            QuadrantProfile(1.0, bad, 1.0, 1.0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="profile values"):
            Homogeneous(2.0, 1, (bad, 1.0))
    assert Homogeneous(2.0, 1, (math.inf, 1.0)).profile == (math.inf, 1.0)  # a hard wall
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            Homogeneous(bad, 1, (1.0, 1.0))
        with pytest.raises(ValueError, match="alpha and beta must be positive and finite"):
            SeparatelyHomogeneous(1.0, bad, QuadrantProfile(1.0, 1.0, 1.0, 1.0))


# grid construction -----------------------------------------------------------


def test_free_laplacian_matches_closed_form():
    op = build_hamiltonian(None, 1.0, 41)
    got = spectrum(op)
    expected = np.sort(dirichlet_laplacian_eigenvalues(41, op.spacing[0]))
    assert np.max(np.abs(got - expected)) <= 1e-9 * expected[-1]


def test_grid_stencil_values():
    op = build_hamiltonian(None, 2.0, 7)
    h = op.spacing[0]
    assert h == pytest.approx(4.0 / 8.0)
    dense = op.dense()
    assert np.allclose(np.diag(dense), 2.0 / h**2)
    assert np.allclose(np.diag(dense, -1), -1.0 / h**2)
    assert np.count_nonzero(dense) == 7 + 2 * 6


def test_2d_stencil_values():
    op = build_hamiltonian(None, (1.0, 2.0), (4, 5))
    hx, hy = op.spacing
    dense = op.dense()
    assert np.allclose(np.diag(dense), 2.0 / hx**2 + 2.0 / hy**2)
    # y-neighbors within a row couple, across rows they must not
    assert dense[0, 1] == pytest.approx(-1.0 / hy**2)
    assert dense[4, 5] == 0.0
    assert dense[0, 5] == pytest.approx(-1.0 / hx**2)


class _AxisRecorder:
    """A potential that is 0 everywhere and records the node axes it is sampled on."""

    def value(self, *axes):
        self.axes = [np.asarray(a).ravel() for a in axes]
        return np.zeros(np.broadcast(*axes).shape)


@pytest.mark.parametrize(
    "box, points",
    [(40.0, 7999), (40.0, 8000), (2.0, 3), (2.0, 4), ((5.0, 4.0), (23, 17)), ((3.0, 6.0), (10, 31)), ((1.7, 0.3), (8, 12))],
)
def test_dirichlet_nodes_mirror_exactly(box, points):
    rec = _AxisRecorder()
    op = build_hamiltonian(rec, box, points)
    assert len(rec.axes) == op.ndim
    for x, length, h in zip(rec.axes, np.atleast_1d(box), op.spacing):
        assert np.array_equal(x, -x[::-1])
        # the same nodes as -L + h (1 + i), up to rounding
        assert np.max(np.abs(x - (-length + h * (1.0 + np.arange(x.size))))) <= 2.0 * np.spacing(length)


@pytest.mark.parametrize(
    "pot, box, points",
    [
        (OSCILLATOR, 40.0, 7999),
        (Homogeneous(3.0, 1, (2.0, 0.3)), 7.3, 58),
        (SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 1.0, 1.0, 1.0)), (5.0, 4.0), (23, 18)),
        (SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 2.0, 3.0, 0.5)), (3.0, 6.0), (10, 31)),
    ],
)
def test_dirichlet_samples_move_by_a_few_ulps(pot, box, points):
    op = build_hamiltonian(pot, box, points)
    axes = [-length + h * (1.0 + np.arange(p)) for length, h, p in zip(np.atleast_1d(box), op.spacing, np.atleast_1d(points))]
    former = np.asarray(pot.value(*np.ix_(*axes))).ravel()
    assert np.max(np.abs(op.potential - former)) <= 8.0 * np.spacing(former.max())


def test_oscillator_low_spectrum():
    # central-difference error is about h^2 E^2 / 32, so the 20th level
    # needs h <= 3e-3 to sit within 1e-3 of 2k+1
    op = build_hamiltonian(OSCILLATOR, 12.0, 7999)
    got = spectrum(op, upto=45.0)[:20]
    expected = 2.0 * np.arange(20) + 1.0
    assert np.max(np.abs(got - expected)) < 1e-3


def test_grid_refinement_is_second_order():
    # doubling the point count shrinks the ground-energy error by about 4
    coarse = build_hamiltonian(OSCILLATOR, 10.0, 250)
    fine = build_hamiltonian(OSCILLATOR, 10.0, 501)
    err_coarse = abs(ground_energy(coarse) - 1.0)
    err_fine = abs(ground_energy(fine) - 1.0)
    assert err_fine < err_coarse
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.2)


def test_build_validation():
    with pytest.raises(ValueError, match="at least 3"):
        build_hamiltonian(None, 1.0, 2)
    nan_right = SimpleNamespace(value=lambda x: np.where(x > 0, math.nan, x * x))
    with pytest.raises(ValueError, match=r"namespace\(value=.* is NaN at 2 of 5 nodes"):
        build_hamiltonian(nan_right, 1.0, 5)
    with pytest.raises(ValueError, match="must be nonnegative, min is -1.0"):
        build_hamiltonian(SimpleNamespace(value=lambda x: -np.ones_like(x)), 1.0, 5)
    with pytest.raises(ValueError, match="cap"):
        build_hamiltonian(None, (1.0, 1.0), (600, 600))
    with pytest.raises(ValueError, match="1d"):
        build_hamiltonian(None, (1.0, 1.0), (5, 5), boundary="periodic")
    # h^2 underflows to 0, to a subnormal whose inverse overflows, or to one
    # whose 1/h^2 is finite while the diagonal offset 2/h^2 is not
    for box in (1e-300, 1e-158, 3e-152):
        with pytest.raises(ValueError, match=r"box \(\d+(\.\d+)?e-\d+,\) on \(601,\) points .* too fine"):
            build_hamiltonian(OSCILLATOR, box, 601)
    # in 2d each 2/h^2 is finite but their sum is not
    with pytest.raises(ValueError, match="too fine"):
        build_hamiltonian(None, (2.5e-154, 2.5e-154), (3, 3))
    # h^2 overflows a float (a bare OverflowError before), in 1d and on either axis in 2d; h = 1e154 still builds
    for box, points, spacing in (
        (1e155, 3, "(5e+154,)"),
        ((1.0, 1e160), (5, 5), "(0.3333333333333333, 3.3333333333333334e+159)"),
    ):
        with pytest.raises(ValueError) as err:
            build_hamiltonian(None, box, points)
        assert str(err.value).endswith(f"gives spacing {spacing}, too coarse for the 2/h^2 stencil: h^2 overflows a float")
    assert build_hamiltonian(None, 2e154, 3).spacing == (1e154,)


def test_infinite_samples_are_refused_off_1d_dirichlet_grids():
    # |y|^1e300 overflows to +inf for |y| > 1: a hard wall in 1d, refused in 2d
    steep = SeparatelyHomogeneous(1.0, 1e300, QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"beta=1e\+300.*\+inf at 400 of 800 nodes; 2d grids need finite"):
        build_hamiltonian(steep, (8.0, 2.0), (40, 20))
    wall = Homogeneous(2.0, 1, (1.0, math.inf))
    op = build_hamiltonian(wall, 2.0, 9)
    assert np.count_nonzero(np.isinf(op.potential)) == 4
    # the torus has no chain to drop the wall from
    with pytest.raises(ValueError, match=r"inf\)\) is \+inf at 32 of 64 nodes; torus grids need finite samples"):
        build_hamiltonian(wall, 8.0, 64, boundary="periodic")


def test_a_1d_grid_with_no_finite_sample_is_refused():
    # four nodes at +-h/2 and +-3h/2 all sit behind the walls; an odd count has a node at 0, where V = 0
    walls = Homogeneous(2.0, 1, (math.inf, math.inf))
    with pytest.raises(ValueError) as err:
        build_hamiltonian(walls, 2.0, 4)
    assert str(err.value) == f"{walls!r} is +inf at all 4 nodes; a 1d grid needs a finite sample"
    assert np.count_nonzero(np.isfinite(build_hamiltonian(walls, 2.0, 5).potential)) == 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Homogeneous(2.0, 3, (1.0, 1.0)), "d must be 1 or 2, got 3"),
        (lambda: Homogeneous(2.0, 2, (1.0, 1.0)), "d=2 requires a callable angular profile"),
        (lambda: build_hamiltonian(None, (1.0, 1.0), 5), "box and points must have matching dimensionality"),
        (lambda: build_hamiltonian(None, (1.0,) * 3, (3,) * 3), "only 1d and 2d grids are supported, got 3d"),
        (lambda: build_hamiltonian(None, 1.0, 5, boundary="neumann"), "unknown boundary 'neumann'"),
    ],
    ids=["d-3", "d-2-pair", "box-points", "3d", "boundary"],
)
def test_potentials_and_grids_refuse_malformed_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_profiles_and_walls_survive_rounded_powers():
    # |x|^1e300 is +inf for |x| > 1 and 0 for |x| < 1: V is 0 where F = 0, a
    # 1d hard wall where F = inf and x != 0, and 0 at the origin
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert Homogeneous(1e300, 1, (0.0, math.inf)).value(x).tolist() == [math.inf, math.inf, 0.0, 0.0, 0.0]
    assert Homogeneous(1e300, 1, (1.0, 0.0)).value(x).tolist() == [0.0, 0.0, 0.0, 0.0, math.inf]
    flat_arc = Homogeneous(1e300, 2, lambda th: np.where(np.cos(th) > 0, 0.0, 1.0))
    assert flat_arc.value(x, np.zeros(5)).tolist() == [math.inf, 0.0, 0.0, 0.0, 0.0]
    half_zero = SeparatelyHomogeneous(1.0, 1e300, QuadrantProfile(1.0, 0.0, 1.0, 1.0))
    assert half_zero.value(np.array([[2.0], [-2.0]]), np.array([[-2.0, 2.0]])).tolist() == [
        [0.0, math.inf], [math.inf, math.inf]
    ]
    # on the nodes -1.5, 0, 1.5 per axis |x|^1e300 |y|^1e300 is inf * 0 at the four
    # nodes with one coordinate 0 and the other not
    both = SeparatelyHomogeneous(1e300, 1e300, QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"alpha=1e\+300, beta=1e\+300.* is NaN at 4 of 9 nodes"):
        build_hamiltonian(both, (3.0, 3.0), (3, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_potential_powers_overflow_without_warnings():
    x = np.array([-1e3, -1.0, 0.0, 1.0, 1e3])
    assert Homogeneous(400.0, 1, (1.0, 2.0)).value(x).tolist() == [math.inf, 2.0, 0.0, 1.0, math.inf]
    steep = SeparatelyHomogeneous(1.0, 400.0, QuadrantProfile(1.0, 1.0, 1.0, 3.0))
    assert steep.value(np.array([[-2.0], [2.0]]), np.array([[-1.0, 1e3]])).tolist() == [
        [6.0, math.inf], [2.0, math.inf]
    ]


def test_homogeneity_survives_discretization():
    # scaling V -> s^gamma V with the box shrunk by s^(-gamma/(gamma+2))
    # multiplies eigenvalues by s^(2 gamma/(gamma+2)), here within 1%
    pot = Homogeneous(2.0, 1, (1.0, 1.0))
    s = 2.0
    factor = s ** (2.0 * 2.0 / 4.0)
    scaled_pot = Homogeneous(2.0, 1, (s**2.0, s**2.0))
    base = build_hamiltonian(pot, 10.0, 1501)
    scaled = build_hamiltonian(scaled_pot, 10.0 * s ** (-0.5), 1501)
    v_base = spectrum(base, upto=12.0)
    v_scaled = spectrum(scaled, upto=12.0 * factor)
    k = min(v_base.size, v_scaled.size, 5)
    assert np.max(np.abs(v_scaled[:k] / v_base[:k] - factor)) < 0.01 * factor


# counting --------------------------------------------------------------------


def test_counting_free_laplacian_closed_form():
    op = build_hamiltonian(None, 1.0, 101)
    eigs = np.sort(dirichlet_laplacian_eigenvalues(101, op.spacing[0]))
    for lam in (eigs[0] - 1.0, 10.0, 500.0, float(eigs[-1] + 1.0)):
        assert counting_function(op, lam) == int(np.count_nonzero(eigs < lam))


def test_counting_zero_below_gershgorin():
    op = build_hamiltonian(OSCILLATOR, 8.0, 301)
    lo, _ = gershgorin_bounds(op)
    assert counting_function(op, lo - 1.0) == 0


def test_counting_oscillator_exact():
    op = build_hamiltonian(OSCILLATOR, 20.0, 3999)
    assert counting_function(op, 100.0) == 50


@pytest.mark.parametrize("profile", [(1.0, math.inf), (math.inf, 1.0)])
def test_counting_behind_a_hard_wall(profile):
    # 601 nodes put one at x = 0, where V is 0 (not 0 * inf); the infinite
    # samples decouple, leaving the finite sub-tridiagonal on the open side
    op = build_hamiltonian(Homogeneous(2.0, 1, profile), 6.0, 601)
    finite = np.isfinite(op.potential)
    assert np.count_nonzero(finite) == 301 and op.potential[300] == 0.0
    sub = np.linalg.eigvalsh(op.dense()[np.ix_(finite, finite)])
    lams = np.array([10.0, 20.0, 40.0])
    expected = [int(np.count_nonzero(sub < lam)) for lam in lams]
    assert counting_function(op, lams).tolist() == expected and min(expected) > 0


@pytest.mark.parametrize("profile", [(1.0, math.inf), (math.inf, 1.0)])
def test_heat_and_zeta_behind_a_hard_wall(profile):
    # the infinite samples decouple with eigenvalue +inf, adding 0 to heat and
    # zeta sums: both equal those of the finite sub-tridiagonal
    op = build_hamiltonian(Homogeneous(2.0, 1, profile), 6.0, 601)
    finite = np.isfinite(op.potential)
    sub = np.linalg.eigvalsh(op.dense()[np.ix_(finite, finite)])
    ts = np.array([0.1, 1.0])
    expected = np.array([np.sum(np.exp(-t * sub)) for t in ts])
    for method in ("dense", "truncated"):
        assert np.allclose(heat_trace(op, ts, method=method), expected, rtol=1e-10, atol=0.0), method
    assert np.allclose(spectrum(op), sub, rtol=1e-10, atol=0.0)
    assert ground_energy(op) == pytest.approx(sub[0], rel=1e-10)
    whole = zeta_trace(op, 2.0)
    assert whole.count == sub.size and whole.tail == 0.0
    assert whole.value == pytest.approx(np.sum(sub**-2.0), rel=1e-10)
    cut = zeta_trace(op, 2.0, e_cut=100.0, growth_exponent=1.0)
    assert cut.count == np.count_nonzero(sub <= 100.0) and cut.tail > 0.0


def test_counting_sturm_multiplicity():
    # count jumps across an eigenvalue by exactly its multiplicity
    op = build_hamiltonian(None, 1.0, 64)
    eigs = np.sort(dirichlet_laplacian_eigenvalues(64, op.spacing[0]))
    mu = float(eigs[10])
    eps = 1e-6 * mu
    jump = counting_function(op, mu + eps) - counting_function(op, mu - eps)
    assert jump == int(np.count_nonzero(np.abs(eigs - mu) < eps))


def test_counting_warns_on_boundary_hit():
    op = build_hamiltonian(None, 1.0, 31)
    vals = spectrum(op)
    mu = float(vals[4])
    with pytest.warns(BoundaryWarning):
        counting_function(op, mu)
    # in an array, only the ambiguous lambda warns, and it warns once
    lams = [float(vals[1] + vals[2]) / 2, mu, float(vals[9] + vals[10]) / 2]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        counts = counting_function(op, lams)
    assert [w.category for w in caught] == [BoundaryWarning]
    assert str(caught[0].message).startswith(f"lambda={mu!r} is within")
    assert counts.tolist() == [2, 4, 10]


def test_counting_array_matches_scalar_calls():
    for op in (
        build_hamiltonian(OSCILLATOR, 8.0, 301),
        build_hamiltonian(SIMON, (5.0, 4.0), (13, 9)),
        build_hamiltonian(OSCILLATOR, 6.0, 48, boundary="periodic"),
        build_hamiltonian(None, 3.0, 9),
    ):
        lo, hi = gershgorin_bounds(op)
        lams = np.linspace(lo - 1.0, hi + 1.0, 12).reshape(3, 4)
        counts = counting_function(op, lams)
        assert counts.shape == (3, 4) and counts.dtype.kind == "i"
        scalar = [counting_function(op, float(lam)) for lam in lams.ravel()]
        assert all(type(c) is int for c in scalar)
        assert counts.ravel().tolist() == scalar
    with pytest.raises(ValueError, match="finite"):
        counting_function(op, [1.0, math.nan])


def test_counting_2d_matches_dense():
    op = build_hamiltonian(SIMON, (5.0, 4.0), (19, 15))
    dense_vals = np.linalg.eigvalsh(op.dense())
    for lam in (2.0, 5.0, 11.0, 30.0):
        assert counting_function(op, lam) == int(np.count_nonzero(dense_vals < lam))


def test_counting_2d_on_eigenvalue_within_bracket():
    op = build_hamiltonian(SIMON, (4.0, 4.0), (12, 12))
    vals = np.linalg.eigvalsh(op.dense())
    mu = float(vals[7])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        n = counting_function(op, mu)
    assert n in (7, 8)


ASYMMETRIC = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 2.0, 3.0, 0.5))


def _rows(op, reverse=False):
    """The block rows of a 2d operator, forward or reversed, with the spacing across and within them."""
    rows, hx, hy = schrodinger._block_rows(op)
    return rows[::-1] if reverse else rows, hx, hy


@pytest.mark.parametrize("points", [(40, 30), (30, 40), (23, 7), (7, 23), (9, 9)])
def test_block_count_matches_banded_ldl_oracle(points):
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), points)
    lo, hi = gershgorin_bounds(op)
    for lam in np.random.default_rng(sum(points)).uniform(lo - 1.0, 0.5 * hi, 12):
        expected = banded_negcount(dirichlet_bands(op), lam)
        for reverse in (False, True):
            assert schrodinger._block_negcount(*_rows(op, reverse), lam) == expected
        assert schrodinger._count_below(op, lam) == expected


def _first_row_block(op):
    # A_11 of the block recursion: the x = -L row (px > py, so no transpose)
    hx, hy = op.spacing
    py = op.points[1]
    return (
        np.diag(2.0 / hx**2 + 2.0 / hy**2 + op.potential[:py])
        + np.diag(np.full(py - 1, -1.0 / hy**2), 1)
        + np.diag(np.full(py - 1, -1.0 / hy**2), -1)
    )


def test_block_count_forward_breakdown_resolved_in_reverse_order():
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), (14, 9))
    vals = np.linalg.eigvalsh(op.dense())
    shift = float(np.linalg.eigvalsh(_first_row_block(op))[0])
    assert np.min(np.abs(vals - shift)) > 1e-3  # an eigenvalue of A_11, not of A
    with pytest.raises(schrodinger._PivotBreakdown):
        schrodinger._block_negcount(*_rows(op), shift)
    expected = int(np.count_nonzero(vals < shift))
    assert schrodinger._block_negcount(*_rows(op, reverse=True), shift) == expected
    assert schrodinger._count_below(op, shift) == expected
    assert counting_function(op, shift) == expected


def test_block_count_breakdown_in_both_orders_counts_by_spectrum(monkeypatch):
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), (14, 9))
    vals = np.linalg.eigvalsh(op.dense())

    def breakdown(rows, hx, hy, shift, fold=False):
        raise schrodinger._PivotBreakdown("forced")

    calls = []

    def counted(name):
        func = getattr(schrodinger, name)
        monkeypatch.setattr(schrodinger, name, lambda *args: calls.append(name) or func(*args))

    monkeypatch.setattr(schrodinger, "_block_negcount", breakdown)
    for name in ("spectrum", "_block_rows", "_is_mirror"):
        counted(name)
    shifts = [float(vals[0]) - 1.0, 0.5 * float(vals[3] + vals[4]), float(vals[-1]) + 1.0]
    assert schrodinger._count_below(op, shifts).tolist() == [0, 4, op.n]
    # the rows, both mirror flags and the dense spectrum once for all three shifts
    assert sorted(calls) == ["_block_rows", "_is_mirror", "_is_mirror", "spectrum"]


def test_block_count_on_eigenvalue_past_dense_cap_raises(monkeypatch):
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), (14, 9))
    mu = float(np.linalg.eigvalsh(op.dense())[0])
    monkeypatch.setattr(schrodinger, "DENSE_EIG_CAP", 0)
    with pytest.raises(RuntimeError, match="both row orders"):
        schrodinger._count_below(op, mu)


X_MIRROR = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 2.0, 1.0, 2.0))  # F(-x, y) = F(x, y)
Y_MIRROR = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 1.0, 2.0, 2.0))  # F(x, -y) = F(x, y)


@pytest.mark.parametrize("points", [(15, 9), (14, 8), (15, 8), (14, 9), (9, 14), (8, 15)])
@pytest.mark.parametrize("pot", [X_MIRROR, Y_MIRROR, SIMON], ids=["x", "y", "xy"])
def test_folded_block_count_matches_banded_ldl_oracle(pot, points):
    op = build_hamiltonian(pot, (5.0, 4.0), points)
    grid = op.potential.reshape(op.points)
    assert schrodinger._is_mirror(grid) == (pot is not Y_MIRROR)
    assert schrodinger._is_mirror(grid.T) == (pot is not X_MIRROR)
    lo, hi = gershgorin_bounds(op)
    for lam in np.random.default_rng(sum(points)).uniform(lo - 1.0, 0.5 * hi, 12):
        expected = banded_negcount(dirichlet_bands(op), lam)
        assert schrodinger._block_negcount(*_rows(op), lam, fold=True) == expected
        assert schrodinger._count_below(op, lam) == expected


@pytest.mark.parametrize("pot", [SIMON, Y_MIRROR], ids=["mirror-rows", "mirror-blocks"])
def test_block_count_breakdown_ladder_on_mirror_grids(monkeypatch, pot):
    op = build_hamiltonian(pot, (5.0, 4.0), (14, 9))
    vals = np.linalg.eigvalsh(op.dense())
    shift = float(np.linalg.eigvalsh(_first_row_block(op))[0])
    assert np.min(np.abs(vals - shift)) > 1e-3  # an eigenvalue of A_11, not of A
    expected = int(np.count_nonzero(vals < shift))
    ladder = [(True, False), (False, False)]  # (fold, reverse)
    for fold, reverse in ladder:
        with pytest.raises(schrodinger._PivotBreakdown):
            schrodinger._block_negcount(*_rows(op, reverse), shift, fold)
    if pot is SIMON:
        # the rows mirror, so the reverse order factors the forward blocks and breaks down alike
        with pytest.raises(schrodinger._PivotBreakdown):
            schrodinger._block_negcount(*_rows(op, reverse=True), shift)
    else:
        assert schrodinger._block_negcount(*_rows(op, reverse=True), shift) == expected
        ladder.append((False, True))
    calls = []
    block_negcount = schrodinger._block_negcount
    forward = _rows(op)[0]

    def recorded(rows, hx, hy, s, fold=False):
        calls.append((s, fold, not np.array_equal(rows, forward)))
        return block_negcount(rows, hx, hy, s, fold)

    monkeypatch.setattr(schrodinger, "_block_negcount", recorded)
    assert schrodinger._count_below(op, shift).tolist() == [expected]
    assert calls == [(shift, fold, reverse) for fold, reverse in ladder]  # no other shift is ever counted
    if pot is SIMON:
        monkeypatch.setattr(schrodinger, "DENSE_EIG_CAP", 0)
        with pytest.raises(RuntimeError, match="broke down in its mirror sectors and its one row order"):
            schrodinger._count_below(op, shift)


def test_pivot_sign_read_matches_block_oracle():
    # zero-scaled diagonals make Bunch-Kaufman choose 2x2 pivots, often in runs
    rng = np.random.default_rng(2024)
    consecutive = on_two_by_two = 0
    for k in range(300):
        n = int(rng.integers(2, 14))
        a = rng.standard_normal((n, n))
        a = a + a.T
        a[np.diag_indices(n)] *= (0.0, 0.05, 1.0)[k % 3]
        ldu, ipiv, info = lapack.dsytrf(a, lower=1)
        assert info == 0
        got = schrodinger._pivot_inertia(ldu, ipiv)
        neg, smallest, small2 = bunch_kaufman_inertia(ldu, ipiv)
        assert got == (neg, smallest)
        assert neg == int(np.count_nonzero(np.linalg.eigvalsh(a) < 0.0))
        consecutive += "1111" in "".join("1" if t else "0" for t in ipiv < 0)
        if small2.size and small2.min() == smallest:
            # a ptol on a 2x2 block's small eigenvalue: both reads break down
            # there and neither does just below it
            on_two_by_two += 1
            assert got[1] <= smallest and not got[1] <= np.nextafter(smallest, 0.0)
    assert consecutive >= 10 and on_two_by_two >= 10


def _block_outcomes(op, shifts):
    out = []
    for shift in shifts:
        for reverse in (False, True):
            try:
                out.append(schrodinger._block_negcount(*_rows(op, reverse), shift))
            except schrodinger._PivotBreakdown as exc:
                out.append(str(exc))
    return out


@pytest.mark.parametrize("points", [(40, 30), (23, 7), (14, 9)])
def test_block_count_identical_under_block_oracle_read(monkeypatch, points):
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), points)
    lo, hi = gershgorin_bounds(op)
    shifts = list(np.random.default_rng(7).uniform(lo - 1.0, 0.5 * hi, 12))
    shifts.append(float(np.linalg.eigvalsh(_first_row_block(op))[0]))  # breaks down forward
    fast = _block_outcomes(op, shifts)
    assert any(isinstance(x, str) for x in fast)
    monkeypatch.setattr(schrodinger, "_pivot_inertia", lambda ldu, ipiv: bunch_kaufman_inertia(ldu, ipiv)[:2])
    assert _block_outcomes(op, shifts) == fast


def test_schur_rows_factor_and_invert_in_one_buffer(monkeypatch):
    # every dsytrf and dsytri result is the buffer it was given, one buffer per sweep
    op = build_hamiltonian(SIMON, (5.0, 4.0), (14, 9))
    shift = 0.5 * sum(gershgorin_bounds(op))
    expected = schrodinger._block_negcount(*_rows(op), shift, fold=True)
    buffers = []

    def in_place(name):
        func = getattr(lapack, name)

        def call(a, *args, **kwargs):
            out = func(a, *args, **kwargs)
            assert np.shares_memory(out[0], a)
            buffers.append(a)
            return out

        monkeypatch.setattr(lapack, name, call)

    in_place("dsytrf")
    in_place("dsytri")
    assert schrodinger._block_negcount(*_rows(op), shift, fold=True) == expected
    # two block sectors (9 nodes: 5 and 4), each with a shared sweep of 6 rows and two
    # finishing sweeps of one row (14 mirror rows), each sweep in its own buffer
    assert len(buffers) == 2 * 2 * (6 + 1 + 1) and len({id(b) for b in buffers}) == 2 * 3


def test_fold_hands_one_unwritten_state_to_both_finishing_sweeps():
    op = build_hamiltonian(SIMON, (5.0, 4.0), (14, 9))
    rows, hx, hy = schrodinger._block_rows(op)
    diag = np.full(rows.shape[1], 2.0 / hx**2 + 2.0 / hy**2 - 3.0)
    chain = diag, np.full(rows.shape[1] - 1, -1.0 / hy**2)
    rows_off = np.full(len(rows) - 1, -1.0 / hx**2)
    seen = []

    def sweep(vals, off, start, stop, state, *args):
        seen.append((start, state, None if state is None else state.copy()))
        return schrodinger._schur_rows(vals, off, start, stop, state, *args)

    folded = schrodinger._fold(sweep, rows, rows_off, *chain, 1e-9)
    assert folded == schrodinger._schur_rows(rows, rows_off, 0, len(rows), None, *chain, 1e-9)[0]
    (_, none, _), (p, first, before), (q, second, _) = seen
    assert none is None and p == q == 6 and first is second
    assert np.array_equal(first, before)  # neither finishing sweep wrote it


def test_benchmark_grid_counts_equal_the_recorded_table():
    # the simon_2d grid, 773 x 83 nodes, at the six shifts of one job: lambda +- delta
    with open(Path(__file__).resolve().parents[1] / "perfbench" / "simon_counts.json") as fh:
        table = json.load(fh)["counts"]
    box = channel_boxes(SIMON, 8.0)
    op = build_hamiltonian(SIMON, box, (points_for_spacing(box[0], 0.2), points_for_spacing(box[1], 0.12)))
    assert op.points == (773, 83)
    lams = [5.0, 6.5, 8.0]
    assert counting_function(op, np.array(lams)).tolist() == [table[f"{lam:g}"] for lam in lams]


def test_counting_periodic_dense_path():
    op = build_hamiltonian(OSCILLATOR, 6.0, 48, boundary="periodic")
    vals = np.linalg.eigvalsh(op.dense())
    assert counting_function(op, 10.0) == int(np.count_nonzero(vals < 10.0))


def test_dense_torus_paths_refuse_above_cap(monkeypatch):
    op = build_hamiltonian(OSCILLATOR, 6.0, 48, boundary="periodic")
    monkeypatch.setattr(schrodinger, "DENSE_EIG_CAP", 47)
    for call in (
        lambda: spectrum(op),
        lambda: counting_function(op, 10.0),
        lambda: heat_trace(op, [0.1, 1.0]),
        lambda: ground_energy(op),
    ):
        with pytest.raises(RuntimeError, match="48 nodes exceed the dense spectrum cap 47"):
            call()
    monkeypatch.setattr(schrodinger, "DENSE_EIG_CAP", 48)
    assert counting_function(op, 10.0) == int(np.count_nonzero(np.linalg.eigvalsh(op.dense()) < 10.0))



def test_grid_operator_holds_samples_and_spacings_only():
    names = [f.name for f in dataclasses.fields(schrodinger.GridOperator)]
    assert names == ["ndim", "boundary", "points", "spacing", "potential"]


@pytest.mark.parametrize(
    "pot, box, points",
    [(OSCILLATOR, 7.3, 57), (SIMON, (5.0, 4.0), (23, 17)), (ASYMMETRIC, (3.0, 6.0), (9, 31))],
)
def test_dirichlet_dense_and_gershgorin_match_band_oracles(pot, box, points):
    op = build_hamiltonian(pot, box, points)
    bands = dirichlet_bands(op)
    full = lower_bands(op.dense())
    assert np.array_equal(full[: bands.shape[0]], bands) and not full[bands.shape[0] :].any()
    assert gershgorin_bounds(op) == gershgorin_by_bands(bands)
    if op.ndim == 1:  # the chain that every 1d count, spectrum and ground energy reads
        diag, off = schrodinger._chain(op)
        assert np.array_equal(diag, op.dense().diagonal()) and np.array_equal(off, op.dense().diagonal(-1))
    assert np.array_equal(op.hermitian().mat, op.dense().astype(np.complex128))


@pytest.mark.parametrize("pot, m", [(OSCILLATOR, 64), (None, 9), (Homogeneous(1.5, 1, (2.0, 0.3)), 101)])
def test_torus_dense_and_gershgorin_match_definition(pot, m):
    op = build_hamiltonian(pot, 5.1, m, boundary="periodic")
    h = op.spacing[0]
    expected = np.zeros((m, m))
    np.fill_diagonal(expected, 2.0 / h**2 + op.potential)
    idx = np.arange(m)
    expected[idx, (idx + 1) % m] = expected[(idx + 1) % m, idx] = -1.0 / h**2
    assert np.array_equal(op.dense(), expected)
    assert gershgorin_bounds(op) == gershgorin_by_bands(lower_bands(expected))


def _traced_peak_mb(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_grids_past_the_dense_cap_hold_samples_only():
    m = 100_000

    def torus():
        op = build_hamiltonian(OSCILLATOR, 2500.0, m, boundary="periodic")
        window = gaussian_window(m, sigma=16.0)
        return op, coherent_lower_bound(op, 0.5, window), coherent_frame_defect(window)

    (op_t, bound, defect), peak_t = _traced_peak_mb(torus)
    op_2d, peak_2d = _traced_peak_mb(lambda: build_hamiltonian(SIMON, (20.0, 8.0), (500, 500)))
    assert peak_t < 50.0 and peak_2d < 50.0
    assert 0.0 < bound < math.inf and defect <= 1e-12
    for op in (op_t, op_2d):
        for call in (op.dense, op.hermitian, lambda: spectrum(op)):
            with pytest.raises(RuntimeError, match=f"{op.n} nodes exceed the dense"):
                call()


# heat traces -----------------------------------------------------------------


def test_heat_trace_diagonal_case():
    op = build_hamiltonian(None, 2.0, 3)
    t = 0.3
    expected = sum(math.exp(-t * a) for a in dirichlet_laplacian_eigenvalues(3, op.spacing[0]))
    assert heat_trace(op, t) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t", [0.05, 0.1, 0.5, 1.0])
def test_heat_trace_oscillator_matches_geometric_sum(t):
    box = heat_box(OSCILLATOR, t)
    op = build_hamiltonian(OSCILLATOR, box, points_for_spacing(box, 0.01))
    got = heat_trace(op, t, method="truncated")
    expected = 1.0 / (2.0 * math.sinh(t))
    assert got == pytest.approx(expected, rel=2e-3)


def test_heat_trace_large_t_ground_state_dominates():
    op = build_hamiltonian(OSCILLATOR, 10.0, 800)
    t = 30.0
    assert heat_trace(op, t) == pytest.approx(math.exp(-t * ground_energy(op)), rel=1e-6)


def test_heat_trace_methods_agree_within_bound():
    op = build_hamiltonian(OSCILLATOR, 12.0, 1501)
    for t in (0.1, 0.7):
        dense = heat_trace(op, t, method="dense")
        trunc = heat_trace(op, t, method="truncated")
        assert abs(dense - trunc) <= heat_truncation_bound(op, t) + 1e-12


def test_heat_trace_clamps_round_off_below_zero_at_huge_t():
    # LAPACK puts the free torus's zero eigenvalue at about -6.6e-17; exp(-t mu) overflowed at t = 1e300
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    assert spectrum(op)[0] < 0.0  # spectrum keeps the raw value
    for method in ("dense", "truncated"):
        assert heat_trace(op, 1e300, method=method) == 1.0
    assert heat_trace(op, 1.0) == 2.468126559661774


def test_heat_trace_rejects_bad_inputs():
    op = build_hamiltonian(OSCILLATOR, 6.0, 100)
    with pytest.raises(ValueError):
        heat_trace(op, -1.0)
    with pytest.raises(ValueError, match="method"):
        heat_trace(op, 1.0, method="other")
    for ts in ([0.5, 0.0], [0.5, math.nan], []):
        with pytest.raises(ValueError, match="t must be positive"):
            heat_trace(op, ts, method="truncated")


def test_heat_trace_array_matches_scalar_calls():
    box = heat_box(OSCILLATOR, 0.05)
    op = build_hamiltonian(OSCILLATOR, box, points_for_spacing(box, 0.05))
    ts = np.array([[0.2, 0.05], [1.0, 0.1]])
    # bisection places each window eigenvalue to within about eps * ||H|| of the
    # exact one, and windows of different widths may land apart by that much,
    # so a truncated trace moves by up to t * eps * ||H|| (relative)
    wobble = 4.0 * np.finfo(float).eps * gershgorin_bounds(op)[1] * ts.ravel()
    for method, rtol in (("truncated", wobble), ("dense", 0.0)):
        traces = heat_trace(op, ts, method=method)
        assert traces.shape == (2, 2)
        scalar = [heat_trace(op, float(t), method=method) for t in ts.ravel()]
        assert all(type(x) is float for x in scalar)
        assert np.all(np.abs(traces.ravel() - scalar) <= rtol * np.array(scalar))


# windowed spectra on two threads ------------------------------------------------


def _chain_op(samples, h=0.5):
    return GridOperator(1, "dirichlet", (len(samples),), (h,), np.array(samples, dtype=float))


INF = math.inf
STEBZ_CASES = {
    "mirror, odd n": build_hamiltonian(OSCILLATOR, 7.3, 57),
    "mirror, even n": build_hamiltonian(OSCILLATOR, 7.3, 58),
    "no mirror": build_hamiltonian(Homogeneous(1.5, 1, (2.0, 0.3)), 5.0, 41),
    "walls, zero couplings": _chain_op([1.0, INF, 2.0, 3.0, INF, INF, 4.0, 0.5, INF, 6.0]),
    "walls, zero couplings, mirror": _chain_op([1.0, INF, 2.0, 3.0, 7.0, 3.0, 2.0, INF, 1.0]),
    "n = 1": _chain_op([INF, 2.5, INF]),
    "n = 2, mirror": _chain_op([INF, 1.5, 1.5, INF]),
    "n = 2, no mirror": _chain_op([1.5, 0.25]),
}


@pytest.mark.parametrize("op", STEBZ_CASES.values(), ids=STEBZ_CASES.keys())
def test_windowed_spectra_and_ground_energy_equal_serial_scipy_bit_for_bit(op):
    lo, top = gershgorin_bounds(op)
    lo -= 1.0
    full = spectrum(op)
    # empty (between the window's start and the spectrum), partial, and every eigenvalue
    for upto in (0.5 * (lo + full[0]), float(np.median(full)), top + 1.0):
        window = spectrum(op, upto=upto)
        expected = window_by_serial_stebz(op, lo, upto)
        assert window.dtype == expected.dtype and np.array_equal(window, expected)
    assert spectrum(op, upto=0.5 * (lo + full[0])).size == 0
    assert spectrum(op, upto=top + 1.0).size == full.size
    assert ground_energy(op) == ground_energy_by_serial_stebz(op)


def test_a_window_ending_at_or_below_its_start_is_empty():
    op = STEBZ_CASES["mirror, odd n"]
    lo = gershgorin_bounds(op)[0] - 1.0
    for upto in (lo, lo - 5.0, math.nan):
        assert spectrum(op, upto=upto).size == 0


OVERFLOWING = Homogeneous(1e-3, 1, (1.7e308, 1.7e308))


def _refusal(build) -> str:
    with pytest.raises(ValueError) as err:
        build()
    return str(err.value)


def test_a_chain_whose_diagonal_overflows_is_refused_before_lapack():
    # 2/h^2 = 1.39e308 and V = 1.19e308 at the outer nodes are finite, their sum is not
    assert _refusal(lambda: build_hamiltonian(OVERFLOWING, 2.4e-154, 3)) == (
        f"{OVERFLOWING!r} on spacing (1.2e-154,) puts max V + sum 4/h^2 past the float range "
        "at 3 of 3 nodes; grids need a finite Gershgorin top"
    )
    # an operator assembled past that refusal still stops at the kernel's finite check
    op = GridOperator(1, "dirichlet", (3,), (1.2e-154,), np.array([1.19e308, 0.0, 1.19e308]))
    with np.errstate(over="ignore"):
        for solve in (lambda: spectrum(op, upto=1.0), lambda: ground_energy(op)):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                solve()


@pytest.mark.parametrize(
    "build, nodes",
    [
        (lambda: build_hamiltonian(OVERFLOWING, 2.4e-154, 4, boundary="periodic"), 4),
        (lambda: build_hamiltonian(Homogeneous(1e-3, 2, lambda th: np.full_like(th, 1.7e308)), (2.4e-154, 1.0), (3, 3)), 9),
    ],
    ids=["torus", "2d"],
)
def test_torus_and_2d_grids_whose_diagonal_overflows_are_refused_at_construction(build, nodes):
    message = _refusal(build)
    assert message.startswith("Homogeneous(gamma=0.001") and " on spacing (1.2e-154," in message
    assert message.endswith(f"past the float range at {nodes} of {nodes} nodes; grids need a finite Gershgorin top")


def test_only_the_nodes_whose_gershgorin_top_overflows_are_counted():
    # 4/h^2 = 8e307: V + 4/h^2 overflows at the two outer nodes (V = 1.19e308), not at the centre (V = 0)
    box = 4.0 / math.sqrt(8e307)
    assert "past the float range at 2 of 3 nodes" in _refusal(lambda: build_hamiltonian(OVERFLOWING, box, 3))
    # a hard wall is dropped from the chain, not counted
    walled = Homogeneous(1e-3, 1, (1.7e308, math.inf))
    assert "past the float range at 1 of 3 nodes" in _refusal(lambda: build_hamiltonian(walled, box, 3))


def _failing_window():
    """A bisection that LAPACK cannot finish: eigenvalues near 1e299 against a window ending at 4e-299."""
    bad = build_hamiltonian(OSCILLATOR, heat_box(OSCILLATOR, 1e300), 8)
    return partial(_lapack.stebz, *schrodinger._chain(bad), gershgorin_bounds(bad)[0] - 1.0, 4e-299)


def _good_window():
    good = STEBZ_CASES["mirror, odd n"]
    return partial(_lapack.stebz, *schrodinger._chain(good), gershgorin_bounds(good)[0] - 1.0, 40.0)


def test_a_failure_in_the_worker_sector_reaches_the_caller():
    baseline = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match=r"dstebz did not converge \(LAPACK info=\d+\)"):
        _lapack.concurrently([_good_window(), _failing_window()])
    assert threading.active_count() == baseline


def test_a_failure_on_the_calling_thread_reaches_the_caller_after_its_workers():
    baseline = threading.active_count()
    started, finished = threading.Event(), threading.Event()

    def worker():
        started.set()
        value = _good_window()()
        finished.set()
        return value

    def caller():
        started.wait()
        raise RuntimeError("the calling thread's call failed")

    with pytest.raises(RuntimeError, match="the calling thread's call failed"):
        _lapack.concurrently([caller, worker])
    assert finished.is_set()
    assert threading.active_count() == baseline


def test_concurrent_truncated_heat_traces_equal_the_serial_one(monkeypatch):
    box = heat_box(OSCILLATOR, 0.05)
    op = build_hamiltonian(OSCILLATOR, box, points_for_spacing(box, 0.02))
    ts = np.array([0.05, 0.1, 0.2])
    serial = heat_trace(op, ts, method="truncated")
    baseline = threading.active_count()
    monkeypatch.setattr(_lapack, "_DSTEBZ", None)  # every caller finds the routine unbound
    start = threading.Barrier(4)

    def trace():
        start.wait()
        return heat_trace(op, ts, method="truncated")

    with ThreadPoolExecutor(4) as pool:
        traces = [future.result() for future in [pool.submit(trace) for _ in range(4)]]
    assert all(np.array_equal(got, serial) for got in traces)
    assert threading.active_count() == baseline


# zeta traces -----------------------------------------------------------------


def test_zeta_oscillator_inverse_square_sum():
    op = build_hamiltonian(OSCILLATOR, 12.0, 2399)
    z = zeta_trace(op, 2.0, e_cut=100.0, growth_exponent=1.0)
    assert z.converged
    assert z.value == pytest.approx(math.pi**2 / 8.0, rel=0.01)


def test_zeta_small_diagonal_full_sum():
    op = build_hamiltonian(None, 2.0, 3)
    z = zeta_trace(op, 1.0)
    expected = float(np.sum(1.0 / dirichlet_laplacian_eigenvalues(3, op.spacing[0])))
    assert z.value == pytest.approx(expected, abs=1e-12)
    assert z.tail == 0.0 and z.converged and z.count == 3


def test_zeta_divergence_threshold_flag():
    op = build_hamiltonian(OSCILLATOR, 12.0, 2399)
    q = transverse_growth_exponent(2.0)  # beta = 2, n = 1 -> q = 1
    threshold = 1.0 / q
    z = zeta_trace(op, threshold, e_cut=100.0, growth_exponent=q)
    assert not z.converged
    assert math.isinf(z.value)


@pytest.mark.parametrize("profile", [(1.0,) * 4, (1.0, 2.0, 3.0, 4.0)])
def test_windowed_zeta_matches_full_spectrum_oracle(profile):
    pot = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(*profile))
    q = transverse_growth_exponent(2.0)
    p = 2.0
    zetas = transverse_zetas(pot, p, 12.0, 2399)
    for omega in (1, -1):
        op = build_hamiltonian(schrodinger._channel_potentials(pot, 0)[omega], 12.0, 2399)
        # the oracle sums the full spectrum up to the same cut, min(100, 0.8 x
        # the Gershgorin top), and extrapolates with q = 2 beta / (beta + 2) = 1
        top = gershgorin_bounds(op)[1]
        e_cut = min(100.0, 0.8 * top)
        bands = dirichlet_bands(op)
        z = zeta_trace(op, p, e_cut=e_cut, growth_exponent=q)
        value, partial, tail, k = zeta_by_full_spectrum(bands[0], bands[1, :-1], p, e_cut, q)
        assert z.count == k and z.converged and tail > 0.0
        # each windowed eigenvalue sits within about eps * ||H|| of the full
        # spectrum's, moving mu^-p by p eps ||H|| / mu relative
        mu_min = float(spectrum(op, upto=e_cut)[0])
        rtol = 4.0 * p * np.finfo(float).eps * top / mu_min
        for got, want in ((z.value, value), (z.partial_sum, partial), (z.tail, tail), (zetas[omega], value)):
            assert abs(got - want) <= rtol * want


@pytest.mark.parametrize("profile, spectra", [((1.0,) * 4, 1), ((1.0, 2.0, 1.0, 2.0), 1), ((1.0, 2.0, 3.0, 4.0), 2)])
def test_transverse_zetas_one_spectrum_per_distinct_direction(monkeypatch, profile, spectra):
    calls = []
    full = schrodinger.spectrum

    def counted(op, upto=None):
        calls.append(upto)
        return full(op, upto)

    monkeypatch.setattr(schrodinger, "spectrum", counted)
    zetas = transverse_zetas(SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(*profile)), 2.0, 12.0, 399)
    assert len(calls) == spectra and all(upto is not None for upto in calls)
    assert (zetas[1] == zetas[-1]) == (spectra == 1)


def test_zeta_cut_needs_growth_exponent():
    op = build_hamiltonian(OSCILLATOR, 6.0, 199)
    with pytest.raises(ValueError, match="needs a growth_exponent"):
        zeta_trace(op, 2.0, e_cut=50.0)


def test_zeta_refuses_p_outside_the_floats_it_can_sum():
    op = build_hamiltonian(OSCILLATOR, 6.0, 199)  # smallest eigenvalue just below 1
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            zeta_trace(op, bad)
    with pytest.raises(ValueError, match="p=1e\\+300 overflows"):
        zeta_trace(op, 1e300)


def test_windowed_zeta_nothing_cut_sums_whole_spectrum():
    op = build_hamiltonian(OSCILLATOR, 6.0, 199)
    top = gershgorin_bounds(op)[1]
    z = zeta_trace(op, 2.0, e_cut=top + 1.0, growth_exponent=1.0)
    bands = dirichlet_bands(op)
    value, partial, tail, k = zeta_by_full_spectrum(bands[0], bands[1, :-1], 2.0, top + 1.0, 1.0)
    assert z.count == k == op.n and z.tail == tail == 0.0 and z.converged
    rtol = 4.0 * 2.0 * np.finfo(float).eps * top / float(spectrum(op)[0])
    assert abs(z.value - value) <= rtol * value
    full = zeta_trace(op, 2.0)
    assert abs(full.value - value) <= rtol * value and full.count == op.n


def test_zeta_requires_positive_spectrum():
    # build_hamiltonian refuses negative samples, so the operator is assembled directly
    op = GridOperator(1, "dirichlet", (3,), (1.0,), np.array([-10.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="positive spectrum"):
        zeta_trace(op, 2.0)


# effective operators and box rules -------------------------------------------


def test_effective_operator_is_oscillator_for_beta_two():
    op = build_hamiltonian(schrodinger._channel_potentials(SIMON, 0)[1], 12.0, 7999)
    got = spectrum(op, upto=40.0)[:15]
    assert np.max(np.abs(got - (2.0 * np.arange(15) + 1.0))) < 1e-3


def test_effective_operator_one_sided_profile():
    pot = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 0.0, 1.0, 0.0))
    op = build_hamiltonian(schrodinger._channel_potentials(pot, 0)[1], 10.0, 1000)
    vals = spectrum(op, upto=5.0)
    assert vals.size > 0 and vals[0] > 0  # discrete on the truncated box


def test_effective_operator_scaling_law():
    # multiplying V by r^alpha and shrinking the grid by r^(-alpha/(beta+2))
    # multiplies eigenvalues by r^(2 alpha/(beta+2)), checked within 0.5%
    r = 2.0
    pot, scaled = SIMON, SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(2.0, 2.0, 2.0, 2.0))
    ratio_expected = r ** (2.0 * 1.0 / 4.0)
    base = build_hamiltonian(schrodinger._channel_potentials(pot, 0)[1], 12.0, 1999)
    resized = build_hamiltonian(schrodinger._channel_potentials(scaled, 0)[1], 12.0 * r ** (-0.25), 1999)
    vb = spectrum(base, upto=9.0)
    vs = spectrum(resized, upto=9.0 * ratio_expected)
    k = min(vb.size, vs.size, 4)
    assert np.max(np.abs(vs[:k] / vb[:k] - ratio_expected)) < 0.005 * ratio_expected


def test_counting_box_rule():
    lam_max = 100.0
    box = counting_box(OSCILLATOR, lam_max)
    assert OSCILLATOR.value(np.array([box]))[0] >= 4.0 * lam_max - 1e-9


def test_heat_box_rule():
    t = 0.1
    box = heat_box(OSCILLATOR, t)
    assert OSCILLATOR.value(np.array([box]))[0] >= 80.0 / t - 1e-9


def test_box_rule_rejects_vanishing_profile():
    with pytest.raises(ValueError, match="vanishes"):
        counting_box(Homogeneous(2.0, 1, (1.0, 0.0)), 10.0)


@pytest.mark.parametrize(
    "pot, message",
    [
        # a hard wall on both sides: the boundary value is +inf at every half-width
        (Homogeneous(1e300, 1, (math.inf, math.inf)), "profile (inf, inf) at gamma=1e+300 leaves no box"),
        # (height / F)^(1/gamma) underflows to 0
        (Homogeneous(1e-3, 1, (1e300, 1e300)), "profile (1e+300, 1e+300) at gamma=0.001 leaves no box"),
    ],
)
def test_box_rule_refuses_a_box_of_zero_naming_the_profile(pot, message):
    for box_rule in (lambda: counting_box(pot, 10.0), lambda: heat_box(pot, 1.0)):
        with pytest.raises(ValueError) as err:
            box_rule()
        assert str(err.value).startswith(message)
        assert str(err.value).endswith(" is 0.0")


def test_box_doubling_audit_oscillator():
    box = counting_box(OSCILLATOR, 100.0)
    pts = points_for_spacing(box, 0.01)
    assert box_doubling_change(OSCILLATOR, 100.0, box, pts) < 1e-3


def test_channel_boxes_close_the_channels():
    lx, ly = channel_boxes(SIMON, 8.0)
    # transverse ground energy at the wall exceeds the target energy
    assert math.sqrt(lx) >= 8.0
    assert 1.018 * ly ** (4.0 / 3.0) >= 8.0


def test_channel_boxes_doubling_audit():
    # the rule-chosen box changes the count at lam well below lam_max by < 0.1%
    lam = 4.0
    lx, ly = channel_boxes(SIMON, lam)
    points = (points_for_spacing(lx, 0.25), points_for_spacing(ly, 0.15))
    assert box_doubling_change(SIMON, lam, (lx, ly), points) < 1e-3


ZERO_QUADRANTS = [
    ((0.0, 1.0, 1.0, 1.0), "F(+1,+1) = 0: V vanishes on that open quadrant"),
    ((1.0, 0.0, 1.0, 1.0), "F(+1,-1) = 0: V vanishes on that open quadrant"),
    ((1.0, 1.0, 0.0, 1.0), "F(-1,+1) = 0: V vanishes on that open quadrant"),
    ((1.0, 1.0, 1.0, 0.0), "F(-1,-1) = 0: V vanishes on that open quadrant"),
    ((0.0, 0.0, 0.0, 0.0), "F(+1,+1) = F(+1,-1) = F(-1,+1) = F(-1,-1) = 0: V vanishes on those open quadrants"),
]


@pytest.mark.parametrize("profile, named", ZERO_QUADRANTS, ids=["pp", "pm", "mp", "mm", "all"])
@pytest.mark.parametrize("entry", ["channel_boxes", "transverse_zetas"])
def test_channel_rules_refuse_a_profile_that_vanishes_on_a_quadrant(entry, profile, named):
    # V = 0 on an open quadrant, so the spectrum is not discrete; the probe guards this replaces
    # could not fire, since the probe grid's ground energy is at least the free one, 0.0126
    pot = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(*profile))
    calls = {
        "channel_boxes": lambda: channel_boxes(pot, 5.0),
        "transverse_zetas": lambda: transverse_zetas(pot, 2.0, 12.0, 199),
    }
    with pytest.raises(ValueError) as err:
        calls[entry]()
    assert str(err.value) == f"{named} of (sign x, sign y), so the spectrum is not discrete and no channel closes"


@pytest.mark.parametrize("profile, solves", [((1, 1, 1, 1), 2), ((1, 2, 1, 2), 3), ((1, 2, 3, 4), 4)])
def test_channel_boxes_solve_once_per_distinct_slice(monkeypatch, profile, solves):
    grounds = []
    full = schrodinger.ground_energy

    def counted(op):
        grounds.append(full(op))
        return grounds[-1]

    monkeypatch.setattr(schrodinger, "ground_energy", counted)
    pot = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(*profile))
    lx, ly = channel_boxes(pot, 8.0)
    assert len(grounds) == solves
    # the walls are those of the smallest ground energy over both directions of each channel:
    # |y|^2 F(omega, sign y) across the x channel, |x| F(sign x, omega) across the y channel
    pp, pm, mp, mm = profile
    mu0, nu0 = (
        min(full(build_hamiltonian(Homogeneous(gamma, 1, f), 14.0, 1400)) for f in pairs)
        for gamma, pairs in ((2.0, [(pp, pm), (mp, mm)]), (1.0, [(pp, mp), (pm, mm)]))
    )
    assert (lx, ly) == ((1.1 * 8.0 / mu0) ** 2.0, (1.1 * 8.0 / nu0) ** 0.75)


def test_channel_boxes_name_overflowing_parameters():
    steep = SeparatelyHomogeneous(1.0, 1e300, QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(OverflowError, match=r"channel box for alpha=1.0, beta=1e\+300 at lambda=3.0 overflows"):
        channel_boxes(steep, 3.0)


# coherent frames -------------------------------------------------------------


def test_window_validation():
    with pytest.raises(ValueError, match="sum"):
        CoherentWindow(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        CoherentWindow(np.array([0.8, -0.6]))
    bad = np.zeros(8)
    bad[3] = 1.0  # not symmetric about 0
    with pytest.raises(ValueError):
        CoherentWindow(bad)


def test_window_norm_and_sigma_refuse_nan_and_nonpositive_values():
    with pytest.raises(ValueError, match="squares sum to nan"):
        CoherentWindow(np.array([math.nan, 0.0]))
    for sigma in (-1.0, 0.0, math.nan):  # -1 once gave the sigma = 1 window
        with pytest.raises(ValueError, match=r"sigma must be positive, got (-1\.0|0\.0|nan)$"):
            gaussian_window(8, sigma)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "entry", ["coherent_lower_bound", "coherent_partial_lower_bound", "sliced_gt_gap", "heat_trace"]
)
def test_non_finite_t_is_refused(entry, t):
    # at t = inf the frame bounds and the sliced gap were NaN and the free torus trace inf
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    window = gaussian_window(8)
    blocks = [HermitianOperator(np.diag([1.0, 2.0]).astype(np.complex128))] * 8
    calls = {
        "coherent_lower_bound": lambda: coherent_lower_bound(op, t, window),
        "coherent_partial_lower_bound": lambda: coherent_partial_lower_bound(op, blocks, t, window),
        "sliced_gt_gap": lambda: sliced_gt_gap(op.hermitian(), blocks, t),
        "heat_trace": lambda: heat_trace(op, t),
    }
    with pytest.raises(ValueError, match="t must be positive"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["coherent_partial_lower_bound", "sliced_gt_gap"])
def test_finite_t_with_a_nan_bound_is_refused(entry):
    # each was NaN: a factor exp(-t E) underflows to 0 where another overflows to inf; both
    # now fold the block eigenvalue -1 into one exponent, exp(-t (0.44 - 1)) for the partial
    # bound and exp(-t (0.93 - 1)) for the sliced side, which overflows
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    oscillator = build_hamiltonian(OSCILLATOR, 4.0, 8, boundary="periodic")
    window = gaussian_window(8)
    blocks = [HermitianOperator(np.diag([-1.0, 2.0]).astype(np.complex128))] * 8
    calls = {
        "coherent_partial_lower_bound": lambda: coherent_partial_lower_bound(op, blocks, 1e10, window),
        "sliced_gt_gap": lambda: sliced_gt_gap(oscillator.hermitian(), blocks, 1e10),
    }
    with pytest.raises(ValueError, match=r"t=1(\.7e\+308|0000000000\.0) puts the .* out of float range \(it overflows\)"):
        with np.errstate(over="ignore", invalid="ignore"):
            calls[entry]()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sliced_side_is_zero_where_its_combined_exponent_is_huge():
    # the oscillator torus's lowest eigenvalue is 0.93: at t = 1e10 every damping factor
    # underflows to 0 and every block trace overflows, yet each term of the side is at most
    # e^(-0.83 t); it was refused as 0 * inf
    oscillator = build_hamiltonian(OSCILLATOR, 4.0, 8, boundary="periodic")
    blocks = [HermitianOperator(np.diag([-0.1, 2.0]).astype(np.complex128))] * 8
    assert sliced_gt_sides(oscillator.hermitian(), blocks, 1e3) == (0.0, 0.0)
    assert sliced_gt_sides(oscillator.hermitian(), blocks, 1e10) == (0.0, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frame_bound_is_zero_where_t_times_every_frame_energy_is_huge():
    # every frame energy of the free 8-point torus is at least 0.44; t s (1 - cos) at k = 0 is
    # exactly 0, not inf * 0 from forming t s first, so the momentum factor is 1 there
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    assert coherent_lower_bound(op, 1.7e308, gaussian_window(8)) == 0.0


def test_partial_frame_bound_is_zero_where_the_combined_exponent_is_large():
    # the smallest combined exponent is 0.21 - 0.1 = 0.11 > 0, so the bound tends to 0;
    # split into exp(-t (E_x - s)) and Tr exp(-t Wbar_x) it was 0 * inf at t = 1e10
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    window = gaussian_window(8, sigma=1.5)
    mus = (-0.1, 2.0)
    blocks = [HermitianOperator(np.diag(mus).astype(np.complex128))] * 8
    assert coherent_partial_lower_bound(op, blocks, 1e10, window) == 0.0
    # every Wbar_x is (sum g^2) diag(mus), and the free torus's frame energies are
    # (2/h^2) (sum g^2 - cos(2 pi k / 8) sum_j g(j) g(j+1)), the same at every x
    g = [mpmath.mpf(float(v)) for v in window.values]
    kinetic = 2 / mpmath.mpf(float(op.spacing[0])) ** 2
    norm = mpmath.fsum(v * v for v in g)
    hop = mpmath.fsum(g[j] * g[(j + 1) % 8] for j in range(8))
    for t in (1.0, 1e3):
        expected = mpmath.fsum(
            mpmath.exp(-mpmath.mpf(t) * (kinetic * (norm - mpmath.cos(2 * mpmath.pi * k / 8) * hop) + mu * norm))
            for k in range(8)
            for mu in map(mpmath.mpf, mus)
        )
        assert coherent_partial_lower_bound(op, blocks, t, window) == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("make", [delta_window, flat_window, gaussian_window])
@pytest.mark.parametrize("m", [8, 16, 64, 512])
def test_frame_defect_tiny(make, m):
    assert coherent_frame_defect(make(m)) <= 1e-12


@pytest.mark.parametrize("make", [delta_window, flat_window, gaussian_window])
@pytest.mark.parametrize("m", [8, 16, 64])
def test_coherent_closed_forms_match_frame_sums(make, m):
    window = make(m)
    # both defects are round-off of an exactly tight frame
    assert coherent_frame_defect(window) == pytest.approx(coherent_frame_defect_by_sum(window), abs=1e-12)
    op = build_hamiltonian(OSCILLATOR, 8.0, m, boundary="periodic")
    for t in (0.05, 0.3, 1.0):
        expected = coherent_lower_bound_by_sum(op, t, window)
        assert coherent_lower_bound(op, t, window) == pytest.approx(expected, rel=1e-12)


def test_coherent_partial_closed_form_matches_frame_sums():
    m, n = 8, 3
    windows = (delta_window(m), flat_window(m), gaussian_window(m, sigma=1.5))
    for seed in range(60):
        rng = np.random.default_rng(seed)
        t_op = build_hamiltonian(OSCILLATOR if seed % 2 else None, 4.0, m, boundary="periodic")
        blocks = []
        for _ in range(m):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(HermitianOperator(g @ g.conj().T))
        t = float(rng.uniform(0.1, 1.0))
        window = windows[seed % 3]
        expected = coherent_partial_lower_bound_by_sum(t_op, blocks, t, window)
        got = coherent_partial_lower_bound(t_op, blocks, t, window)
        assert got == pytest.approx(expected, rel=1e-12), seed


def test_coherent_partial_rejects_malformed_blocks():
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    w = gaussian_window(8)
    with pytest.raises(ValueError, match="one block per basis vector"):
        coherent_partial_lower_bound(op, [random_hermitian(3, seed=s) for s in range(7)], 0.5, w)
    mixed = [random_hermitian(3, seed=s) for s in range(7)] + [random_hermitian(2, seed=7)]
    with pytest.raises(ValueError, match="share one dimension"):
        coherent_partial_lower_bound(op, mixed, 0.5, w)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CoherentWindow(np.full((2, 2), 0.5)), "window must be a nonempty 1d array"),
        (lambda: CoherentWindow(np.array([])), "window must be a nonempty 1d array"),
        (lambda: CoherentWindow(np.array([1.0, 3.0, 5.0, 3.0]) / math.sqrt(44.0)),
         "window must be nonincreasing in torus distance"),
        (lambda: coherent_lower_bound(build_hamiltonian(None, 4.0, 8), 1.0, gaussian_window(8)),
         "coherent frame bounds need a 1d periodic grid operator"),
        (lambda: coherent_lower_bound(build_hamiltonian(None, 4.0, 8, boundary="periodic"), 1.0, flat_window(16)),
         "window size 16 does not match operator size 8"),
    ],
    ids=["2d-window", "empty-window", "rising-window", "dirichlet-operator", "size-mismatch"],
)
def test_frames_refuse_malformed_windows_and_operators(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_coherent_bound_below_heat_trace_large_frame():
    op = build_hamiltonian(OSCILLATOR, 8.0, 1024, boundary="periodic")
    w = gaussian_window(1024, sigma=45.0)
    for t in (0.1, 1.0):
        trace_val = heat_trace(op, t)
        assert 0.0 < coherent_lower_bound(op, t, w) <= trace_val + 1e-10 * (1.0 + trace_val)


def test_coherent_bound_delta_window_diagonal_jensen():
    pot = Homogeneous(2.0, 1, (1.0, 1.0))
    op = build_hamiltonian(pot, 4.0, 16, boundary="periodic")
    t = 0.7
    bound = coherent_lower_bound(op, t, delta_window(16))
    expected = float(np.sum(np.exp(-t * np.diag(op.dense()))))
    assert bound == pytest.approx(expected, rel=1e-12)
    assert bound <= heat_trace(op, t) + 1e-10


def test_coherent_bound_monotone_toward_one_as_t_shrinks():
    op = build_hamiltonian(OSCILLATOR, 8.0, 32, boundary="periodic")
    w = gaussian_window(32, sigma=3.0)
    ratios = []
    for t in (2.0, 1.0, 0.5, 0.2, 0.1):
        ratios.append(coherent_lower_bound(op, t, w) / heat_trace(op, t))
    assert all(0.0 < r <= 1.0 + 1e-12 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_coherent_bound_t_to_zero_recovers_dimension():
    op = build_hamiltonian(OSCILLATOR, 8.0, 24, boundary="periodic")
    w = gaussian_window(24)
    t = 1e-7
    assert coherent_lower_bound(op, t, w) == pytest.approx(24.0, rel=1e-4)
    assert heat_trace(op, t) == pytest.approx(24.0, rel=1e-4)


def test_partial_bound_equal_blocks_flat_window_collapses():
    # flat window states are exact torus eigenvectors, so with equal blocks
    # the lower bound meets the trace (and the sliced upper bound does too)
    op = build_hamiltonian(None, 4.0, 8, boundary="periodic")
    w = random_hermitian(3, seed=21)
    blocks = [w] * 8
    t = 0.6
    from semispec.inequalities import sliced_gt_sides, sliced_hamiltonian

    lower = coherent_partial_lower_bound(op, blocks, t, flat_window(8))
    lhs, rhs = sliced_gt_sides(op.hermitian(), blocks, t)
    assert lower == pytest.approx(lhs, rel=1e-10)
    assert rhs == pytest.approx(lhs, rel=1e-10)


def test_partial_bound_reduces_to_scalar_bound_when_blocks_trivial():
    op = build_hamiltonian(OSCILLATOR, 5.0, 12, boundary="periodic")
    blocks = [HermitianOperator(np.zeros((1, 1))) for _ in range(12)]
    w = gaussian_window(12)
    t = 0.4
    full = coherent_partial_lower_bound(op, blocks, t, w)
    scalar = coherent_lower_bound(op, t, w)
    assert full == pytest.approx(scalar, rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_sandwich_lower_trace_upper(seed, t):
    rng = np.random.default_rng(seed)
    m, n = 8, 3
    t_op = build_hamiltonian(None, 4.0, m, boundary="periodic")
    blocks = []
    for _ in range(m):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(HermitianOperator(g @ g.conj().T))
    from semispec.inequalities import sliced_gt_sides

    trace_val, upper = sliced_gt_sides(t_op.hermitian(), blocks, t)
    lower = coherent_partial_lower_bound(t_op, blocks, t, gaussian_window(m, sigma=1.5))
    tol = 1e-10 * (1.0 + trace_val)
    assert lower <= trace_val + tol
    assert trace_val <= upper + tol
