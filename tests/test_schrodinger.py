import math
import warnings

import numpy as np
import pytest

from semispec import schrodinger
from semispec.linalg import HermitianOperator
from semispec.bipartite import random_hermitian
from semispec.schrodinger import (
    BoundaryWarning,
    CoherentWindow,
    Homogeneous,
    QuadrantProfile,
    SeparatelyHomogeneous,
    box_doubling_change,
    build_hamiltonian,
    channel_boxes,
    coherent_frame_defect,
    coherent_lower_bound,
    coherent_partial_lower_bound,
    counting_box,
    counting_function,
    delta_window,
    effective_operator,
    flat_window,
    format_potential_config,
    gaussian_window,
    gershgorin_bounds,
    ground_energy,
    heat_box,
    heat_trace,
    heat_truncation_bound,
    load_spectrum,
    parse_potential_config,
    points_for_spacing,
    save_spectrum,
    spectrum,
    transverse_growth_exponent,
    zeta_trace,
)

from oracles import (
    banded_negcount,
    coherent_frame_defect_by_sum,
    coherent_lower_bound_by_sum,
    coherent_partial_lower_bound_by_sum,
    dirichlet_laplacian_eigenvalues,
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
    with pytest.raises(ValueError, match="gamma"):
        Homogeneous(0.0, 1, (1.0, 1.0))


def test_potential_config_roundtrip():
    pot = Homogeneous(2.5, 1, (1.0, 0.25))
    assert parse_potential_config(format_potential_config(pot)) == pot
    sep = SeparatelyHomogeneous(1.0, 3.0, QuadrantProfile(1.0, 0.5, 0.25, 2.0))
    back = parse_potential_config(format_potential_config(sep))
    assert back == sep


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
    assert np.allclose(op.bands[0], 2.0 / h**2)
    assert np.allclose(op.bands[1, :-1], -1.0 / h**2)


def test_2d_stencil_values():
    op = build_hamiltonian(None, (1.0, 2.0), (4, 5))
    hx, hy = op.spacing
    dense = op.dense()
    assert np.allclose(np.diag(dense), 2.0 / hx**2 + 2.0 / hy**2)
    # y-neighbors within a row couple, across rows they must not
    assert dense[0, 1] == pytest.approx(-1.0 / hy**2)
    assert dense[4, 5] == 0.0
    assert dense[0, 5] == pytest.approx(-1.0 / hx**2)


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
    with pytest.raises(ValueError, match="cap"):
        build_hamiltonian(None, (1.0, 1.0), (600, 600))
    with pytest.raises(ValueError, match="1d"):
        build_hamiltonian(None, (1.0, 1.0), (5, 5), boundary="periodic")


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
    mu = float(spectrum(op)[4])
    with pytest.warns(BoundaryWarning):
        counting_function(op, mu)


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


@pytest.mark.parametrize("points", [(40, 30), (30, 40), (23, 7), (7, 23), (9, 9)])
def test_block_count_matches_banded_ldl_oracle(points):
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), points)
    lo, hi = gershgorin_bounds(op)
    for lam in np.random.default_rng(sum(points)).uniform(lo - 1.0, 0.5 * hi, 12):
        expected = banded_negcount(op.bands, lam)
        for reverse in (False, True):
            assert schrodinger._block_negcount(op, lam, reverse) == expected
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
        schrodinger._block_negcount(op, shift)
    expected = int(np.count_nonzero(vals < shift))
    assert schrodinger._block_negcount(op, shift, reverse=True) == expected
    assert schrodinger._count_below(op, shift) == expected
    assert counting_function(op, shift) == expected


def test_block_count_on_eigenvalue_past_dense_cap_raises(monkeypatch):
    op = build_hamiltonian(ASYMMETRIC, (5.0, 4.0), (14, 9))
    mu = float(np.linalg.eigvalsh(op.dense())[0])
    monkeypatch.setattr(schrodinger, "DENSE_EIG_CAP", 0)
    with pytest.raises(RuntimeError, match="both row orders"):
        schrodinger._count_below(op, mu)


def test_counting_dense_fallback_on_hermitian_input():
    op = random_hermitian(9, seed=77)
    vals = np.linalg.eigvalsh(op.mat)
    lam = float((vals[3] + vals[4]) / 2)
    assert counting_function(op, lam) == 4


def test_counting_periodic_dense_path():
    op = build_hamiltonian(OSCILLATOR, 6.0, 48, boundary="periodic")
    vals = np.linalg.eigvalsh(op.dense())
    assert counting_function(op, 10.0) == int(np.count_nonzero(vals < 10.0))


# heat traces -----------------------------------------------------------------


def test_heat_trace_diagonal_case():
    op = HermitianOperator.from_diag([0.5, 1.5, 4.0])
    t = 0.3
    expected = sum(math.exp(-t * a) for a in (0.5, 1.5, 4.0))
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


def test_heat_trace_rejects_bad_inputs():
    op = build_hamiltonian(OSCILLATOR, 6.0, 100)
    with pytest.raises(ValueError):
        heat_trace(op, -1.0)
    with pytest.raises(ValueError, match="method"):
        heat_trace(op, 1.0, method="other")


# zeta traces -----------------------------------------------------------------


def test_zeta_oscillator_inverse_square_sum():
    op = build_hamiltonian(OSCILLATOR, 12.0, 2399)
    z = zeta_trace(op, 2.0, e_cut=100.0, growth_exponent=1.0)
    assert z.converged
    assert z.value == pytest.approx(math.pi**2 / 8.0, rel=0.01)


def test_zeta_small_diagonal_full_sum():
    op = HermitianOperator.from_diag([1.0, 2.0, 4.0])
    z = zeta_trace(op, 1.0)
    assert z.value == pytest.approx(1.75, abs=1e-12)
    assert z.tail == 0.0 and z.converged


def test_zeta_divergence_threshold_flag():
    op = build_hamiltonian(OSCILLATOR, 12.0, 2399)
    q = transverse_growth_exponent(2.0)  # beta = 2, n = 1 -> q = 1
    threshold = 1.0 / q
    z = zeta_trace(op, threshold, e_cut=100.0, growth_exponent=q)
    assert not z.converged
    assert math.isinf(z.value)


def test_zeta_requires_positive_spectrum():
    op = HermitianOperator.from_diag([-1.0, 2.0])
    with pytest.raises(ValueError, match="positive spectrum"):
        zeta_trace(op, 2.0)


# effective operators and box rules -------------------------------------------


def test_effective_operator_is_oscillator_for_beta_two():
    op = effective_operator(1, SIMON, 12.0, 7999)
    got = spectrum(op, upto=40.0)[:15]
    assert np.max(np.abs(got - (2.0 * np.arange(15) + 1.0))) < 1e-3


def test_effective_operator_one_sided_profile():
    pot = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 0.0, 1.0, 0.0))
    op = effective_operator(1, pot, 10.0, 1000)
    vals = spectrum(op, upto=5.0)
    assert vals.size > 0 and vals[0] > 0  # discrete on the truncated box


def test_effective_operator_scaling_law():
    # multiplying V by r^alpha and shrinking the grid by r^(-alpha/(beta+2))
    # multiplies eigenvalues by r^(2 alpha/(beta+2)), checked within 0.5%
    r = 2.0
    pot, scaled = SIMON, SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(2.0, 2.0, 2.0, 2.0))
    ratio_expected = r ** (2.0 * 1.0 / 4.0)
    base = effective_operator(1, pot, 12.0, 1999)
    resized = effective_operator(1, scaled, 12.0 * r ** (-0.25), 1999)
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


def test_box_doubling_audit_oscillator():
    box = counting_box(OSCILLATOR, 100.0)
    pts = points_for_spacing(box, 0.01)
    assert box_doubling_change(OSCILLATOR, 100.0, box, pts) < 1e-3


def test_channel_boxes_close_the_channels():
    lx, ly = channel_boxes(SIMON, 8.0, margin=1.1)
    # transverse ground energy at the wall exceeds the target energy
    assert math.sqrt(lx) >= 8.0
    assert 1.018 * ly ** (4.0 / 3.0) >= 8.0


def test_channel_boxes_doubling_audit():
    # the rule-chosen box changes the count at lam well below lam_max by < 0.1%
    lam = 4.0
    lx, ly = channel_boxes(SIMON, lam, margin=1.1)
    points = (points_for_spacing(lx, 0.25), points_for_spacing(ly, 0.15))
    assert box_doubling_change(SIMON, lam, (lx, ly), points) < 1e-3


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


# spectrum dump ---------------------------------------------------------------


def test_spectrum_dump_roundtrip(tmp_path):
    vals = np.array([0.5, 1.25, 7.0])
    path = tmp_path / "spec.csv"
    save_spectrum(path, vals)
    text = path.read_text().splitlines()
    assert text[0] == "k,eigenvalue"
    assert np.array_equal(load_spectrum(path), vals)
