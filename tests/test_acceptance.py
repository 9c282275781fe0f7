"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run with ``pytest -s``
to see them on success) and asserts both the numerical criterion and its
runtime budget.
"""

import math
import time

import numpy as np

import semispec as ss
from semispec.asymptotics import counting_exponent, partial_counting_law
from semispec.bipartite import BipartiteDims, DensityMatrix
from semispec.inequalities import (
    gibbs_sides,
    gibbs_state,
    golden_thompson_sides,
    jensen_partial_trace_sides,
    jensen_scalar_gap,
    sliced_gt_sides,
)
from semispec.linalg import HermitianOperator, affine, exp_neg, positive_part, square

from oracles import double_jensen_chain

TOL = 1e-10
SUITE_FUNCTIONS = (exp_neg(0.1), exp_neg(1.0), exp_neg(10.0), square(), positive_part())


def announce(num: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status}  {label}{suffix}")


def _rng_for(trial: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(20240901, spawn_key=(stream, trial)))


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0)


def _density(rng, dim):
    rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    gram = g @ g.conj().T
    return DensityMatrix(HermitianOperator(gram / np.real(np.trace(gram))))


def test_criterion_01_partial_trace_jensen_suite():
    start = time.time()
    worst = math.inf
    for trial in range(1000):
        rng = _rng_for(trial, stream=1)
        dims = BipartiteDims(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        op = _hermitian(rng, dims.total)
        rho = _density(rng, dims.dim1)
        for f in SUITE_FUNCTIONS:
            lhs, rhs = jensen_partial_trace_sides(op, rho, dims, f)
            worst = min(worst, (rhs - lhs) / (1.0 + abs(rhs)))
    nonneg_ok = worst >= -TOL

    # equality cases
    rng = _rng_for(0, stream=2)
    dims = BipartiteDims(4, 3)
    op = _hermitian(rng, 12)
    rho = _density(rng, 4)
    lhs_a, rhs_a = jensen_partial_trace_sides(op, rho, dims, affine(1.3, -0.4))
    affine_ok = abs(rhs_a - lhs_a) <= TOL * (1.0 + abs(rhs_a))

    op6 = _hermitian(rng, 6)
    phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    phi /= np.linalg.norm(phi)
    reduction_ok = True
    for f in SUITE_FUNCTIONS:
        partial = ss.jensen_partial_trace_gap(op6, DensityMatrix.pure(phi), BipartiteDims(6, 1), f)
        scalar = jensen_scalar_gap(op6, phi, f)
        reduction_ok &= abs(partial - scalar) <= TOL * (1.0 + abs(scalar))

    m = n = 3
    block_h = np.zeros((9, 9), dtype=complex)
    for i in range(m):
        block_h[i * n : (i + 1) * n, i * n : (i + 1) * n] = _hermitian(rng, n).mat
    basis = np.zeros(m)
    basis[2] = 1.0
    gap_block = ss.jensen_partial_trace_gap(
        HermitianOperator(block_h), DensityMatrix.pure(basis), BipartiteDims(m, n), exp_neg(1.0)
    )
    block_ok = abs(gap_block) <= TOL

    elapsed = time.time() - start
    passed = nonneg_ok and affine_ok and reduction_ok and block_ok and elapsed < 60.0
    announce(
        1,
        "partial-trace Jensen suite, 1000 trials to 6x6 factors",
        passed,
        f"worst scaled gap {worst:.2e}, {elapsed:.1f}s",
    )
    assert nonneg_ok and affine_ok and reduction_ok and block_ok
    assert elapsed < 60.0


def test_criterion_02_double_jensen_proof_oracle():
    start = time.time()
    ok = True
    for trial in range(100):
        rng = _rng_for(trial, stream=3)
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        dims = BipartiteDims(m, n)
        op = _hermitian(rng, m * n)
        rho = _density(rng, m)
        f = SUITE_FUNCTIONS[trial % len(SUITE_FUNCTIONS)]
        lhs, rhs = jensen_partial_trace_sides(op, rho, dims, f)
        chain = double_jensen_chain(op.mat, rho.op.mat, m, n, f)
        tol = TOL * (1.0 + abs(rhs))
        ok &= bool(np.all(chain["b"] - chain["a"] >= -tol))
        ok &= bool(np.all(chain["per_term_rhs"] - chain["per_term_lhs"] >= -tol))
        ok &= chain["rhs"] >= lhs - tol  # chained bound dominates the reported LHS
        ok &= abs(chain["lhs"] - lhs) <= tol and abs(chain["rhs"] - rhs) <= tol
    elapsed = time.time() - start
    passed = ok and elapsed < 30.0
    announce(2, "double-Jensen proof-chain oracle, 100 trials", passed, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def test_criterion_03_golden_thompson_plain_and_sliced():
    worst_gt = worst_sliced = math.inf
    for trial in range(200):
        rng = _rng_for(trial, stream=4)
        dim = int(rng.integers(2, 8))
        lhs, rhs = golden_thompson_sides(_hermitian(rng, dim), _hermitian(rng, dim))
        worst_gt = min(worst_gt, (rhs - lhs) / (1.0 + abs(rhs)))

        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        t_op = _hermitian(rng, m)
        blocks = [_hermitian(rng, n) for _ in range(m)]
        lhs_s, rhs_s = sliced_gt_sides(t_op, blocks, float(rng.uniform(0.1, 2.0)))
        worst_sliced = min(worst_sliced, (rhs_s - lhs_s) / (1.0 + abs(rhs_s)))
    nonneg_ok = worst_gt >= -TOL and worst_sliced >= -TOL

    rng = _rng_for(0, stream=5)
    a = HermitianOperator.from_diag(rng.standard_normal(5))
    b = HermitianOperator.from_diag(rng.standard_normal(5))
    lhs_c, rhs_c = golden_thompson_sides(a, b)
    commuting_ok = abs(rhs_c - lhs_c) <= TOL * (1.0 + abs(rhs_c))

    w = _hermitian(rng, 3)
    t_op = _hermitian(rng, 4)
    lhs_w, rhs_w = sliced_gt_sides(t_op, [w] * 4, 0.9)
    identical_ok = abs(rhs_w - lhs_w) <= TOL * (1.0 + abs(rhs_w))

    t_diag = HermitianOperator.from_diag(rng.standard_normal(4))
    blocks = [_hermitian(rng, 3) for _ in range(4)]
    lhs_d, rhs_d = sliced_gt_sides(t_diag, blocks, 0.9)
    diagonal_ok = abs(rhs_d - lhs_d) <= TOL * (1.0 + abs(rhs_d))

    passed = nonneg_ok and commuting_ok and identical_ok and diagonal_ok
    announce(
        3,
        "Golden-Thompson and sliced variant, 200 trials each",
        passed,
        f"worst scaled gaps {worst_gt:.2e} / {worst_sliced:.2e}",
    )
    assert passed


def test_criterion_04_gibbs_variational_principle():
    worst = math.inf
    for trial in range(1000):
        rng = _rng_for(trial, stream=6)
        dim = int(rng.integers(2, 9))
        op = _hermitian(rng, dim)
        rho = _density(rng, dim)
        lhs, rhs = gibbs_sides(rho, op)
        worst = min(worst, (rhs - lhs) / (1.0 + abs(rhs)))
    nonneg_ok = worst >= -TOL
    rng = _rng_for(0, stream=7)
    op = _hermitian(rng, 7)
    at_gibbs = ss.gibbs_gap(gibbs_state(op), op)
    gibbs_ok = at_gibbs <= TOL
    passed = nonneg_ok and gibbs_ok
    announce(
        4,
        "Gibbs variational principle, 1000 trials",
        passed,
        f"worst scaled gap {worst:.2e}, gap at Gibbs state {at_gibbs:.2e}",
    )
    assert passed


def test_criterion_05_coherent_frame_and_sandwich():
    defect_ok = True
    worst_defect = 0.0
    for m in (16, 64, 256):
        for window in (ss.delta_window(m), ss.flat_window(m), ss.gaussian_window(m)):
            defect = ss.coherent_frame_defect(window)
            worst_defect = max(worst_defect, defect)
            defect_ok &= defect <= 1e-12

    sandwich_ok = True
    m, n = 8, 3
    t_op = ss.build_hamiltonian(None, 4.0, m, boundary="periodic")
    window = ss.gaussian_window(m, sigma=1.5)
    for trial in range(200):
        rng = _rng_for(trial, stream=8)
        blocks = []
        for _ in range(m):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(HermitianOperator(g @ g.conj().T))
        t = float(rng.uniform(0.1, 1.0))
        trace_val, upper = sliced_gt_sides(t_op.hermitian(), blocks, t)
        lower = ss.coherent_partial_lower_bound(t_op, blocks, t, window)
        tol = TOL * (1.0 + trace_val)
        sandwich_ok &= lower <= trace_val + tol
        sandwich_ok &= trace_val <= upper + tol
    passed = defect_ok and sandwich_ok
    announce(
        5,
        "coherent frame tightness and bound sandwich, 200 trials",
        passed,
        f"worst defect {worst_defect:.2e}",
    )
    assert passed


def test_criterion_06_oscillator_counting_and_heat_law():
    start = time.time()
    pot = ss.Homogeneous(2.0, 1, (1.0, 1.0))

    box = ss.counting_box(pot, 400.0)
    op = ss.build_hamiltonian(pot, box, ss.points_for_spacing(box, 0.01))
    n100 = ss.counting_function(op, 100.0)
    count_ok = 0.98 <= n100 / 50.0 <= 1.02

    lams = np.arange(40.0, 401.0, 40.0)
    fit = ss.exponent_fit([(lam, ss.counting_function(op, lam)) for lam in lams])
    slope_ok = abs(fit.slope - 1.0) <= 0.02

    t = 0.05
    heat_box_size = ss.heat_box(pot, t)
    heat_op = ss.build_hamiltonian(pot, heat_box_size, ss.points_for_spacing(heat_box_size, 0.01))
    scaled = t * ss.heat_trace(heat_op, t, method="truncated")
    heat_ok = abs(scaled - 0.5) <= 0.01 * 0.5

    elapsed = time.time() - start
    passed = count_ok and slope_ok and heat_ok and elapsed < 30.0
    announce(
        6,
        "oscillator counting and heat growth laws",
        passed,
        f"N(100)/50={n100 / 50.0:.3f}, slope={fit.slope:.3f}, t*heat={scaled:.4f}, {elapsed:.1f}s",
    )
    assert count_ok and slope_ok and heat_ok
    assert elapsed < 30.0


def test_criterion_07_partially_semiclassical_law():
    start = time.time()
    pot = ss.SeparatelyHomogeneous(1.0, 2.0, ss.QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    lam_top = 10.0

    # transverse zeta traces per direction
    zetas = ss.transverse_zetas(pot, ss.zeta_power(pot), 12.0, 2399)
    zeta_ok = all(abs(z - math.pi**2 / 8.0) <= 0.01 * (math.pi**2 / 8.0) for z in zetas.values())

    # grid by the channel-closing rule; spacings fixed by this module
    lx, ly = ss.channel_boxes(pot, lam_top)
    law = partial_counting_law(pot, zetas)
    lams = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def ratio_at_top(hx, hy, lam_list):
        points = (ss.points_for_spacing(lx, hx), ss.points_for_spacing(ly, hy))
        op = ss.build_hamiltonian(pot, (lx, ly), points)
        counts = [ss.counting_function(op, lam) for lam in lam_list]
        return counts, counts[-1] / law.at(lam_list[-1])

    coarse_counts, coarse_ratio = ratio_at_top(0.3, 0.18, [lam_top])
    counts, top_ratio = ratio_at_top(0.2, 0.12, lams)

    fit = ss.exponent_fit(list(zip(lams, counts)))
    slope_ok = abs(fit.slope - 2.5) <= 0.15
    ratio_ok = abs(top_ratio - 1.0) <= 0.25
    trend_ok = abs(top_ratio - 1.0) < abs(coarse_ratio - 1.0)

    elapsed = time.time() - start
    passed = zeta_ok and slope_ok and ratio_ok and trend_ok and elapsed < 300.0
    announce(
        7,
        "partially semiclassical counting law (channel potential)",
        passed,
        f"zeta(+)={zetas[1]:.4f}, slope={fit.slope:.3f}, ratio={top_ratio:.3f} "
        f"(coarse {coarse_ratio:.3f}), {elapsed:.0f}s",
    )
    assert zeta_ok and slope_ok and ratio_ok and trend_ok
    assert elapsed < 300.0


def test_criterion_08_growth_law_constants():
    quarter_ok = (
        abs(ss.counting_constant(2.0, 1) - 0.25) <= 1e-12
        and abs(ss.heat_constant(2.0, 1) - 0.25) <= 1e-12
    )
    half_ok = abs(ss.counting_constant(0.5, 1) - 8.0 / (15.0 * math.pi)) <= 1e-12
    ratio_ok = True
    for gamma in (0.3, 0.5, 1.0, 1.7, 2.0, 3.0, 5.0):
        for d in (1, 2, 3):
            expected = math.exp(math.lgamma(counting_exponent(gamma, d) + 1.0))
            got = ss.heat_constant(gamma, d) / ss.counting_constant(gamma, d)
            ratio_ok &= abs(got - expected) <= 1e-10 * expected
    passed = quarter_ok and half_ok and ratio_ok
    announce(8, "growth-law constants and their Tauberian ratio", passed)
    assert passed


def test_criterion_09_divergence_classifier():
    examples_ok = (
        ss.divergence_classifier(1, 1, 1.0, 2.0) == "diverges_at_half_pi"
        and ss.divergence_classifier(1, 1, 1.0, 1.0) == "diverges_both"
        and ss.divergence_classifier(2, 1, 1.0, 3.0) == "diverges_at_half_pi"
    )
    never_converges = True
    for trial in range(500):
        rng = _rng_for(trial, stream=9)
        out = ss.divergence_classifier(
            int(rng.integers(1, 5)),
            int(rng.integers(1, 5)),
            float(rng.uniform(0.05, 8.0)),
            float(rng.uniform(0.05, 8.0)),
        )
        never_converges &= out in ("diverges_at_0", "diverges_at_half_pi", "diverges_both")
    passed = examples_ok and never_converges
    announce(9, "divergence classifier never reports convergence", passed)
    assert passed


def test_criterion_10_phase_space_identities():
    pot = ss.Homogeneous(2.0, 1, (1.0, 1.0))
    chk_count = ss.phase_space_identity_check(pot, lam=10.0, nodes=10**6)
    chk_heat = ss.phase_space_identity_check(pot, t=0.1, nodes=10**6)
    count_ok = chk_count.rel_error <= 0.005 and chk_count.rel_error <= chk_count.quad_estimate
    heat_ok = chk_heat.rel_error <= 0.005 and chk_heat.rel_error <= chk_heat.quad_estimate
    passed = count_ok and heat_ok
    announce(
        10,
        "phase-space identities vs quadrature",
        passed,
        f"counting {chk_count.rel_error:.2e}, heat {chk_heat.rel_error:.2e}",
    )
    assert passed
