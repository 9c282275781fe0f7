import math
import tracemalloc

import numpy as np
import pytest

from oracles import phase_space_quadrature_dense
from semispec import asymptotics
from semispec.asymptotics import (
    Prediction,
    angular_integral,
    check_partial_regime,
    counting_constant,
    counting_exponent,
    counting_law,
    divergence_classifier,
    exponent_fit,
    heat_constant,
    heat_law,
    partial_counting_law,
    partial_exponent,
    partial_heat_law,
    phase_space_identity_check,
    reduced_degree,
    zeta_power,
)
from semispec.schrodinger import Homogeneous, QuadrantProfile, SeparatelyHomogeneous

OSCILLATOR = Homogeneous(2.0, 1, (1.0, 1.0))
SIMON = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 1.0, 1.0, 1.0))


# constants -------------------------------------------------------------------


def test_constants_oscillator_quarter():
    assert counting_constant(2.0, 1) == pytest.approx(0.25, abs=1e-12)
    assert heat_constant(2.0, 1) == pytest.approx(0.25, abs=1e-12)


def test_constant_for_degree_one_half():
    assert counting_constant(0.5, 1) == pytest.approx(8.0 / (15.0 * math.pi), abs=1e-12)


def test_heat_constant_for_degree_one_half():
    assert heat_constant(0.5, 1) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_ratio_is_gamma_of_exponent_plus_one(gamma, d):
    ratio = heat_constant(gamma, d) / counting_constant(gamma, d)
    expected = math.exp(math.lgamma(counting_exponent(gamma, d) + 1.0))
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_constants_against_mpmath_closed_forms():
    # 40-digit references; d / gamma runs from about 0.02 to 167, the range of lgamma arguments used
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for gamma in np.geomspace(0.018, 60.0, 24):
        for d in (1, 2, 3):
            g = mpmath.mpf(float(gamma))
            heat = (4 * mpmath.pi) ** (-mpmath.mpf(d) / 2) * mpmath.gamma(d / g) / g
            counting = heat / mpmath.gamma(d / g + mpmath.mpf(d) / 2 + 1)
            for got, ref in ((counting_constant(gamma, d), counting), (heat_constant(gamma, d), heat)):
                assert abs(got - ref) <= 1e-12 * ref, (gamma, d)


def test_constants_continuous_in_gamma():
    grid = np.linspace(0.4, 4.0, 73)
    vals = np.array([counting_constant(g, 1) for g in grid])
    assert np.all(vals > 0)
    assert np.max(np.abs(np.diff(vals))) < 0.1  # no jumps on a fine grid


def test_constants_domain_errors():
    with pytest.raises(ValueError):
        counting_constant(-1.0, 1)
    with pytest.raises(ValueError):
        heat_constant(2.0, 0)


def test_constants_refuse_degrees_outside_the_positive_floats():
    for constant in (counting_constant, heat_constant):
        with pytest.raises(ValueError, match="gamma must be positive and finite, got inf"):
            constant(math.inf, 1)
    tiny = SeparatelyHomogeneous(1e-300, 1e300, QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"underflows to 0 for alpha=1e-300, beta=1e\+300"):
        reduced_degree(tiny)
    huge = SeparatelyHomogeneous(1e308, 1.0, QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"overflows a float for alpha=1e\+308, beta=1.0"):
        reduced_degree(huge)
    assert reduced_degree(SIMON) == 0.5


# growth laws -----------------------------------------------------------------


def test_oscillator_predictions():
    assert counting_law(OSCILLATOR).at(100.0) == pytest.approx(50.0, rel=1e-12)
    assert heat_law(OSCILLATOR).at(0.05) == pytest.approx(10.0, rel=1e-12)
    law = counting_law(OSCILLATOR)
    assert law.exponent == pytest.approx(1.0)
    assert law.constant == pytest.approx(0.5, rel=1e-12)


def test_constant_profile_angular_integral():
    pot = Homogeneous(2.0, 1, (4.0, 4.0))
    # two sphere points, each contributing c^(-d/gamma)
    assert angular_integral(pot) == pytest.approx(2.0 * 4.0 ** (-0.5), rel=1e-12)


def test_angular_integral_2d_constant_profile():
    pot = Homogeneous(2.0, 2, np.vectorize(lambda th: 3.0))
    assert angular_integral(pot) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-8)


def test_unconverged_angular_integral_is_refused():
    # a sawtooth of 1e7 teeth: 10 doublings from 2048 nodes leave a relative change of 1.7e-5
    pot = Homogeneous(2.0, 2, lambda th: 1 + 0.5 * ((th * 1e7 / (2 * math.pi)) % 1))
    with pytest.raises(ValueError, match=r"at 1048576 nodes .* by 1\.7e-05 relative, above 1e-08$"):
        angular_integral(pot)


def test_vanishing_arc_gives_infinite_prediction():
    pot = Homogeneous(2.0, 2, lambda th: np.where(np.abs(th - 1.0) < 0.3, 0.0, 1.0))
    assert math.isinf(counting_law(pot).at(10.0))


def test_one_sided_zero_profile_diverges_in_1d():
    pot = Homogeneous(2.0, 1, (1.0, 0.0))
    assert math.isinf(counting_law(pot).at(10.0))


def test_partial_law_simon_closed_form():
    zetas = {1: math.pi**2 / 8.0, -1: math.pi**2 / 8.0}
    law = partial_counting_law(SIMON, zetas)
    assert law.at(1.0) == pytest.approx(2.0 * math.pi / 15.0, rel=1e-12)
    got = law.at(9.0)
    assert got == pytest.approx(2.0 * math.pi / 15.0 * 9.0**2.5, rel=1e-12)


def test_partial_heat_law_simon_closed_form():
    zetas = {1: math.pi**2 / 8.0, -1: math.pi**2 / 8.0}
    got = partial_heat_law(SIMON, zetas).at(0.5)
    expected = math.pi**1.5 / 4.0 * 0.5 ** (-2.5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_partial_law_zero_zetas():
    assert partial_counting_law(SIMON, {1: 0.0, -1: 0.0}).at(10.0) == 0.0


def test_partial_law_wrong_regime():
    flipped = SeparatelyHomogeneous(2.0, 1.0, QuadrantProfile(1, 1, 1, 1))
    with pytest.raises(ValueError, match="symmetric"):
        partial_counting_law(flipped, {1: 1.0, -1: 1.0})


def test_partial_regime_and_exponent():
    # the hypothesis is strict: m/alpha = n/beta is refused too
    for args in ((2.0, 1.0), (1.0, 1.0), (1.0, 2.0, 1, 2), (1.0, 2.0, 1, 3)):
        with pytest.raises(ValueError, match=r"needs m/alpha > n/beta"):
            check_partial_regime(*args)
    for args in ((1.0, 2.0), (1.0, 2.0, 2, 3), (0.7, 3.0, 1, 4)):
        assert check_partial_regime(*args) is None
    assert partial_exponent(SIMON) == 2.5
    assert partial_exponent(SIMON, 2) == 5.0
    assert partial_counting_law(SIMON, {1: 1.0}).exponent == partial_heat_law(SIMON, {1: 1.0}).exponent == 2.5


def test_zeta_power_simon():
    assert zeta_power(SIMON) == pytest.approx(2.0)


def test_prediction_validation():
    with pytest.raises(ValueError):
        Prediction("counting", -1.0, 2.0)
    with pytest.raises(ValueError):
        Prediction("unknown", 1.0, 2.0)
    assert Prediction("heat", 2.0, 3.0).at(0.5) == pytest.approx(12.0)


def test_prediction_names_an_overflowing_law():
    with pytest.raises(OverflowError, match=r"partial_counting law 1.0 \* lambda\^1001.5 overflows a float at lambda=3.0"):
        Prediction("partial_counting", 1001.5, 1.0).at(3.0)
    with pytest.raises(OverflowError, match=r"heat law 2.0 \* t\^-400.0 overflows a float at t=0.001"):
        Prediction("heat", 400.0, 2.0).at(1e-3)


# phase-space identities ------------------------------------------------------


def test_phase_space_counting_identity_oscillator():
    chk = phase_space_identity_check(OSCILLATOR, lam=10.0, nodes=10**6)
    assert chk.rel_error <= 0.005
    assert chk.rel_error <= chk.quad_estimate


def test_phase_space_heat_identity_oscillator():
    chk = phase_space_identity_check(OSCILLATOR, t=0.1, nodes=10**6)
    assert chk.rel_error <= 0.005
    assert chk.rel_error <= chk.quad_estimate


def test_phase_space_empty_sublevel_set():
    pot = Homogeneous(2.0, 1, (math.inf, math.inf))
    chk = phase_space_identity_check(pot, lam=5.0, nodes=10**4)
    assert chk.closed_form == 0.0 and chk.quadrature == 0.0 and chk.rel_error == 0.0


def test_phase_space_identity_2d():
    pot = Homogeneous(2.0, 2, np.vectorize(lambda th: 1.0))
    chk = phase_space_identity_check(pot, t=0.2, nodes=6**4 * 100)
    assert chk.rel_error <= max(0.01, chk.quad_estimate)


ISOTROPIC_2D = Homogeneous(2.0, 2, lambda th: np.ones_like(th))
PHASE_CASES = {
    "oscillator": (OSCILLATOR, 50, 10.0, 0.1),
    "asymmetric": (Homogeneous(1.5, 1, (2.0, 0.3)), 50, 7.0, 0.3),
    "isotropic 2d": (ISOTROPIC_2D, 8, 10.0, 0.2),
    "cos^2 2d": (Homogeneous(3.0, 2, lambda th: 1.0 + 0.5 * np.cos(th) ** 2), 8, 6.0, 0.4),
    "one-sided wall": (Homogeneous(2.0, 1, (1.0, math.inf)), 64, 10.0, 0.1),
    "gamma 0.7": (Homogeneous(0.7, 1, (1.0, 1.5)), 64, 5.0, 0.2),
    "2 + sin 3theta": (Homogeneous(2.0, 2, lambda th: 2.0 + np.sin(3.0 * th)), 14, 9.0, 0.3),
    "10^6 nodes": (OSCILLATOR, 1000, 10.0, 0.1),
    "lam 1e-3": (OSCILLATOR, 64, 1e-3, 0.1),
}


@pytest.mark.parametrize("pot, per_axis, lam, t", PHASE_CASES.values(), ids=PHASE_CASES.keys())
def test_separable_quadrature_matches_the_whole_grid_oracle(pot, per_axis, lam, t):
    nodes = per_axis ** (2 * pot.d)
    count = asymptotics._phase_space_quadrature(pot, lam, None, nodes)
    assert count == phase_space_quadrature_dense(pot, lam, None, nodes)
    assert count[0] > 0.0 and count[1] > 0.0
    heat, truncation = asymptotics._phase_space_quadrature(pot, None, t, nodes)
    heat_dense, truncation_dense = phase_space_quadrature_dense(pot, None, t, nodes)
    assert abs(heat - heat_dense) <= 1e-14 * heat_dense and truncation == truncation_dense


def test_count_below_tests_the_rounded_sum_not_a_rearrangement():
    q, v, lam = 0.1, 0.2, 0.1 + 0.2
    assert not q + v < lam and v < lam - q
    assert asymptotics._count_below(np.array([q]), np.array([v]), lam).tolist() == [0]


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 100])
def test_count_below_equals_a_brute_force_count(size):
    rng = np.random.default_rng(size)
    ascending = np.sort(np.concatenate([rng.choice([0.1, 0.2, 0.3], size // 2), rng.random(size - size // 2)]))
    ascending[-1] = math.inf
    queries = np.array([0.0, 0.1, 0.2, 0.25, 0.5, 1.0, math.inf]).reshape(7, 1)
    lam = 0.1 + 0.2
    expected = np.count_nonzero(queries + ascending[None, :] < lam, axis=1, keepdims=True)
    assert np.array_equal(asymptotics._count_below(queries, ascending, lam), expected)


DIP_CENTRE = 2.0 * math.pi * 100.5 / 256


@pytest.mark.parametrize("form", [{"lam": 10.0}, {"t": 0.1}])
def test_phase_space_box_sees_a_dip_between_coarse_profile_samples(form):
    # the dip to 0.1 sits midway between two of 257 equispaced angles, where
    # it reads 1 - 7e-5; a box sized from those samples is too small, and
    # the heat check then reports 4.5e-3 against an estimate of 5e-7
    pot = Homogeneous(2.0, 2, lambda th: 1.0 - 0.9 * np.exp(-(((th - DIP_CENTRE) / 0.004) ** 2)))
    chk = phase_space_identity_check(pot, nodes=10**6, **form)
    assert chk.rel_error <= chk.quad_estimate


@pytest.mark.parametrize("pot", [OSCILLATOR, ISOTROPIC_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("form", [{"lam": 10.0}, {"t": 0.1}])
def test_phase_space_identity_at_ten_billion_nodes(pot, form):
    chk = phase_space_identity_check(pot, nodes=10**10, **form)
    assert chk.rel_error <= chk.quad_estimate


@pytest.mark.parametrize("pot, form", [
    (OSCILLATOR, {"lam": 10.0}), (OSCILLATOR, {"t": 0.1}), (ISOTROPIC_2D, {"lam": 10.0}), (ISOTROPIC_2D, {"t": 0.2}),
])
def test_phase_space_quadrature_memory_does_not_grow_with_nodes(pot, form):
    # the whole 10^7-point grid as one float array would take 76 MiB
    tracemalloc.start()
    try:
        chk = phase_space_identity_check(pot, nodes=10**7, **form)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 8.0
    assert chk.rel_error <= chk.quad_estimate


def test_phase_space_argument_validation():
    with pytest.raises(ValueError, match="exactly one"):
        phase_space_identity_check(OSCILLATOR)
    with pytest.raises(ValueError, match="exactly one"):
        phase_space_identity_check(OSCILLATOR, lam=1.0, t=1.0)


# divergence classification ---------------------------------------------------


def test_divergence_examples_from_exponent_formula():
    assert divergence_classifier(1, 1, 1.0, 2.0) == "diverges_at_half_pi"
    assert divergence_classifier(1, 1, 1.0, 1.0) == "diverges_both"
    assert divergence_classifier(2, 1, 1.0, 3.0) == "diverges_at_half_pi"
    # the borderline m/alpha == n/beta is exact: 1/0.09999999999999 > 2/0.2 is inside the partial regime
    assert divergence_classifier(1, 2, 0.1, 0.2) == "diverges_both"
    assert divergence_classifier(1, 2, 0.09999999999999, 0.2) == "diverges_at_half_pi"


def test_divergence_mirror_case():
    assert divergence_classifier(1, 1, 2.0, 1.0) == "diverges_at_0"


@pytest.mark.parametrize("seed", range(30))
def test_divergence_never_converges(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    alpha, beta = float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0))
    out = divergence_classifier(m, n, alpha, beta)
    assert out in ("diverges_at_0", "diverges_at_half_pi", "diverges_both")


def test_divergence_scale_invariant():
    for c in (0.5, 3.0, 17.0):
        assert divergence_classifier(1, 2, 1.0, 2.5) == divergence_classifier(
            1, 2, c * 1.0, c * 2.5
        )


# exponent fitting ------------------------------------------------------------


def test_exponent_fit_exact_power_law():
    samples = [(s, 3.0 * s**2) for s in (1.0, 2.0, 4.0, 8.0)]
    fit = exponent_fit(samples)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.residual <= 1e-12


def test_exponent_fit_oscillator_counts():
    lams = np.arange(40.0, 401.0, 40.0)
    counts = [math.ceil((lam - 1.0) / 2.0) for lam in lams]
    fit = exponent_fit(list(zip(lams, counts)))
    assert abs(fit.slope - 1.0) <= 0.02


def test_exponent_fit_validation():
    with pytest.raises(ValueError, match="at least 3"):
        exponent_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError, match="positive"):
        exponent_fit([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


def test_tauberian_consistency_counting_vs_heat_fit():
    # the fitted counting exponent and the negated heat exponent both match
    # d (gamma + 2) / (2 gamma), tying the two growth laws together
    from semispec.schrodinger import build_hamiltonian, counting_function, heat_box, heat_trace, points_for_spacing

    target = counting_exponent(2.0, 1)
    lams = [50.0, 100.0, 200.0, 400.0]
    cop = build_hamiltonian(OSCILLATOR, 40.0, points_for_spacing(40.0, 0.01))
    count_fit = exponent_fit([(lam, counting_function(cop, lam)) for lam in lams])
    assert abs(count_fit.slope - target) <= 0.02

    ts = [0.05, 0.1, 0.2, 0.4]
    box = heat_box(OSCILLATOR, min(ts))
    hop = build_hamiltonian(OSCILLATOR, box, points_for_spacing(box, 0.01))
    heat_fit = exponent_fit([(t, heat_trace(hop, t, method="truncated")) for t in ts])
    assert abs(-heat_fit.slope - target) <= 0.02


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Prediction("counting", 1.0, -1.0), r"constant must be nonnegative, got -1\.0"),
        # F(+1) = 0: V vanishes on a half-line, the quadrature is infinite before the closed form is compared
        (lambda: phase_space_identity_check(Homogeneous(2.0, 1, (0.0, 1.0)), lam=1.0),
         "phase-space check requires a finite prediction"),
        (lambda: phase_space_identity_check(Homogeneous(2.0, 1, (0.0, 1.0)), t=1.0),
         "phase-space check requires a finite prediction"),
        (lambda: divergence_classifier(0, 1, 1.0, 2.0), r"need m, n >= 1 and alpha, beta > 0"),
        (lambda: divergence_classifier(1, 1, 1.0, 0.0), r"need m, n >= 1 and alpha, beta > 0"),
    ],
    ids=["negative-constant", "half-line-count", "half-line-heat", "m-zero", "beta-zero"],
)
def test_laws_and_checks_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
