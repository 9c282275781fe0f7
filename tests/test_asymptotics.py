import math

import numpy as np
import pytest

from semispec.asymptotics import (
    Prediction,
    angular_integral,
    counting_constant,
    counting_exponent,
    counting_law,
    divergence_classifier,
    exponent_fit,
    heat_constant,
    heat_law,
    heat_weyl_prediction,
    partial_counting_law,
    partial_heat_prediction,
    partial_weyl_prediction,
    phase_space_identity_check,
    weyl_prediction,
    zeta_power,
)
from semispec.linalg import log_gamma
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
    expected = math.exp(log_gamma(counting_exponent(gamma, d) + 1.0))
    assert ratio == pytest.approx(expected, rel=1e-10)


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


# growth laws -----------------------------------------------------------------


def test_oscillator_predictions():
    assert weyl_prediction(OSCILLATOR, 100.0) == pytest.approx(50.0, rel=1e-12)
    assert heat_weyl_prediction(OSCILLATOR, 0.05) == pytest.approx(10.0, rel=1e-12)
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


def test_vanishing_arc_gives_infinite_prediction():
    pot = Homogeneous(2.0, 2, lambda th: np.where(np.abs(th - 1.0) < 0.3, 0.0, 1.0))
    assert math.isinf(weyl_prediction(pot, 10.0))


def test_one_sided_zero_profile_diverges_in_1d():
    pot = Homogeneous(2.0, 1, (1.0, 0.0))
    assert math.isinf(weyl_prediction(pot, 10.0))


def test_partial_law_simon_closed_form():
    zetas = {1: math.pi**2 / 8.0, -1: math.pi**2 / 8.0}
    assert partial_weyl_prediction(SIMON, 1.0, zetas) == pytest.approx(
        2.0 * math.pi / 15.0, rel=1e-12
    )
    got = partial_weyl_prediction(SIMON, 9.0, zetas)
    assert got == pytest.approx(2.0 * math.pi / 15.0 * 9.0**2.5, rel=1e-12)


def test_partial_heat_law_simon_closed_form():
    zetas = {1: math.pi**2 / 8.0, -1: math.pi**2 / 8.0}
    got = partial_heat_prediction(SIMON, 0.5, zetas)
    expected = math.pi**1.5 / 4.0 * 0.5 ** (-2.5)
    assert got == pytest.approx(expected, rel=1e-12)


def test_partial_law_zero_zetas():
    assert partial_weyl_prediction(SIMON, 10.0, {1: 0.0, -1: 0.0}) == 0.0


def test_partial_law_wrong_regime():
    flipped = SeparatelyHomogeneous(2.0, 1.0, QuadrantProfile(1, 1, 1, 1))
    with pytest.raises(ValueError, match="symmetric"):
        partial_counting_law(flipped, {1: 1.0, -1: 1.0})


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
