"""Closed-form spectral asymptotics for -Laplacian + V with homogeneous V.

For V homogeneous of degree gamma in d variables the counting function and
heat trace grow like

    N(lam) ~ counting_constant(gamma, d) * lam^(d (gamma+2) / (2 gamma)) * I_F
    Tr e^(-tH) ~ heat_constant(gamma, d) * t^(-d (gamma+2) / (2 gamma)) * I_F

with I_F the angular integral of F^(-d/gamma).  For separately homogeneous
V = |x|^alpha |y|^beta F the angular integral is infinite and, when
m/alpha > n/beta (check_partial_regime), the leading term is instead
carried by transverse zeta traces, with gamma replaced by
2 alpha / (beta + 2) and the lam power m (alpha+beta+2) / (2 alpha)
(partial_exponent).

Both prefactor pairs satisfy heat_constant = Gamma(exponent + 1) *
counting_constant, the consistency relation between the two growth laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .schrodinger import HEAT_CUT, Homogeneous, SeparatelyHomogeneous, _profile_min

# Angular quadrature (d = 2): composite trapezoid doubled until the relative
# change drops below this, starting from ANGULAR_NODES nodes.
ANGULAR_TOL = 1e-8
ANGULAR_NODES = 2048
DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class Prediction:
    """A one-term growth law: constant * scale^exponent (counting kinds) or
    constant * scale^(-exponent) (heat kinds)."""

    kind: str  # counting | heat | partial_counting | partial_heat
    exponent: float
    constant: float

    def __post_init__(self):
        if self.kind not in ("counting", "heat", "partial_counting", "partial_heat"):
            raise ValueError(f"unknown prediction kind {self.kind!r}")
        if not self.exponent > 0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")
        if not (self.constant >= 0 or math.isinf(self.constant)):
            raise ValueError(f"constant must be nonnegative, got {self.constant}")

    def at(self, scale: float) -> float:
        name, power = ("t", -self.exponent) if self.kind.endswith("heat") else ("lambda", self.exponent)
        try:
            return self.constant * scale**power
        except OverflowError:
            raise OverflowError(
                f"{self.kind} law {self.constant!r} * {name}^{power!r} overflows a float at {name}={scale!r}"
            ) from None


def _constant(gamma: float, d: int, counting: bool) -> float:
    """exp of the shared log prefix -d/2 log(4 pi) - log gamma + lgamma(d/gamma),
    less lgamma(d/gamma + d/2 + 1) for the counting constant."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not d >= 1:
        raise ValueError(f"need d >= 1, got {d}")
    log_val = -0.5 * d * math.log(4.0 * math.pi) - math.log(gamma) + math.lgamma(d / gamma)
    if counting:
        log_val -= math.lgamma(d / gamma + 0.5 * d + 1.0)
    if log_val > 700.0:
        raise OverflowError(f"constant overflows for gamma={gamma}, d={d}")
    return math.exp(log_val)


def counting_constant(gamma: float, d: int) -> float:
    """(4 pi)^(-d/2) Gamma(d/gamma) / (gamma Gamma(d/gamma + d/2 + 1))."""
    return _constant(gamma, d, counting=True)


def heat_constant(gamma: float, d: int) -> float:
    """(4 pi)^(-d/2) Gamma(d/gamma) / gamma; the Tauberian partner of
    counting_constant (their ratio is Gamma(exponent + 1))."""
    return _constant(gamma, d, counting=False)


def counting_exponent(gamma: float, d: int) -> float:
    return d * (gamma + 2.0) / (2.0 * gamma)


# ---------------------------------------------------------------------------
# angular integrals
# ---------------------------------------------------------------------------


def _negative_power(values: np.ndarray, power: float) -> np.ndarray:
    """F^(-power) with F = 0 mapped to inf and F = inf mapped to 0."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    zero = values == 0.0
    out[zero] = math.inf
    out[~zero] = values[~zero] ** (-power)
    return out


def angular_integral(pot: Homogeneous) -> float:
    """Integral of F^(-d/gamma) over the sphere; inf when it diverges.

    d = 1 is the two-point sum; d = 2 uses a composite trapezoid doubled
    until the relative change is below 1e-8, declaring divergence as soon as
    the integrand exceeds 1e12 at a node (the mechanism by which a vanishing
    profile makes the semiclassical term infinite), and raises ValueError
    when 10 rules leave the change above 1e-8.
    """
    power = pot.d / pot.gamma
    if pot.d == 1:
        terms = _negative_power(np.asarray(pot.profile), power)
        return float(terms.sum())
    nodes = ANGULAR_NODES
    previous = None
    for _ in range(10):
        theta = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
        f = np.asarray(pot.profile(theta), dtype=float)
        integrand = _negative_power(f, power)
        if np.any(~np.isfinite(integrand)) or float(integrand.max()) > DIVERGENCE_GUARD:
            return math.inf
        total = float(integrand.sum()) * (2.0 * math.pi / nodes)
        change = math.inf if previous is None else abs(total - previous)
        if change <= ANGULAR_TOL * abs(total):
            return total
        previous = total
        nodes *= 2
    relative = change / abs(total) if total else math.inf
    raise ValueError(
        f"angular integral did not converge: at {nodes // 2} nodes the last doubling changed it by "
        f"{relative:.2g} relative, above {ANGULAR_TOL:g}"
    )


# ---------------------------------------------------------------------------
# growth laws
# ---------------------------------------------------------------------------


def counting_law(pot: Homogeneous) -> Prediction:
    return Prediction(
        "counting",
        counting_exponent(pot.gamma, pot.d),
        counting_constant(pot.gamma, pot.d) * angular_integral(pot),
    )


def heat_law(pot: Homogeneous) -> Prediction:
    return Prediction(
        "heat",
        counting_exponent(pot.gamma, pot.d),
        heat_constant(pot.gamma, pot.d) * angular_integral(pot),
    )


def zeta_power(pot: SeparatelyHomogeneous, m: int = 1) -> float:
    """Power for the transverse zeta traces feeding the partial laws."""
    return m * (pot.beta + 2.0) / (2.0 * pot.alpha)


def reduced_degree(pot: SeparatelyHomogeneous) -> float:
    """Effective homogeneity degree 2 alpha / (beta + 2) after slicing."""
    degree = 2.0 * pot.alpha / (pot.beta + 2.0)
    if not 0.0 < degree < math.inf:
        fate = "underflows to 0" if degree == 0.0 else "overflows a float"
        raise ValueError(f"reduced degree 2 alpha / (beta + 2) {fate} for alpha={pot.alpha!r}, beta={pot.beta!r}")
    return degree


def partial_counting_law(pot: SeparatelyHomogeneous, zetas: Mapping[int, float]) -> Prediction:
    """Counting law constant * lam^((alpha+beta+2)/(2 alpha)) with the
    angular sum of transverse zeta traces as the constant's second factor
    (m = n = 1, the case :class:`SeparatelyHomogeneous` covers)."""
    return _partial_law("partial_counting", counting_constant, pot, zetas)


def partial_heat_law(pot: SeparatelyHomogeneous, zetas: Mapping[int, float]) -> Prediction:
    """Heat-trace partner of :func:`partial_counting_law` (m = n = 1)."""
    return _partial_law("partial_heat", heat_constant, pot, zetas)


def check_partial_regime(alpha: float, beta: float, m: int = 1, n: int = 1) -> None:
    """Refuse exponents outside the partial law's hypothesis m/alpha > n/beta."""
    if not m / alpha > n / beta:
        raise ValueError(
            "partial law needs m/alpha > n/beta; for the opposite regime "
            "exchange the roles of the two variable groups (the symmetric statement)"
        )


def partial_exponent(pot: SeparatelyHomogeneous, m: int = 1) -> float:
    """Power m (alpha + beta + 2) / (2 alpha) of lam in the partial counting law."""
    return m * (pot.alpha + pot.beta + 2.0) / (2.0 * pot.alpha)


def _partial_law(kind: str, constant, pot: SeparatelyHomogeneous, zetas: Mapping[int, float]) -> Prediction:
    check_partial_regime(pot.alpha, pot.beta)
    total = float(sum(zetas.values()))
    return Prediction(kind, partial_exponent(pot), constant(reduced_degree(pot), 1) * total)


# ---------------------------------------------------------------------------
# phase-space quadrature cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpaceCheck:
    closed_form: float
    quadrature: float
    rel_error: float
    quad_estimate: float


def _count_below(queries: np.ndarray, ascending: np.ndarray, lam: float) -> np.ndarray:
    """For each query q, the number of entries v of ``ascending`` with
    fl(q + v) < lam.

    IEEE addition is monotone, so those entries form a prefix, found by a
    bisection on that exact predicate; rearranging it as v < lam - q would
    round differently (q = 0.1, v = 0.2, lam = 0.1 + 0.2).
    """
    count = np.zeros(queries.shape, dtype=np.intp)
    step = 1 << (ascending.size.bit_length() - 1)
    while step:
        trial = count + step
        inside = trial <= ascending.size
        inside &= queries + ascending[np.minimum(trial, ascending.size) - 1] < lam
        count = np.where(inside, trial, count)
        step >>= 1
    return count


def _phase_space_quadrature(
    pot: Homogeneous, lam: float | None, t: float | None, nodes: int
) -> tuple[float, float]:
    """Midpoint tensor quadrature of the phase-space integral, with its own
    error estimate.

    Counting form: volume of {|xi|^2 + V(x) < lam} / (2 pi)^d, error
    estimated by the straddling-cell volume (cells whose indicator changes
    to the next node along any axis).  Heat form: integral of
    exp(-t (|xi|^2 + V(x))) / (2 pi)^d, error estimated by node-count
    refinement plus the domain truncation bound.

    The symbol at a grid point is fl(K + V), with K the momentum part
    (fl(xi_a^2 + xi_b^2) in 2d) and V the potential sample, so the grid is
    never formed.  Each K entry's count c(K) of V entries below lam is a
    :func:`_count_below`; the sublevel sets of neighbouring K entries are
    nested, so the cells straddling lam along a momentum axis number
    |c(K_1) - c(K_2)| summed over neighbours, and along a position axis the
    same with K and V swapped.  The heat sum is sum e^(-tK) * sum e^(-tV).
    Memory grows with the per_axis^d samples of each part.
    """
    d = pot.d
    per_axis = max(8, int(round(nodes ** (1.0 / (2 * d)))))
    fmin = _profile_min(pot)
    if fmin <= 0.0:
        return math.inf, math.inf
    span = lam if lam is not None else HEAT_CUT / t
    r_xi = math.sqrt(span)
    r_x = (span / fmin) ** (1.0 / pot.gamma) if math.isfinite(fmin) else 0.0
    if r_x == 0.0:
        return 0.0, 0.0

    def axis(radius):
        h = 2.0 * radius / per_axis
        return -radius + h * (np.arange(per_axis) + 0.5), h

    x, hx = axis(r_x)
    xi, hxi = axis(r_xi)
    if d == 1:
        kinetic, potential = xi**2, pot.value(x)
        cell = hx * hxi / (2.0 * math.pi)
    else:
        kinetic, potential = xi[:, None] ** 2 + xi[None, :] ** 2, pot.value(x[:, None], x[None, :])
        cell = (hx * hxi) ** 2 / (2.0 * math.pi) ** 2
    if lam is None:
        heat = float(np.sum(np.exp(-t * kinetic))) * float(np.sum(np.exp(-t * potential)))
        return heat * cell, math.exp(-HEAT_CUT) * per_axis ** (2 * d) * cell
    per_kinetic = _count_below(kinetic, np.sort(potential, axis=None), lam)
    per_potential = _count_below(potential, np.sort(kinetic, axis=None), lam)
    steps = [np.diff(c, axis=ax) for c in (per_kinetic, per_potential) for ax in range(d)]
    # max(s, -s), not np.abs: numpy's integer abs loop would map 64 KiB of code
    # that nothing else in a growth_1d benchmark job touches, raising its peak RSS
    crossings = sum(int(np.maximum(s, -s).sum()) for s in steps)
    return float(per_kinetic.sum()) * cell, crossings * cell


def phase_space_identity_check(
    pot: Homogeneous,
    lam: float | None = None,
    t: float | None = None,
    nodes: int = 1_000_000,
) -> PhaseSpaceCheck:
    """Compare the closed-form growth term against direct phase-space quadrature.

    Exactly one of ``lam`` and ``t`` selects the counting or the heat form.
    The returned relative error is accompanied by the quadrature's own
    convergence estimate, which it should not exceed.
    """
    if (lam is None) == (t is None):
        raise ValueError("pass exactly one of lam or t")
    closed = counting_law(pot).at(lam) if lam is not None else heat_law(pot).at(t)
    quad, own = _phase_space_quadrature(pot, lam, t, nodes)
    if math.isinf(closed) or math.isinf(quad):
        raise ValueError("phase-space check requires a finite prediction")
    scale = max(abs(closed), abs(quad))
    if scale == 0.0:
        return PhaseSpaceCheck(closed, quad, 0.0, 1e-12)
    rel = abs(closed - quad) / scale
    if t is not None:
        coarse, _ = _phase_space_quadrature(pot, lam, t, max(nodes // 4, 64))
        own = max(own, 5.0 * abs(quad - coarse))
    estimate = max(own / scale, 1e-12)
    return PhaseSpaceCheck(closed, quad, rel, estimate)


# ---------------------------------------------------------------------------
# divergence classification and exponent fitting
# ---------------------------------------------------------------------------


def divergence_classifier(m: int, n: int, alpha: float, beta: float) -> str:
    """Endpoint(s) at which the angular integral of the naive growth term
    diverges for V = |x|^alpha |y|^beta.

    With the polar-angle exponents p = m-1-(m+n) alpha/(alpha+beta) and
    q = n-1-(m+n) beta/(alpha+beta) one has p+1 = -(q+1), so at least one
    endpoint integral always diverges; exponent exactly -1 counts as
    divergent (the endpoint integral of 1/phi diverges too).  Since
    p <= -1 exactly when m/alpha <= n/beta, the answer is read off the
    comparison :func:`check_partial_regime` makes: both endpoints on the
    borderline m/alpha == n/beta, pi/2 alone in the partial laws' regime
    m/alpha > n/beta.
    """
    if not (m >= 1 and n >= 1 and alpha > 0 and beta > 0):
        raise ValueError("need m, n >= 1 and alpha, beta > 0")
    if m / alpha == n / beta:
        return "diverges_both"
    if m / alpha > n / beta:
        return "diverges_at_half_pi"
    return "diverges_at_0"


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float


def exponent_fit(samples) -> ExponentFit:
    """Least-squares power-law fit: ln(value) against ln(scale).

    ``samples`` is a sequence of (scale, value) pairs, at least three, with
    positive values; the residual is the RMS of the log-space fit.
    """
    pairs = list(samples)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 samples, got {len(pairs)}")
    scales = np.array([float(s) for s, _ in pairs])
    values = np.array([float(v) for _, v in pairs])
    if np.any(scales <= 0) or np.any(values <= 0):
        raise ValueError("scales and values must be positive for a log-log fit")
    lx, ly = np.log(scales), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sqrt(np.mean((slope * lx + intercept - ly) ** 2)))
    return ExponentFit(float(slope), float(intercept), residual)
