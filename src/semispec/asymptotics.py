"""Closed-form spectral asymptotics for -Laplacian + V with homogeneous V.

For V homogeneous of degree gamma in d variables the counting function and
heat trace grow like

    N(lam) ~ counting_constant(gamma, d) * lam^(d (gamma+2) / (2 gamma)) * I_F
    Tr e^(-tH) ~ heat_constant(gamma, d) * t^(-d (gamma+2) / (2 gamma)) * I_F

with I_F the angular integral of F^(-d/gamma).  For separately homogeneous
V = |x|^alpha |y|^beta F the angular integral is infinite and the leading
term is instead carried by transverse zeta traces, with gamma replaced by
2 alpha / (beta + 2) and the lam power m (alpha+beta+2) / (2 alpha).

Both prefactor pairs satisfy heat_constant = Gamma(exponent + 1) *
counting_constant, the consistency relation between the two growth laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import log_gamma
from .schrodinger import Homogeneous, SeparatelyHomogeneous

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


def counting_constant(gamma: float, d: int) -> float:
    """(4 pi)^(-d/2) Gamma(d/gamma) / (gamma Gamma(d/gamma + d/2 + 1))."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not d >= 1:
        raise ValueError(f"need d >= 1, got {d}")
    log_val = (
        -0.5 * d * math.log(4.0 * math.pi)
        - math.log(gamma)
        + log_gamma(d / gamma)
        - log_gamma(d / gamma + 0.5 * d + 1.0)
    )
    if log_val > 700.0:
        raise OverflowError(f"constant overflows for gamma={gamma}, d={d}")
    return math.exp(log_val)


def heat_constant(gamma: float, d: int) -> float:
    """(4 pi)^(-d/2) Gamma(d/gamma) / gamma; the Tauberian partner of
    counting_constant (their ratio is Gamma(exponent + 1))."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not d >= 1:
        raise ValueError(f"need d >= 1, got {d}")
    log_val = -0.5 * d * math.log(4.0 * math.pi) - math.log(gamma) + log_gamma(d / gamma)
    if log_val > 700.0:
        raise OverflowError(f"constant overflows for gamma={gamma}, d={d}")
    return math.exp(log_val)


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
    profile makes the semiclassical term infinite).
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
        if previous is not None and abs(total - previous) <= ANGULAR_TOL * abs(total):
            return total
        previous = total
        nodes *= 2
    return total


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


def weyl_prediction(pot: Homogeneous, lam: float) -> float:
    """Leading-order eigenvalue count below lam (inf if the angular integral diverges)."""
    return counting_law(pot).at(lam)


def heat_weyl_prediction(pot: Homogeneous, t: float) -> float:
    """Leading-order heat trace at time t."""
    return heat_law(pot).at(t)


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


def _partial_law(kind: str, constant, pot: SeparatelyHomogeneous, zetas: Mapping[int, float]) -> Prediction:
    if 1.0 / pot.alpha <= 1.0 / pot.beta:
        raise ValueError(
            "partial law needs m/alpha > n/beta; for the opposite regime "
            "exchange the roles of the two variable groups (the symmetric statement)"
        )
    total = float(sum(zetas.values()))
    exponent = (pot.alpha + pot.beta + 2.0) / (2.0 * pot.alpha)
    return Prediction(kind, exponent, constant(reduced_degree(pot), 1) * total)


def partial_weyl_prediction(pot: SeparatelyHomogeneous, lam: float, zetas: Mapping[int, float]) -> float:
    return partial_counting_law(pot, zetas).at(lam)


def partial_heat_prediction(pot: SeparatelyHomogeneous, t: float, zetas: Mapping[int, float]) -> float:
    return partial_heat_law(pot, zetas).at(t)


# ---------------------------------------------------------------------------
# phase-space quadrature cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseSpaceCheck:
    closed_form: float
    quadrature: float
    rel_error: float
    quad_estimate: float


HEAT_SPAN = 40.0  # integrand support cut for the heat quadrature, exp(-40) ~ 4e-18
# Phase-space points per slab of the quadrature sweep; bounds its buffers.
_PHASE_SLAB = 1 << 14


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

    The grid (first momentum, second axis, remaining position axes) is swept
    in slabs along the first momentum axis, carrying the last indicator
    slice across slab boundaries.  A slab holds at most ``_PHASE_SLAB``
    points: a row larger than that is split along the second axis, each
    piece evaluated with one leading column of overlap (a piece never holds
    less than one 2d position grid).  Memory therefore grows with the
    per_axis^d position samples only, not with the grid's ``nodes``; the
    count and the crossings are those of the whole grid, and the heat sum
    differs from a one-array sum in summation order only.
    """
    d = pot.d
    per_axis = max(8, int(round(nodes ** (1.0 / (2 * d)))))
    if d == 1:
        fmin = min(pot.profile)
    else:
        fmin = float(np.min(np.asarray(pot.profile(np.linspace(0, 2 * math.pi, 257)))))
    if fmin <= 0.0:
        return math.inf, math.inf
    span = lam if lam is not None else HEAT_SPAN / t
    r_xi = math.sqrt(span)
    r_x = (span / fmin) ** (1.0 / pot.gamma) if math.isfinite(fmin) else 0.0
    if r_x == 0.0:
        return 0.0, 0.0

    def axis(radius):
        h = 2.0 * radius / per_axis
        return -radius + h * (np.arange(per_axis) + 0.5), h

    x, hx = axis(r_x)
    xi, hxi = axis(r_xi)
    kinetic = xi**2
    if d == 1:
        # symbol[a, b] = xi_a^2 + V(x_b)
        second, rest = pot.value(x), None
        cell = hx * hxi / (2.0 * math.pi)
    else:
        # symbol[a, b, c, e] = (xi_a^2 + xi_b^2) + V(x_c, x_e)
        second, rest = kinetic, pot.value(x[:, None], x[None, :])
        cell = (hx * hxi) ** 2 / (2.0 * math.pi) ** 2
    n = per_axis
    row_rest = 1 if rest is None else rest.size
    width = n if n * row_rest <= _PHASE_SLAB else max(1, _PHASE_SLAB // row_rest)
    rows = max(1, _PHASE_SLAB // (width * row_rest))
    count = crossings = 0
    heat = 0.0
    for b0 in range(0, n, width):
        lo, b1 = max(b0 - 1, 0), min(b0 + width, n)
        carry = None
        for a0 in range(0, n, rows):
            symbol = kinetic[a0 : a0 + rows, None] + second[None, lo:b1]
            if rest is not None:
                symbol = symbol[:, :, None, None] + rest
            if lam is None:
                heat += float(np.sum(np.exp(-t * symbol[:, b0 - lo :])))
                continue
            mask = symbol < lam
            # the overlap column (index 0 when lo < b0) serves the second-axis crossings only
            crossings += int(np.count_nonzero(np.diff(mask, axis=1)))
            mask = mask[:, b0 - lo :]
            count += int(np.count_nonzero(mask))
            for ax in (0, *range(2, mask.ndim)):
                crossings += int(np.count_nonzero(np.diff(mask, axis=ax)))
            if carry is not None:
                crossings += int(np.count_nonzero(carry != mask[0]))
            carry = mask[-1].copy()
    if lam is not None:
        return float(count) * cell, crossings * cell
    truncation = math.exp(-HEAT_SPAN) * n ** (2 * d) * cell
    return heat * cell, truncation


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
    closed = weyl_prediction(pot, lam) if lam is not None else heat_weyl_prediction(pot, t)
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
    divergent (the endpoint integral of 1/phi diverges too).
    """
    if not (m >= 1 and n >= 1 and alpha > 0 and beta > 0):
        raise ValueError("need m, n >= 1 and alpha, beta > 0")
    total = alpha + beta
    p = m - 1.0 - (m + n) * alpha / total
    q = n - 1.0 - (m + n) * beta / total
    tol = 1e-12
    at_zero = p <= -1.0 + tol
    at_half_pi = q <= -1.0 + tol
    if at_zero and at_half_pi:
        return "diverges_both"
    if at_zero:
        return "diverges_at_0"
    return "diverges_at_half_pi"


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
