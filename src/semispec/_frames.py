"""Discrete coherent-state frames on the M-point torus and the heat-trace
lower bounds they give; :mod:`semispec.schrodinger` exports every public
name.

The bounds use the closed forms of the frame sums: the averaged frame
projector sum is (sum g^2) I, and on the torus the frame energies are
2/h^2 + (g^2 * V)(x) - (2/h^2) cos(2 pi k / M) sum_j g(j) g(j+1).

The frames live apart from ``schrodinger`` for memory: without cached
bytecode every process compiles the semispec sources, and the largest
module's compilation sets a peak that the process keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import HermitianOperator, eig_hermitian_stack

if TYPE_CHECKING:
    from .schrodinger import GridOperator


@dataclass(frozen=True)
class CoherentWindow:
    """Real nonnegative window on the M-point torus: symmetric about 0,
    nonincreasing in torus distance, with sum of squares 1 (to 1e-12)."""

    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("window must be a nonempty 1d array")
        if float(g.min()) < 0.0:
            raise ValueError("window values must be nonnegative")
        norm2 = float(np.sum(g * g))
        if not abs(norm2 - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"window squares sum to {norm2!r}, not 1 within 1e-12")
        m = g.size
        if not np.allclose(g, g[(-np.arange(m)) % m], rtol=0.0, atol=1e-12):
            raise ValueError("window must satisfy g(x) = g(-x) on the torus")
        radial = g[: m // 2 + 1]
        if np.any(np.diff(radial) > 1e-12):
            raise ValueError("window must be nonincreasing in torus distance")
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "values", g)

    @property
    def size(self) -> int:
        return self.values.size


def delta_window(m: int) -> CoherentWindow:
    g = np.zeros(m)
    g[0] = 1.0
    return CoherentWindow(g)


def flat_window(m: int) -> CoherentWindow:
    return CoherentWindow(np.full(m, 1.0 / math.sqrt(m)))


def gaussian_window(m: int, sigma: float | None = None) -> CoherentWindow:
    """Periodized Gaussian centered at torus position 0."""
    if sigma is None:
        sigma = m / 8.0
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    dist = np.minimum(np.arange(m), m - np.arange(m)).astype(float)
    g = np.exp(-(dist**2) / (2.0 * sigma**2))
    return CoherentWindow(g / math.sqrt(np.sum(g * g)))


def _window_average(window: CoherentWindow, values: np.ndarray) -> np.ndarray:
    """sum_a g(a - x)^2 values[a] at every position x: a circular correlation
    along the first axis, by FFT."""
    g = window.values
    weights = np.conj(np.fft.fft(g * g)).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(weights * np.fft.fft(values, axis=0), axis=0)


def _frame_boltzmann(
    op, t: float, window: CoherentWindow, shift: float | np.ndarray = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Factors with exp(-t (<psi_xk|H|psi_xk> + shift[x])) = bx[x] * bk[k] for
    the torus operator.

    H = diag(2/h^2 + V) - (S + S^T)/h^2 gives the frame energies
    E[x, k] = (g^2 * (2/h^2 + V))(x) - s cos(2 pi k / M) with
    s = (2/h^2) sum_j g(j) g(j+1).  Splitting E at -s keeps both exponents
    nonnegative (E >= 0 since H >= 0), so neither factor overflows unless
    ``shift`` is negative.
    """
    from .schrodinger import GridOperator

    if not (isinstance(op, GridOperator) and op.boundary == "periodic" and op.ndim == 1):
        raise ValueError("coherent frame bounds need a 1d periodic grid operator")
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive, got {t}")
    g = window.values
    m = g.size
    if m != op.n:
        raise ValueError(f"window size {m} does not match operator size {op.n}")
    kinetic = 2.0 / op.spacing[0] ** 2
    s = kinetic * float(np.dot(g, np.roll(g, -1)))
    position = _window_average(window, kinetic + op.potential).real
    bx = np.exp(-t * (position - s + shift))
    bk = np.exp(-t * s * (1.0 - np.cos(2.0 * math.pi * np.arange(m) / m)))
    return bx, bk


def coherent_frame_defect(window: CoherentWindow) -> float:
    """Frobenius distance of the averaged frame projector sum from the identity.

    The frame runs over all M positions and M discrete momenta,
    psi[j] = exp(2 pi i k j / M) g(j - x).  Since
    sum_k exp(2 pi i k (j - l) / M) = M delta_jl, the averaged sum is exactly
    (sum_j g(j)^2) I, so the defect is |sum g^2 - 1| sqrt(M).
    """
    g = window.values
    return abs(float(np.dot(g, g)) - 1.0) * math.sqrt(g.size)


def coherent_lower_bound(op: GridOperator, t: float, window: CoherentWindow) -> float:
    """Phase-space sum (1/M) sum exp(-t <psi|H|psi>) over the coherent frame.

    A lower bound for the heat trace of the torus operator: Jensen applied
    inside each frame state, summed with frame tightness.  The frame energies
    are <psi_xk|H|psi_xk> = 2/h^2 + (g^2 * V)(x)
    - (2/h^2) cos(2 pi k / M) sum_j g(j) g(j+1), with (g^2 * V)(x) =
    sum_j g(j - x)^2 V(j); the sum costs O(M log M).
    """
    bx, bk = _frame_boltzmann(op, t, window)
    return _bound(float(bx.sum() * bk.sum()) / window.size, t)


def coherent_partial_lower_bound(
    t_op: GridOperator,
    blocks: Sequence[HermitianOperator],
    t: float,
    window: CoherentWindow,
) -> float:
    """Partial-trace version of the coherent lower bound.

    For H = T (x) 1 + blockdiag(W_m) with T the torus operator, returns
    (1/M) sum over frame states of Tr exp(-t K), where K is the compression
    of H by the frame state; by the partial-trace Jensen inequality and
    frame tightness this never exceeds Tr exp(-t H).  In closed form
    K_xk = <psi_xk|T|psi_xk> I + Wbar_x with Wbar_x = sum_a g(a - x)^2 W_a,
    so Tr exp(-t K_xk) = exp(-t <psi_xk|T|psi_xk>) Tr exp(-t Wbar_x) and one
    batch of M small eigenvalue problems replaces the M^2 compressions.
    Each row's smallest eigenvalue of Wbar_x moves into its position
    exponent, so every block trace is a sum of terms in [0, 1] whose largest
    is 1, and a large combined exponent gives 0, not 0 * inf.
    """
    m = window.size
    if len(blocks) != m:
        raise ValueError(f"need one block per basis vector: {len(blocks)} != {m}")
    if len({w.dim for w in blocks}) != 1:
        raise ValueError("all blocks must share one dimension")
    wbar = _window_average(window, np.stack([w.mat for w in blocks]))
    vals = eig_hermitian_stack(wbar)[0]
    low = vals.min(axis=1)
    bx, bk = _frame_boltzmann(t_op, t, window, low)
    traces = np.exp(-t * (vals - low[:, None])).sum(axis=1)
    return _bound(float(bx @ traces * bk.sum()) / m, t)


def _bound(value: float, t: float) -> float:
    """A frame bound, refused when not finite: at this t it overflows, or, when
    NaN, one exponential factor underflowed to 0 and another overflowed to inf."""
    if not math.isfinite(value):
        cause = "0 * inf" if math.isnan(value) else "it overflows"
        raise ValueError(f"t={t!r} puts the frame bound out of float range ({cause})")
    return value
