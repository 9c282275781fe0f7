"""Finite-difference Schrodinger operators -Laplacian + V with homogeneous
potentials: construction, exact eigenvalue counting, heat and zeta traces,
transverse effective operators, and discrete coherent-state frames.

Grids are second-order central-difference discretizations on a box with
Dirichlet walls (tridiagonal in 1d, 5-point banded in 2d, lower-banded
storage) or on a 1d torus (dense).  Counting is exact for the discrete
matrix: Sturm sign changes for tridiagonal operators and, in 2d, block-row
inertia (one Bunch-Kaufman factorization per grid row).  On a pivot
breakdown the rows are taken in reverse order, then the count is dense up to
``DENSE_EIG_CAP`` and refused beyond it; no other shift is ever counted.

Coherent-frame bounds use the closed forms of the frame sums: the averaged
frame projector sum is (sum g^2) I, and on the torus the frame energies are
2/h^2 + (g^2 * V)(x) - (2/h^2) cos(2 pi k / M) sum_j g(j) g(j+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eig_banded, eigvalsh_tridiagonal, lapack

from .linalg import HermitianOperator

# Memory guards: total grid nodes, and the largest matrix we will hand to a
# dense eigensolver (counting fallback, full spectra of 2d operators).
MAX_GRID_NODES = 250_000
DENSE_EIG_CAP = 4_096

# Truncated heat traces keep eigenvalues below 40/t; the discarded part is
# bounded by dim * exp(-40).
HEAT_CUT = 40.0


class BoundaryWarning(UserWarning):
    """The shift sits within 1e-12 of a discrete eigenvalue; a strict count is ambiguous."""


# ---------------------------------------------------------------------------
# homogeneous potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Homogeneous:
    """V(x) = |x|^gamma F(x/|x|) with F >= 0 on the sphere and V(0) = 0.

    In one dimension ``profile`` is the pair (F(+1), F(-1)); in two it is a
    function of the polar angle (must accept ndarray input).
    """

    gamma: float
    d: int
    profile: tuple | Callable

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.d == 1:
            fp, fm = self.profile
            if fp < 0 or fm < 0:
                raise ValueError("profile values must be nonnegative")
            object.__setattr__(self, "profile", (float(fp), float(fm)))
        elif not callable(self.profile):
            raise ValueError("d=2 requires a callable angular profile")

    def value(self, x, y=None):
        if self.d == 1:
            x = np.asarray(x, dtype=float)
            fp, fm = self.profile
            return np.abs(x) ** self.gamma * np.where(x > 0, fp, fm)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        f = np.asarray(self.profile(np.arctan2(y, x)), dtype=float)
        return np.where(r > 0, r**self.gamma * f, 0.0)


@dataclass(frozen=True)
class QuadrantProfile:
    """Angular profile of a separately homogeneous potential: F at the four
    sign combinations (+,+), (+,-), (-,+), (-,-)."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self):
        for v in (self.pp, self.pm, self.mp, self.mm):
            if v < 0:
                raise ValueError("profile values must be nonnegative")

    def at(self, sx: int, sy: int) -> float:
        if sx > 0:
            return self.pp if sy > 0 else self.pm
        return self.mp if sy > 0 else self.mm

    def values(self) -> tuple[float, float, float, float]:
        return (self.pp, self.pm, self.mp, self.mm)


@dataclass(frozen=True)
class SeparatelyHomogeneous:
    """V(x, y) = |x|^alpha |y|^beta F(sign x, sign y); vanishes on the axes.

    Only one longitudinal and one transverse variable are supported
    (m = n = 1).
    """

    alpha: float
    beta: float
    profile: QuadrantProfile

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        f = np.where(
            x > 0,
            np.where(y > 0, self.profile.pp, self.profile.pm),
            np.where(y > 0, self.profile.mp, self.profile.mm),
        )
        return np.abs(x) ** self.alpha * np.abs(y) ** self.beta * f


def uniform_quadrants(value: float = 1.0) -> QuadrantProfile:
    return QuadrantProfile(value, value, value, value)


# config text: "variant key=value ... profile=v1,v2[,v3,v4]"


def format_potential_config(pot) -> str:
    if isinstance(pot, Homogeneous):
        if pot.d != 1:
            raise ValueError("config text supports d=1 profiles only")
        fp, fm = pot.profile
        return f"homogeneous gamma={pot.gamma!r} d=1 profile={fp!r},{fm!r}"
    if isinstance(pot, SeparatelyHomogeneous):
        vals = ",".join(repr(v) for v in pot.profile.values())
        return f"separately alpha={pot.alpha!r} beta={pot.beta!r} profile={vals}"
    raise TypeError(f"unsupported potential type {type(pot).__name__}")


def parse_potential_config(text: str):
    parts = text.split()
    if not parts:
        raise ValueError("empty potential config")
    variant, kv = parts[0], dict(p.split("=", 1) for p in parts[1:])
    profile = tuple(float(v) for v in kv.get("profile", "1").split(","))
    try:
        if variant == "homogeneous":
            if len(profile) == 1:
                profile = (profile[0], profile[0])
            return Homogeneous(float(kv["gamma"]), int(kv.get("d", 1)), profile)
        if variant == "separately":
            if len(profile) == 1:
                profile = profile * 4
            return SeparatelyHomogeneous(
                float(kv["alpha"]), float(kv["beta"]), QuadrantProfile(*profile)
            )
    except KeyError as exc:
        raise ValueError(f"{variant} potential config lacks {exc.args[0]}=") from None
    raise ValueError(f"unknown potential variant {variant!r}")


# ---------------------------------------------------------------------------
# grid operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridOperator:
    """Discretized -Laplacian + V on a box.

    Dirichlet operators are stored in symmetric lower-banded form
    (``bands[r, j] = A[j + r, j]``); the 1d torus variant is stored dense.
    ``potential`` holds the node samples, flattened with the second axis
    fastest in 2d (flat index ``ix * Py + iy``).
    """

    ndim: int
    boundary: str
    box: tuple[float, ...]
    points: tuple[int, ...]
    spacing: tuple[float, ...]
    potential: np.ndarray
    bands: np.ndarray | None
    dense_mat: np.ndarray | None

    @property
    def n(self) -> int:
        return int(np.prod(self.points))

    @property
    def bandwidth(self) -> int:
        if self.bands is None:
            return self.n - 1
        return self.bands.shape[0] - 1

    def axis_nodes(self, axis: int = 0) -> np.ndarray:
        length, count = self.box[axis], self.points[axis]
        h = self.spacing[axis]
        if self.boundary == "periodic":
            return -length + h * np.arange(count)
        return -length + h * (1.0 + np.arange(count))

    def dense(self) -> np.ndarray:
        if self.dense_mat is not None:
            return self.dense_mat
        n = self.n
        out = np.zeros((n, n))
        for r in range(self.bands.shape[0]):
            vals = self.bands[r, : n - r]
            idx = np.arange(n - r)
            out[idx + r, idx] = vals
            out[idx, idx + r] = vals
        return out

    def hermitian(self) -> HermitianOperator:
        return HermitianOperator(self.dense().astype(np.complex128))


def _as_pair(value) -> tuple:
    if np.isscalar(value):
        return (value,)
    return tuple(value)


def build_hamiltonian(
    potential,
    box,
    points,
    boundary: str = "dirichlet",
    max_nodes: int = MAX_GRID_NODES,
) -> GridOperator:
    """Assemble the finite-difference operator for -Laplacian + V.

    ``box`` and ``points`` are scalars in 1d or (x, y) pairs in 2d; the
    spacing per axis is ``h = 2 L / (P + 1)`` with Dirichlet walls (nodes
    outside the box are implicitly zero).  ``potential`` may be None for the
    free operator, a :class:`Homogeneous` (d matching the grid) or a
    :class:`SeparatelyHomogeneous` (2d only).
    """
    box = tuple(float(b) for b in _as_pair(box))
    points = tuple(int(p) for p in _as_pair(points))
    if len(box) != len(points):
        raise ValueError("box and points must have matching dimensionality")
    ndim = len(box)
    if ndim not in (1, 2):
        raise ValueError(f"only 1d and 2d grids are supported, got {ndim}d")
    if any(not b > 0 for b in box):
        raise ValueError(f"box half-widths must be positive, got {box}")
    if any(p < 3 for p in points):
        raise ValueError(f"need at least 3 points per axis, got {points}")
    n_total = int(np.prod(points))
    if n_total > max_nodes:
        raise ValueError(f"{n_total} grid nodes exceed the cap {max_nodes}")
    if boundary not in ("dirichlet", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if boundary == "periodic" and ndim != 1:
        raise ValueError("periodic grids are supported in 1d only")

    if boundary == "periodic":
        length, count = box[0], points[0]
        h = 2.0 * length / count
        nodes = -length + h * np.arange(count)
        v = np.zeros(count) if potential is None else np.asarray(potential.value(nodes), float)
        _check_samples(v)
        mat = np.zeros((count, count))
        np.fill_diagonal(mat, 2.0 / h**2 + v)
        idx = np.arange(count - 1)
        mat[idx + 1, idx] = mat[idx, idx + 1] = -1.0 / h**2
        mat[0, count - 1] += -1.0 / h**2
        mat[count - 1, 0] += -1.0 / h**2
        mat.flags.writeable = False
        return GridOperator(1, boundary, box, points, (h,), v, None, mat)

    spacing = tuple(2.0 * box[i] / (points[i] + 1) for i in range(ndim))
    if ndim == 1:
        nodes = -box[0] + spacing[0] * (1.0 + np.arange(points[0]))
        v = np.zeros(points[0]) if potential is None else np.asarray(potential.value(nodes), float)
        _check_samples(v)
        bands = np.zeros((2, points[0]))
        bands[0] = 2.0 / spacing[0] ** 2 + v
        bands[1, :-1] = -1.0 / spacing[0] ** 2
        bands.flags.writeable = False
        return GridOperator(1, boundary, box, points, spacing, v, bands, None)

    px, py = points
    hx, hy = spacing
    xs = -box[0] + hx * (1.0 + np.arange(px))
    ys = -box[1] + hy * (1.0 + np.arange(py))
    if potential is None:
        v = np.zeros(n_total)
    else:
        v = np.asarray(potential.value(xs[:, None], ys[None, :]), float).ravel()
    _check_samples(v)
    bands = np.zeros((py + 1, n_total))
    bands[0] = 2.0 / hx**2 + 2.0 / hy**2 + v
    sub = np.full(n_total, -1.0 / hy**2)
    sub[py - 1 :: py] = 0.0  # no y-coupling across x-rows
    bands[1] = sub
    bands[py, : n_total - py] = -1.0 / hx**2
    bands.flags.writeable = False
    return GridOperator(2, boundary, box, points, spacing, v, bands, None)


def _check_samples(v: np.ndarray) -> None:
    if v.size and float(v.min()) < 0.0:
        raise ValueError(f"potential samples must be nonnegative, min is {v.min():.3e}")


def points_for_spacing(length: float, h: float) -> int:
    """Number of interior nodes giving spacing as close as possible to h."""
    return max(3, int(round(2.0 * length / h)) - 1)


# ---------------------------------------------------------------------------
# eigenvalue counting
# ---------------------------------------------------------------------------


class _PivotBreakdown(ArithmeticError):
    """A pivot of the 2d block factorization is numerically zero."""


def _sturm_negcount(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Sign changes of the Sturm sequence of (T - shift I): eigenvalues below shift."""
    tiny = 1e-300
    count = 0
    q = diag[0] - shift
    if q == 0.0:
        q = -tiny
    if q < 0.0:
        count = 1
    for i in range(1, diag.size):
        q = diag[i] - shift - off[i - 1] * off[i - 1] / q
        if q == 0.0:
            q = -tiny
        if q < 0.0:
            count += 1
    return count


def _block_negcount(op: GridOperator, shift: float, reverse: bool = False) -> int:
    """Eigenvalues of a 2d Dirichlet operator below ``shift``, by block-row inertia.

    The 5-point operator is block tridiagonal with coupling blocks
    -(1/hx^2) I, so Haynsworth's inertia additivity gives
    nu_-(A - s) = sum_i nu_-(D_i), D_i = A_ii - s - hx^-4 D_{i-1}^-1.  Each
    D_i is factorized by Bunch-Kaufman (``dsytrf``), its inertia read off
    the pivots by Sylvester's law, and inverted from the factors
    (``dsytri``).  Blocks run along the shorter axis; ``reverse`` takes the
    rows in opposite order, changing the leading blocks but not the inertia.
    A pivot eigenvalue within 1e-12 (relative) of zero raises
    :class:`_PivotBreakdown`.
    """
    hx, hy = op.spacing
    v = op.potential.reshape(op.points)
    if v.shape[1] > v.shape[0]:
        v, hx, hy = v.T, hy, hx
    v = v[::-1] if reverse else v
    m = v.shape[1]
    idx = np.arange(m)
    centre = 2.0 / hx**2 + 2.0 / hy**2
    ptol = 1e-12 * (centre + float(v.max()) + abs(shift) + 1.0)
    fixed = np.zeros((m, m), order="F")  # lower triangle of A_ii - s - V_i; LAPACK reads no other
    fixed[idx[1:], idx[:-1]] = -1.0 / hy**2
    np.fill_diagonal(fixed, centre - shift)
    block, inv = np.empty((m, m), order="F"), np.zeros((m, m), order="F")
    neg = 0
    for row, vals in enumerate(v):
        np.multiply(inv, -1.0 / hx**4, out=block)
        block += fixed
        block.flat[:: m + 1] += vals
        ldu, ipiv, _ = lapack.dsytrf(block, lower=1, overwrite_a=1)
        # ipiv > 0 marks a 1x1 pivot; runs of ipiv < 0 hold 2x2 pivots, each with
        # det < 0 (Bunch-Kaufman) and so exactly one negative eigenvalue
        d, two = ldu.diagonal(), ipiv < 0
        run_start = np.maximum.accumulate(np.where(two & ~np.r_[False, two[:-1]], idx, 0))
        first = np.flatnonzero(two & ((idx - run_start) % 2 == 0))
        a, b, c = d[first], ldu[first + 1, first], d[first + 1]
        # the smaller eigenvalue magnitude of [[a, b], [b, c]] is |det| / the larger one
        small2 = np.abs(a * c - b * b) / (0.5 * np.abs(a + c) + np.hypot(0.5 * (a - c), b))
        smallest = min(np.abs(d[~two]).min(initial=np.inf), small2.min(initial=np.inf))
        if smallest <= ptol:
            raise _PivotBreakdown(f"pivot eigenvalue {smallest:.3e} in block row {row}")
        neg += int(np.count_nonzero(d[~two] < 0.0)) + first.size
        inv, _ = lapack.dsytri(ldu, ipiv, lower=1, overwrite_a=1)
    return neg


def _count_below(op, shift: float) -> int:
    """Exact count of eigenvalues strictly below ``shift``; a 2d breakdown is
    retried in reverse row order, then counted densely or refused."""
    if isinstance(op, HermitianOperator):
        return int(np.count_nonzero(np.linalg.eigvalsh(op.mat) < shift))
    if op.dense_mat is not None:
        return int(np.count_nonzero(np.linalg.eigvalsh(op.dense_mat) < shift))
    if op.bandwidth == 1:
        return _sturm_negcount(op.bands[0], op.bands[1], shift)
    for reverse in (False, True):
        try:
            return _block_negcount(op, shift, reverse)
        except _PivotBreakdown as exc:
            breakdown = exc
    if op.n > DENSE_EIG_CAP:
        raise RuntimeError(
            f"block factorization at shift {shift!r} broke down in both row orders "
            f"({breakdown}) and {op.n} nodes exceed the dense fallback cap {DENSE_EIG_CAP}"
        )
    return int(np.count_nonzero(np.linalg.eigvalsh(op.dense()) < shift))


def counting_function(op, lam: float, boundary_check: bool = True) -> int:
    """Exact number of eigenvalues of the discrete operator strictly below lam.

    When lam sits within 1e-12 (relative) of an eigenvalue the strict count
    is ambiguous at working precision; a :class:`BoundaryWarning` is emitted
    and the lower of the two bracketing counts is returned.
    """
    delta = 1e-12 * (1.0 + abs(lam))
    low = _count_below(op, lam - delta)
    if boundary_check:
        high = _count_below(op, lam + delta)
        if high != low:
            warnings.warn(
                f"lambda={lam!r} is within {delta:.1e} of an eigenvalue "
                f"(count jumps {low} -> {high})",
                BoundaryWarning,
                stacklevel=2,
            )
    return low


def gershgorin_bounds(op) -> tuple[float, float]:
    """Interval certainly containing the whole spectrum."""
    if isinstance(op, HermitianOperator) or op.dense_mat is not None:
        mat = op.mat if isinstance(op, HermitianOperator) else op.dense_mat
        diag = np.real(np.diagonal(mat))
        radius = np.sum(np.abs(mat), axis=1) - np.abs(diag)
        return float(np.min(diag - radius)), float(np.max(diag + radius))
    bands = op.bands
    n = bands.shape[1]
    radius = np.zeros(n)
    for r in range(1, bands.shape[0]):
        vals = np.abs(bands[r, : n - r])
        radius[: n - r] += vals  # entry below the diagonal
        radius[r:] += vals  # its mirror above
    diag = bands[0]
    return float(np.min(diag - radius)), float(np.max(diag + radius))


# ---------------------------------------------------------------------------
# spectra, heat traces, zeta traces
# ---------------------------------------------------------------------------


def spectrum(op, upto: float | None = None) -> np.ndarray:
    """Eigenvalues of the discrete operator, ascending; optionally only those <= upto.

    Tridiagonal operators use LAPACK bisection for the windowed form; other
    shapes go through a dense or banded solver, guarded by
    ``DENSE_EIG_CAP``.
    """
    if isinstance(op, HermitianOperator):
        vals = np.linalg.eigvalsh(op.mat)
    elif op.dense_mat is not None:
        vals = np.linalg.eigvalsh(op.dense_mat)
    elif op.bandwidth == 1:
        diag, off = op.bands[0], op.bands[1, :-1]
        if upto is not None:
            lo = gershgorin_bounds(op)[0] - 1.0
            vals = eigvalsh_tridiagonal(
                diag, off, select="v", select_range=(lo, upto), lapack_driver="stebz"
            )
            return np.sort(vals)
        vals = eigvalsh_tridiagonal(diag, off)
    else:
        if op.n > DENSE_EIG_CAP:
            raise RuntimeError(
                f"{op.n} nodes exceed the dense spectrum cap {DENSE_EIG_CAP}; "
                "use counting_function for large 2d operators"
            )
        vals = eig_banded(op.bands, lower=True, eigvals_only=True)
    vals = np.sort(vals)
    if upto is not None:
        vals = vals[vals <= upto]
    return vals


def ground_energy(op) -> float:
    if not isinstance(op, HermitianOperator) and op.dense_mat is None and op.bandwidth == 1:
        return float(
            eigvalsh_tridiagonal(
                op.bands[0], op.bands[1, :-1], select="i", select_range=(0, 0)
            )[0]
        )
    return float(spectrum(op)[0])


def heat_trace(op, t: float, method: str = "dense") -> float:
    """Tr exp(-t H) of the discrete operator.

    ``dense`` sums over the full spectrum; ``truncated`` keeps eigenvalues
    below 40/t, discarding a remainder bounded by
    :func:`heat_truncation_bound`.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if method == "dense":
        vals = spectrum(op)
    elif method == "truncated":
        vals = spectrum(op, upto=HEAT_CUT / t)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.sum(np.exp(-t * vals)))


def heat_truncation_bound(op, t: float) -> float:
    """Upper bound on the part of the heat trace discarded by ``truncated``."""
    n = op.dim if isinstance(op, HermitianOperator) else op.n
    return n * math.exp(-HEAT_CUT)


@dataclass(frozen=True)
class ZetaTrace:
    """Result of a spectral zeta sum: partial sum below the cutoff, the
    power-law tail appended to it, and whether the modeled tail converges."""

    value: float
    partial_sum: float
    tail: float
    converged: bool
    count: int


def zeta_trace(op, p: float, e_cut: float = math.inf, growth_exponent: float | None = None) -> ZetaTrace:
    """Sum of eigenvalue powers mu_k^(-p) over eigenvalues <= e_cut.

    Eigenvalues beyond the cutoff are extrapolated with the growth law
    mu_k ~ c k^q: q is ``growth_exponent`` when given (for a transverse
    operator with potential of degree beta in n variables it is
    2 beta / (n (beta + 2))), otherwise fitted; c is always fitted on the
    top half of the computed spectrum.  The modeled tail converges only for
    p q > 1; otherwise the sum is flagged divergent and the value is inf.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    vals = spectrum(op)
    if float(vals[0]) <= 0.0:
        raise ValueError(f"zeta trace requires a positive spectrum; smallest is {vals[0]:.6e}")
    used = vals[vals <= e_cut]
    k = used.size
    partial = float(np.sum(used ** (-p)))
    if k == vals.size:
        # nothing was cut: the finite matrix is summed completely
        return ZetaTrace(partial, partial, 0.0, True, k)
    if k < 4:
        raise ValueError(f"only {k} eigenvalues below e_cut={e_cut}; cannot extrapolate")
    ks = np.arange(1, k + 1, dtype=float)
    top = slice(k // 2, k)
    if growth_exponent is None:
        q = float(np.polyfit(np.log(ks[top]), np.log(used[top]), 1)[0])
    else:
        q = float(growth_exponent)
    log_c = float(np.mean(np.log(used[top]) - q * np.log(ks[top])))
    if p * q <= 1.0:
        return ZetaTrace(math.inf, partial, math.inf, False, k)
    c = math.exp(log_c)
    tail = c ** (-p) * (k + 0.5) ** (1.0 - p * q) / (p * q - 1.0)
    return ZetaTrace(partial + tail, partial, tail, True, k)


def transverse_growth_exponent(beta: float, n: int = 1) -> float:
    """Growth law exponent q in mu_k ~ c k^q for -Laplacian + |y|^beta F."""
    return 2.0 * beta / (n * (beta + 2.0))


# ---------------------------------------------------------------------------
# effective transverse operators and box-size rules
# ---------------------------------------------------------------------------


def transverse_potential(pot: SeparatelyHomogeneous, omega: int) -> Homogeneous:
    """Potential |y|^beta F(omega, sign y) of the effective operator at
    longitudinal direction omega in {+1, -1}."""
    if omega not in (1, -1):
        raise ValueError(f"omega must be +1 or -1, got {omega}")
    return Homogeneous(
        pot.beta, 1, (pot.profile.at(omega, +1), pot.profile.at(omega, -1))
    )


def effective_operator(omega: int, pot: SeparatelyHomogeneous, box: float, points: int) -> GridOperator:
    """Transverse operator -d^2/dy^2 + |y|^beta F(omega, sign y) on a 1d grid."""
    return build_hamiltonian(transverse_potential(pot, omega), box, points)


def longitudinal_potential(pot: SeparatelyHomogeneous, omega_y: int) -> Homogeneous:
    """Potential |x|^alpha F(sign x, omega_y) seen along the other channel."""
    if omega_y not in (1, -1):
        raise ValueError(f"omega_y must be +1 or -1, got {omega_y}")
    return Homogeneous(
        pot.alpha, 1, (pot.profile.at(+1, omega_y), pot.profile.at(-1, omega_y))
    )


def counting_box(pot: Homogeneous, lam_max: float, factor: float = 4.0) -> float:
    """Half-width making min V on the boundary at least factor * lam_max."""
    fmin = _profile_min(pot)
    if fmin <= 0.0:
        raise ValueError("profile vanishes somewhere; the boundary rule is vacuous")
    return (factor * lam_max / fmin) ** (1.0 / pot.gamma)


def heat_box(pot: Homogeneous, t: float, factor: float = 80.0) -> float:
    """Half-width making min V on the boundary at least factor / t."""
    return counting_box(pot, 1.0 / t, factor=factor)


def _profile_min(pot: Homogeneous) -> float:
    if pot.d == 1:
        return min(pot.profile)
    theta = np.linspace(0.0, 2.0 * math.pi, 4097)
    return float(np.min(np.asarray(pot.profile(theta), dtype=float)))


def channel_boxes(
    pot: SeparatelyHomogeneous,
    lam_max: float,
    margin: float = 1.1,
    probe_box: float = 14.0,
    probe_points: int = 1400,
) -> tuple[float, float]:
    """Box half-widths closing both potential channels at energy lam_max.

    The boundary-value rule used for fully homogeneous potentials is vacuous
    here (V vanishes on the axes), so instead the walls are placed where the
    transverse zero-point energy of each channel reaches margin * lam_max:
    with mu0 the smallest transverse ground energy, scaling gives
    Lx = (margin lam_max / mu0)^((beta+2)/(2 alpha)) and symmetrically for
    Ly.  States below lam_max are then classically confined to the box.
    """
    mu0 = min(
        ground_energy(effective_operator(o, pot, probe_box, probe_points)) for o in (1, -1)
    )
    if mu0 <= 1e-8:
        raise ValueError("transverse channel does not close; box rule inapplicable")
    nu0 = min(
        ground_energy(build_hamiltonian(longitudinal_potential(pot, o), probe_box, probe_points))
        for o in (1, -1)
    )
    if nu0 <= 1e-8:
        raise ValueError("longitudinal channel does not close; box rule inapplicable")
    lx = (margin * lam_max / mu0) ** ((pot.beta + 2.0) / (2.0 * pot.alpha))
    ly = (margin * lam_max / nu0) ** ((pot.alpha + 2.0) / (2.0 * pot.beta))
    return lx, ly


def box_doubling_change(pot, lam: float, box, points) -> float:
    """Self-audit: relative change of N(lam) when the box is doubled at fixed spacing."""
    base = counting_function(build_hamiltonian(pot, box, points), lam, boundary_check=False)
    box2 = tuple(2.0 * b for b in _as_pair(box))
    pts2 = tuple(2 * p + 1 for p in _as_pair(points))
    doubled = counting_function(build_hamiltonian(pot, box2, pts2), lam, boundary_check=False)
    if base == 0:
        return float(doubled != 0)
    return abs(doubled - base) / base


# ---------------------------------------------------------------------------
# discrete coherent-state frames
# ---------------------------------------------------------------------------


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
        if abs(norm2 - 1.0) > 1e-12:
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
    dist = np.minimum(np.arange(m), m - np.arange(m)).astype(float)
    g = np.exp(-(dist**2) / (2.0 * sigma**2))
    return CoherentWindow(g / math.sqrt(np.sum(g * g)))


def _window_average(window: CoherentWindow, values: np.ndarray) -> np.ndarray:
    """sum_a g(a - x)^2 values[a] at every position x: a circular correlation
    along the first axis, by FFT."""
    g = window.values
    weights = np.conj(np.fft.fft(g * g)).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(weights * np.fft.fft(values, axis=0), axis=0)


def _frame_boltzmann(op, t: float, window: CoherentWindow) -> tuple[np.ndarray, np.ndarray]:
    """Factors with exp(-t <psi_xk|H|psi_xk>) = bx[x] * bk[k] for the torus operator.

    H = diag(2/h^2 + V) - (S + S^T)/h^2 gives the frame energies
    E[x, k] = (g^2 * (2/h^2 + V))(x) - s cos(2 pi k / M) with
    s = (2/h^2) sum_j g(j) g(j+1).  Splitting E at -s keeps both exponents
    nonnegative (E >= 0 since H >= 0), so neither factor overflows.
    """
    if not (isinstance(op, GridOperator) and op.boundary == "periodic" and op.ndim == 1):
        raise ValueError("coherent frame bounds need a 1d periodic grid operator")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    g = window.values
    m = g.size
    if m != op.n:
        raise ValueError(f"window size {m} does not match operator size {op.n}")
    kinetic = 2.0 / op.spacing[0] ** 2
    s = kinetic * float(np.dot(g, np.roll(g, -1)))
    position = _window_average(window, kinetic + op.potential).real
    bx = np.exp(-t * (position - s))
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
    return float(bx.sum() * bk.sum()) / window.size


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
    """
    bx, bk = _frame_boltzmann(t_op, t, window)
    m = window.size
    if len(blocks) != m:
        raise ValueError(f"need one block per basis vector: {len(blocks)} != {m}")
    if len({w.dim for w in blocks}) != 1:
        raise ValueError("all blocks must share one dimension")
    wbar = _window_average(window, np.stack([w.mat for w in blocks]))
    traces = np.exp(-t * np.linalg.eigvalsh(wbar)).sum(axis=1)
    return float(bx @ traces * bk.sum()) / m


# ---------------------------------------------------------------------------
# spectrum dump
# ---------------------------------------------------------------------------


def format_spectrum(values) -> str:
    lines = ["k,eigenvalue"]
    lines.extend(f"{k},{float(v)!r}" for k, v in enumerate(values))
    return "\n".join(lines) + "\n"


def save_spectrum(path, values) -> None:
    with open(path, "w") as fh:
        fh.write(format_spectrum(values))


def load_spectrum(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "k,eigenvalue":
        raise ValueError("expected a 'k,eigenvalue' header")
    return np.array([float(ln.split(",")[1]) for ln in lines[1:]])
