"""Finite-difference Schrodinger operators -Laplacian + V with homogeneous
potentials: construction, exact eigenvalue counting, heat and zeta traces,
transverse effective operators, and discrete coherent-state frames.

Grids are second-order central-difference discretizations on a box with
Dirichlet walls (tridiagonal in 1d, 5-point in 2d) or on a 1d torus.  A grid
operator holds only its potential samples and spacings; every matrix is
built from them on demand, and any dense or banded one only up to
``DENSE_EIG_CAP`` nodes.  Counting is exact for the discrete
matrix: Sturm sign changes for tridiagonal operators (one pass over the
nodes for every shift of a sweep) and, in 2d, block-row inertia (one
Bunch-Kaufman factorization per grid row and shift).  On a pivot breakdown
the rows are taken in reverse order, then the count is dense up to
``DENSE_EIG_CAP`` and refused beyond it; no other shift is ever counted.
Counts and heat traces take arrays of energies or times and share one
Sturm pass or one spectrum among them.

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

from .linalg import HermitianOperator, eig_hermitian_stack

# Memory guards: total grid nodes, and the largest matrix we will hand to a
# dense eigensolver (counting fallback, full spectra of 2d operators).
MAX_GRID_NODES = 250_000
DENSE_EIG_CAP = 4_096

# Truncated heat traces keep eigenvalues below 40/t; the discarded part is
# bounded by dim * exp(-40).
HEAT_CUT = 40.0

# Box rules.  A homogeneous potential's walls reach 4 lam_max for counts and
# 80 / t for heat traces; a channel's walls sit where its transverse ground
# energy, taken on a 1400-node probe grid of half-width 14, reaches 1.1 lam_max.
COUNTING_WALL = 4.0
HEAT_WALL = 80.0
CHANNEL_MARGIN = 1.1
PROBE_BOX = 14.0
PROBE_POINTS = 1400


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
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.d == 1:
            fp, fm = self.profile
            # NaN fails both comparisons; +inf is a hard wall on that side
            if not (fp >= 0 and fm >= 0):
                raise ValueError(f"profile values must be nonnegative, got ({fp!r}, {fm!r})")
            object.__setattr__(self, "profile", (float(fp), float(fm)))
        elif not callable(self.profile):
            raise ValueError("d=2 requires a callable angular profile")

    def value(self, x, y=None):
        x = np.asarray(x, dtype=float)
        # |x|^gamma may overflow to +inf (a hard wall in 1d) or underflow to 0;
        # V is 0 where F = 0, and in 1d +inf where F = inf and x != 0, however
        # the power rounds.  build_hamiltonian refuses the NaN and the 2d +inf left
        with np.errstate(over="ignore", invalid="ignore"):
            if self.d == 1:
                fp, fm = self.profile
                f = np.where(x > 0, fp, fm)
                v = np.asarray(np.abs(x) ** self.gamma)
                v[np.isinf(f)] = math.inf
                v *= f
                # V(0) = 0 even behind a hard wall (F = inf)
                v[(x == 0) | (f == 0)] = 0.0
                return v
            y = np.asarray(y, dtype=float)
            r = np.hypot(x, y)
            f = np.asarray(self.profile(np.arctan2(y, x)), dtype=float)
            v = np.asarray(r**self.gamma * f)
            v[(r == 0) | (f == 0)] = 0.0
            return v


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
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"profile values must be nonnegative and finite, got {v!r}")

    def at(self, sx: int, sy: int) -> float:
        if sx > 0:
            return self.pp if sy > 0 else self.pm
        return self.mp if sy > 0 else self.mm


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
        if not all(e > 0 and math.isfinite(e) for e in (self.alpha, self.beta)):
            raise ValueError(f"alpha and beta must be positive and finite, got {self.alpha}, {self.beta}")

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        f = np.where(
            x > 0,
            np.where(y > 0, self.profile.pp, self.profile.pm),
            np.where(y > 0, self.profile.mp, self.profile.mm),
        )
        # V is 0 where F = 0; elsewhere a power may overflow to +inf and meet
        # the other one at 0 (NaN), and build_hamiltonian refuses both
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(np.abs(x) ** self.alpha * np.abs(y) ** self.beta * f)
        v[f == 0] = 0.0
        return v


def uniform_quadrants() -> QuadrantProfile:
    return QuadrantProfile(1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# grid operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridOperator:
    """Discretized -Laplacian + V on a box, held as node samples and spacings.

    ``potential`` holds the node samples, flattened with the second axis
    fastest in 2d (flat index ``ix * Py + iy``).  No matrix is stored:
    :meth:`dense` assembles one on demand, up to ``DENSE_EIG_CAP`` nodes.
    """

    ndim: int
    boundary: str
    points: tuple[int, ...]
    spacing: tuple[float, ...]
    potential: np.ndarray

    @property
    def n(self) -> int:
        return int(np.prod(self.points))

    def dense(self) -> np.ndarray:
        """The matrix, assembled from the samples; refused above ``DENSE_EIG_CAP`` nodes."""
        _check_dense_cap(self, "matrix")
        n = self.n
        out = np.zeros((n, n))
        for r, row in enumerate(_banded(self)):
            idx = np.arange(n - r)
            out[idx + r, idx] = out[idx, idx + r] = row[: n - r]
        if self.boundary == "periodic":
            out[0, n - 1] = out[n - 1, 0] = -1.0 / self.spacing[0] ** 2
        return out

    def hermitian(self) -> HermitianOperator:
        return HermitianOperator(self.dense().astype(np.complex128))


def _diagonal(op: GridOperator) -> np.ndarray:
    return sum(2.0 / h**2 for h in op.spacing) + op.potential


def _tridiagonal(op: GridOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a 1d operator (on the torus, without its corners)."""
    return _diagonal(op), np.full(op.n - 1, -1.0 / op.spacing[0] ** 2)


def _banded(op: GridOperator) -> np.ndarray:
    """Symmetric lower-banded storage ``ab[r, j] = A[j + r, j]`` (on the torus, without its corners)."""
    if op.ndim == 1:
        diag, off = _tridiagonal(op)
        return np.stack([diag, np.append(off, 0.0)])
    hx, hy = op.spacing
    py = op.points[1]
    ab = np.zeros((py + 1, op.n))
    ab[0] = _diagonal(op)
    ab[1] = -1.0 / hy**2
    ab[1, py - 1 :: py] = 0.0  # no y-coupling across x-rows
    ab[py, : op.n - py] = -1.0 / hx**2
    return ab


def _check_dense_cap(op: GridOperator, what: str) -> None:
    if op.n > DENSE_EIG_CAP:
        raise RuntimeError(
            f"{op.n} nodes exceed the dense {what} cap {DENSE_EIG_CAP}; "
            "counting_function counts Dirichlet operators without it"
        )


def _as_pair(value) -> tuple:
    if np.isscalar(value):
        return (value,)
    return tuple(value)


def build_hamiltonian(potential, box, points, boundary: str = "dirichlet") -> GridOperator:
    """Sample the potential for the finite-difference operator -Laplacian + V.

    ``box`` and ``points`` are scalars in 1d or (x, y) pairs in 2d; the
    spacing per axis is ``h = 2 L / (P + 1)`` with Dirichlet walls (nodes
    outside the box are implicitly zero), ``h = 2 L / P`` on the torus.
    ``potential`` may be None for the free operator, a :class:`Homogeneous`
    (d matching the grid) or a :class:`SeparatelyHomogeneous` (2d only).
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
    if n_total > MAX_GRID_NODES:
        raise ValueError(f"{n_total} grid nodes exceed the cap {MAX_GRID_NODES}")
    if boundary not in ("dirichlet", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if boundary == "periodic" and ndim != 1:
        raise ValueError("periodic grids are supported in 1d only")

    if boundary == "periodic":
        spacing = (2.0 * box[0] / points[0],)
        axes = [-box[0] + spacing[0] * np.arange(points[0])]
    else:
        spacing = tuple(2.0 * box[i] / (points[i] + 1) for i in range(ndim))
        axes = [-box[i] + spacing[i] * (1.0 + np.arange(points[i])) for i in range(ndim)]
    # the stencil's diagonal offset sum(2/h^2), and with it each coupling 1/h^2, must be finite
    if any(h**2 == 0.0 for h in spacing) or not math.isfinite(sum(2.0 / h**2 for h in spacing)):
        raise ValueError(f"box {box} on {points} points gives spacing {spacing}, too fine for the 2/h^2 stencil")
    if potential is None:
        v = np.zeros(n_total)
    else:
        v = np.asarray(potential.value(*np.ix_(*axes)), float).ravel()
    lo = float(v.min())  # NaN if any sample is NaN
    if math.isnan(lo):
        raise ValueError(
            f"{potential!r} is NaN at {np.count_nonzero(np.isnan(v))} of {v.size} nodes; "
            "grids need samples that are numbers"
        )
    if not lo >= 0.0:
        raise ValueError(f"potential samples must be nonnegative, min is {lo!r}")
    # +inf decouples a node of a tridiagonal operator (a hard wall); the 2d count has no such path
    if ndim == 2 and math.isinf(v.max()):
        raise ValueError(
            f"{potential!r} overflows to +inf at {np.count_nonzero(np.isinf(v))} of {v.size} "
            "nodes; 2d grids need finite samples"
        )
    return GridOperator(ndim, boundary, points, spacing, v)


def points_for_spacing(length: float, h: float) -> int:
    """Number of interior nodes giving spacing as close as possible to h."""
    return max(3, int(round(2.0 * length / h)) - 1)


# ---------------------------------------------------------------------------
# eigenvalue counting
# ---------------------------------------------------------------------------


# Nodes per block of the 1d Sturm pass; bounds its (nodes, shifts) buffer.
_STURM_BLOCK = 512


class _PivotBreakdown(ArithmeticError):
    """A pivot of the 2d block factorization is numerically zero."""


def _sturm_negcounts(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal T below each shift: sign changes of the
    Sturm sequences of (T - s I) for all shifts s in one pass over the nodes.

    Per shift this is the scalar recursion q_i = (d_i - s) - e_{i-1}^2 / q_{i-1}
    with a zero q replaced by -1e-300, operation for operation, so every count
    equals the one-shift count exactly.  Nodes go in blocks; a block is run
    without the replacement and run again with it only when one of its q is
    exactly zero.  A ratio that overflows is -+inf: that q counts by its sign
    and the next ratio is 0.
    """
    tiny = 1e-300
    e2 = off * off
    count = np.zeros(shifts.size, dtype=np.intp)
    ratio = np.empty(shifts.size)
    prev = None  # q at the last node of the previous block
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, diag.size, _STURM_BLOCK):
            for replace_zeros in (False, True):
                rows = diag[lo : lo + _STURM_BLOCK, None] - shifts
                q = prev
                for i, row in enumerate(rows, start=lo):
                    if q is not None:
                        np.divide(e2[i - 1], q, out=ratio)
                        row -= ratio
                    if replace_zeros:
                        row[row == 0.0] = -tiny
                    q = row
                if replace_zeros or rows.all():
                    break
            prev = q
            count += np.count_nonzero(rows < 0.0, axis=0)
    return count


def _pivot_inertia(ldu: np.ndarray, ipiv: np.ndarray) -> tuple[int, float]:
    """Negative eigenvalues of a ``dsytrf`` (lower) factored symmetric matrix,
    and the smallest pivot eigenvalue magnitude.

    By Sylvester's law the inertia is that of the block-diagonal pivot
    matrix.  ``ipiv > 0`` marks a 1x1 pivot; a 2x2 pivot holds two entries
    ``ipiv < 0`` and has det < 0 (Bunch-Kaufman), so exactly one negative
    eigenvalue.  The count is read off the signs alone; the 2x2 blocks are
    located (runs of ``ipiv < 0`` pair up from their start) only to find
    their smaller eigenvalue magnitude, and only when there are any.
    """
    d = ldu.diagonal()
    if ipiv.min() > 0:
        return int(np.count_nonzero(d < 0.0)), float(np.abs(d).min())
    two = ipiv < 0
    idx = np.arange(d.size)
    run_start = np.maximum.accumulate(np.where(two & ~np.r_[False, two[:-1]], idx, 0))
    first = np.flatnonzero(two & ((idx - run_start) % 2 == 0))
    a, b, c = d[first], ldu[first + 1, first], d[first + 1]
    # the smaller eigenvalue magnitude of [[a, b], [b, c]] is |det| / the larger one
    small2 = np.abs(a * c - b * b) / (0.5 * np.abs(a + c) + np.hypot(0.5 * (a - c), b))
    smallest = min(float(np.abs(d[~two]).min(initial=np.inf)), float(small2.min()))
    return int(np.count_nonzero(d[~two] < 0.0)) + int(np.count_nonzero(two)) // 2, smallest


def _block_negcount(op: GridOperator, shift: float, reverse: bool = False) -> int:
    """Eigenvalues of a 2d Dirichlet operator below ``shift``, by block-row inertia.

    The 5-point operator is block tridiagonal with coupling blocks
    -(1/hx^2) I, so Haynsworth's inertia additivity gives
    nu_-(A - s) = sum_i nu_-(D_i), D_i = A_ii - s - hx^-4 D_{i-1}^-1.  Each
    D_i is factorized by Bunch-Kaufman (``dsytrf``), its inertia read off
    the pivots (:func:`_pivot_inertia`), and inverted from the factors
    (``dsytri``).  Blocks run along the shorter axis; ``reverse`` takes the
    rows in opposite order, changing the leading blocks but not the inertia.
    A pivot eigenvalue within 1e-12 (relative) of zero raises
    :class:`_PivotBreakdown`.
    """
    from scipy.linalg import lapack

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
        row_neg, smallest = _pivot_inertia(ldu, ipiv)
        if smallest <= ptol:
            raise _PivotBreakdown(f"pivot eigenvalue {smallest:.3e} in block row {row}")
        neg += row_neg
        inv, _ = lapack.dsytri(ldu, ipiv, lower=1, overwrite_a=1)
    return neg


def _block_count(op: GridOperator, shift: float) -> int:
    """Block-row count of a 2d Dirichlet operator; a breakdown is retried in
    reverse row order, then counted densely or refused."""
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
    return int(np.searchsorted(spectrum(op), shift, side="left"))


def _count_below(op: GridOperator, shifts: np.ndarray) -> np.ndarray:
    """Exact counts of eigenvalues strictly below each of ``shifts`` (1d array).

    Tridiagonal operators take one Sturm pass for all shifts, the torus one
    spectrum; 2d operators are counted shift by shift.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if op.boundary == "periodic":
        return np.searchsorted(spectrum(op), shifts, side="left")
    if op.ndim == 1:
        return _sturm_negcounts(*_tridiagonal(op), shifts)
    return np.array([_block_count(op, float(s)) for s in shifts], dtype=np.intp)


def counting_function(op: GridOperator, lam: float | np.ndarray) -> int | np.ndarray:
    """Exact number of eigenvalues of the discrete operator strictly below lam.

    ``lam`` is a number or an array; an array is counted in one sweep (one
    Sturm pass or one spectrum) and returns an integer array of its shape,
    a number returns an ``int``.  When a lam sits within 1e-12 (relative) of
    an eigenvalue the strict count is ambiguous at working precision; a
    :class:`BoundaryWarning` is emitted for that lam and the lower of the two
    bracketing counts is returned.
    """
    lams = np.asarray(lam, dtype=float)
    flat = lams.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    delta = 1e-12 * (1.0 + np.abs(flat))
    counts = _count_below(op, np.concatenate([flat - delta, flat + delta]))
    low, high = counts[: flat.size], counts[flat.size :]
    for i in np.flatnonzero(high != low):
        warnings.warn(
            f"lambda={float(flat[i])!r} is within {delta[i]:.1e} of an eigenvalue "
            f"(count jumps {int(low[i])} -> {int(high[i])})",
            BoundaryWarning,
            stacklevel=2,
        )
    return int(low[0]) if lams.ndim == 0 else low.reshape(lams.shape)


def gershgorin_bounds(op: GridOperator) -> tuple[float, float]:
    """Interval certainly containing the whole spectrum.

    Each neighbour along an axis adds 1/h^2 to a node's radius, summed along
    the last axis first.
    """
    radius = np.zeros(op.points)
    for axis in reversed(range(op.ndim)):
        coupling = 1.0 / op.spacing[axis] ** 2
        both = np.ones(op.points[axis])
        if op.boundary == "dirichlet":
            both[[0, -1]] = 0.0  # a wall node has one neighbour along this axis
        radius += coupling
        radius += coupling * both.reshape((-1,) + (1,) * (op.ndim - 1 - axis))
    diag, radius = _diagonal(op), radius.ravel()
    return float(np.min(diag - radius)), float(np.max(diag + radius))


# ---------------------------------------------------------------------------
# spectra, heat traces, zeta traces
# ---------------------------------------------------------------------------


def _finite_nodes(op: GridOperator) -> np.ndarray:
    """Nodes with a finite sample; the others are hard walls, decoupled with eigenvalue +inf."""
    return np.flatnonzero(np.isfinite(op.potential))


def _finite_tridiagonal(op: GridOperator) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal of a 1d Dirichlet operator less its hard-wall nodes, which add exactly 0 to heat and zeta sums."""
    diag, off = _tridiagonal(op)
    idx = _finite_nodes(op)
    # kept neighbours stay coupled only where no deleted node lies between them
    return diag[idx], np.where(np.diff(idx) == 1, off[idx[:-1]], 0.0)


def spectrum(op: GridOperator, upto: float | None = None) -> np.ndarray:
    """Eigenvalues of the discrete operator, ascending; optionally only those <= upto.

    Tridiagonal operators use LAPACK bisection for the windowed form; other
    shapes go through a dense or banded solver, guarded by
    ``DENSE_EIG_CAP``.  The infinite eigenvalues of hard-wall nodes are left
    out.
    """
    from scipy.linalg import eig_banded, eigvalsh_tridiagonal

    if op.ndim == 1 and op.boundary == "dirichlet":
        diag, off = _finite_tridiagonal(op)
        if not diag.size:
            return diag
        if upto is not None:
            lo = gershgorin_bounds(op)[0] - 1.0
            vals = eigvalsh_tridiagonal(
                diag, off, select="v", select_range=(lo, upto), lapack_driver="stebz"
            )
            return np.sort(vals)
        vals = eigvalsh_tridiagonal(diag, off)
    else:
        _check_dense_cap(op, "spectrum")
        if op.ndim == 2:
            vals = eig_banded(_banded(op), lower=True, eigvals_only=True)
        else:
            vals = np.linalg.eigvalsh(op.dense())
    vals = np.sort(vals)
    if upto is not None:
        vals = vals[vals <= upto]
    return vals


def ground_energy(op: GridOperator) -> float:
    if op.ndim == 1 and op.boundary == "dirichlet":
        from scipy.linalg import eigvalsh_tridiagonal

        return float(eigvalsh_tridiagonal(*_finite_tridiagonal(op), select="i", select_range=(0, 0))[0])
    return float(spectrum(op)[0])


def heat_trace(op: GridOperator, t: float | np.ndarray, method: str = "dense") -> float | np.ndarray:
    """Tr exp(-t H) of the discrete operator.

    ``t`` is a number or an array of them; an array shares one spectrum and
    returns a float array of its shape, a number returns a ``float``.
    ``dense`` sums over the full spectrum; ``truncated`` takes one window up
    to 40 / min(t) and, for each t, keeps the eigenvalues below 40/t,
    discarding a remainder bounded by :func:`heat_truncation_bound`.
    """
    ts = np.asarray(t, dtype=float)
    flat = ts.ravel()
    bad = flat[~(flat > 0)]
    if bad.size or not flat.size:
        raise ValueError(f"t must be positive, got {float(bad[0]) if bad.size else t}")
    if method == "dense":
        vals = spectrum(op)
        keep = np.full(flat.size, vals.size)
    elif method == "truncated":
        vals = spectrum(op, upto=HEAT_CUT / flat.min())
        keep = np.searchsorted(vals, HEAT_CUT / flat, side="right")
    else:
        raise ValueError(f"unknown method {method!r}")
    traces = np.array([np.sum(np.exp(-s * vals[:k])) for s, k in zip(flat, keep)])
    return float(traces[0]) if ts.ndim == 0 else traces.reshape(ts.shape)


def heat_truncation_bound(op: GridOperator, t: float) -> float:
    """Upper bound on the part of the heat trace discarded by ``truncated``."""
    return op.n * math.exp(-HEAT_CUT)


@dataclass(frozen=True)
class ZetaTrace:
    """Result of a spectral zeta sum: partial sum below the cutoff, the
    power-law tail appended to it, and whether the modeled tail converges."""

    value: float
    partial_sum: float
    tail: float
    converged: bool
    count: int


def zeta_trace(
    op: GridOperator, p: float, e_cut: float = math.inf, growth_exponent: float | None = None
) -> ZetaTrace:
    """Sum of eigenvalue powers mu_k^(-p) over eigenvalues <= e_cut.

    Eigenvalues beyond the cutoff are extrapolated with the growth law
    mu_k ~ c k^q: q is ``growth_exponent``, which a cut needs (for a
    transverse operator with potential of degree beta in one variable it is
    2 beta / (beta + 2)); c is fitted on the top half of the computed
    spectrum.  The modeled tail converges only for p q > 1; otherwise the
    sum is flagged divergent and the value is inf.  The infinite eigenvalues
    of hard-wall nodes add 0 and are never cut.

    A finite cutoff computes only the eigenvalues <= max(e_cut, 0) (a
    bisection window on tridiagonal operators), which still holds every
    nonpositive eigenvalue the positivity check must see.  A partial sum
    that overflows a float is refused.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    vals = spectrum(op, upto=None if math.isinf(e_cut) else max(e_cut, 0.0))
    if vals.size and float(vals[0]) <= 0.0:
        raise ValueError(f"zeta trace requires a positive spectrum; smallest is {vals[0]:.6e}")
    used = vals[vals <= e_cut]
    k = used.size
    with np.errstate(over="ignore"):
        partial = float(np.sum(used ** (-p)))
    if math.isinf(partial):
        raise ValueError(f"zeta trace at p={p!r} overflows a float")
    if k == _finite_nodes(op).size:
        # nothing was cut: the finite matrix is summed completely
        return ZetaTrace(partial, partial, 0.0, True, k)
    if growth_exponent is None:
        raise ValueError(f"e_cut={e_cut} cuts the spectrum; extrapolating needs a growth_exponent")
    if k < 4:
        raise ValueError(f"only {k} eigenvalues below e_cut={e_cut}; cannot extrapolate")
    q = growth_exponent  # c is fitted on the top half, k // 2 + 1 .. k
    log_c = float(np.mean(np.log(used[k // 2 :]) - q * np.log(np.arange(k // 2 + 1, k + 1.0))))
    if p * q <= 1.0:
        return ZetaTrace(math.inf, partial, math.inf, False, k)
    c = math.exp(log_c)
    tail = c ** (-p) * (k + 0.5) ** (1.0 - p * q) / (p * q - 1.0)
    return ZetaTrace(partial + tail, partial, tail, True, k)


def transverse_growth_exponent(beta: float) -> float:
    """Growth law exponent q in mu_k ~ c k^q for -d^2/dy^2 + |y|^beta F (one variable)."""
    return 2.0 * beta / (beta + 2.0)


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


def transverse_zetas(pot: SeparatelyHomogeneous, p: float, box: float, points: int) -> dict[int, float]:
    """Zeta traces of the effective operators at omega = +1 and -1, the factors
    of the partial laws: eigenvalues up to min(100, 0.8 x the Gershgorin top),
    the rest extrapolated with q = 2 beta / (beta + 2); one spectrum when
    both directions see the same potential."""
    q = transverse_growth_exponent(pot.beta)
    out = {}
    for omega in (1, -1):
        if omega == -1 and transverse_potential(pot, -1) == transverse_potential(pot, 1):
            out[-1] = out[1]
            continue
        op = effective_operator(omega, pot, box, points)
        e_cut = min(100.0, 0.8 * gershgorin_bounds(op)[1])
        out[omega] = zeta_trace(op, p, e_cut=e_cut, growth_exponent=q).value
    return out


def longitudinal_potential(pot: SeparatelyHomogeneous, omega_y: int) -> Homogeneous:
    """Potential |x|^alpha F(sign x, omega_y) seen along the other channel."""
    if omega_y not in (1, -1):
        raise ValueError(f"omega_y must be +1 or -1, got {omega_y}")
    return Homogeneous(
        pot.alpha, 1, (pot.profile.at(+1, omega_y), pot.profile.at(-1, omega_y))
    )


def counting_box(pot: Homogeneous, lam_max: float) -> float:
    """Half-width making min V on the boundary at least COUNTING_WALL * lam_max."""
    return _wall_box(pot, COUNTING_WALL * lam_max)


def heat_box(pot: Homogeneous, t: float) -> float:
    """Half-width making min V on the boundary at least HEAT_WALL / t."""
    # 80 * (1/t), not 80/t: the two round differently, and the heat box is defined by this one
    return _wall_box(pot, HEAT_WALL * (1.0 / t))


def _wall_box(pot: Homogeneous, height: float) -> float:
    """Half-width making min V on the boundary at least ``height``."""
    fmin = _profile_min(pot)
    if fmin <= 0.0:
        raise ValueError("profile vanishes somewhere; the boundary rule is vacuous")
    return (height / fmin) ** (1.0 / pot.gamma)


def _profile_min(pot: Homogeneous) -> float:
    if pot.d == 1:
        return min(pot.profile)
    theta = np.linspace(0.0, 2.0 * math.pi, 4097)
    return float(np.min(np.asarray(pot.profile(theta), dtype=float)))


def channel_boxes(pot: SeparatelyHomogeneous, lam_max: float) -> tuple[float, float]:
    """Box half-widths closing both potential channels at energy lam_max.

    The boundary-value rule used for fully homogeneous potentials is vacuous
    here (V vanishes on the axes), so instead the walls are placed where the
    transverse zero-point energy of each channel reaches
    CHANNEL_MARGIN * lam_max: with mu0 the smallest transverse ground energy
    (on the probe grid), scaling gives
    Lx = (CHANNEL_MARGIN lam_max / mu0)^((beta+2)/(2 alpha)) and
    symmetrically for Ly.  States below lam_max are then classically
    confined to the box.
    """
    mu0 = min(
        ground_energy(effective_operator(o, pot, PROBE_BOX, PROBE_POINTS)) for o in (1, -1)
    )
    if mu0 <= 1e-8:
        raise ValueError("transverse channel does not close; box rule inapplicable")
    nu0 = min(
        ground_energy(build_hamiltonian(longitudinal_potential(pot, o), PROBE_BOX, PROBE_POINTS))
        for o in (1, -1)
    )
    if nu0 <= 1e-8:
        raise ValueError("longitudinal channel does not close; box rule inapplicable")
    try:
        lx = (CHANNEL_MARGIN * lam_max / mu0) ** ((pot.beta + 2.0) / (2.0 * pot.alpha))
        ly = (CHANNEL_MARGIN * lam_max / nu0) ** ((pot.alpha + 2.0) / (2.0 * pot.beta))
    except OverflowError:
        raise OverflowError(
            f"channel box for alpha={pot.alpha!r}, beta={pot.beta!r} at lambda={lam_max!r} overflows a float"
        ) from None
    return lx, ly


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
    traces = np.exp(-t * eig_hermitian_stack(wbar)[0]).sum(axis=1)
    return float(bx @ traces * bk.sum()) / m
