"""Finite-difference Schrodinger operators -Laplacian + V with homogeneous
potentials: construction, exact eigenvalue counting, heat and zeta traces,
transverse effective operators, and (from :mod:`semispec._frames`)
discrete coherent-state frames.

Grids are second-order central-difference discretizations on a box with
Dirichlet walls (tridiagonal in 1d, 5-point in 2d) or on a 1d torus.  A grid
operator holds only its potential samples and spacings; every matrix is
built from them on demand, and any dense or banded one only up to
``DENSE_EIG_CAP`` nodes.  Each shape has one array form: a 1d Dirichlet
operator is the chain of its finite-sample nodes (:func:`_chain`), which
every count, spectrum and ground energy reads; a +inf sample is a hard wall
that the chain drops, and no other grid takes one.  A 2d operator is counted
from its samples as block rows (:func:`_block_rows`).  Counting is exact for
the discrete matrix: Sturm sign changes along the chain (one pass over the
nodes for every shift of a sweep) and, in 2d, block-row inertia (one
Bunch-Kaufman factorization per grid row and shift).  Counts and heat
traces take arrays of energies or times and share one Sturm pass or one
spectrum among them.

Dirichlet nodes sit symmetrically about 0 bit for bit, so a mirror-symmetric
potential gives samples equal to their own reversal.  Such an operator
commutes with the reflection and splits exactly into an even and an odd
sector (:func:`_sector_chains`): 1d spectra take one LAPACK call per
sector, 1d counts run the half of the Sturm pass that both sectors share
once, and 2d counts fold mirror rows (the first half of the Schur
complements factored once) and split mirror blocks into halves.  Any
other input takes the unsplit path.  On a 2d pivot breakdown the count
goes down a ladder (:func:`_block_count`): the sectors, all rows forward,
all rows in reverse (unless the rows mirror, when that order factors the
same blocks), the dense spectrum up to ``DENSE_EIG_CAP`` nodes, refusal
beyond it; no other shift is ever counted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._frames import (  # noqa: F401  (public names of this module)
    CoherentWindow,
    coherent_frame_defect,
    coherent_lower_bound,
    coherent_partial_lower_bound,
    delta_window,
    flat_window,
    gaussian_window,
)
from .linalg import HermitianOperator

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
        # V is 0 where F = 0, and in 1d +inf where F = inf and x != 0, however the
        # power rounds.  build_hamiltonian refuses the NaN, and +inf off 1d Dirichlet grids
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


def _banded(op: GridOperator) -> np.ndarray:
    """Symmetric lower-banded storage ``ab[r, j] = A[j + r, j]`` (on the torus, without its corners)."""
    py = op.points[-1]
    ab = np.zeros((2 if op.ndim == 1 else py + 1, op.n))
    ab[0] = _diagonal(op)
    ab[1] = -1.0 / op.spacing[-1] ** 2
    ab[1, py - 1 :: py] = 0.0  # no coupling past the last node, in 2d across x-rows
    if op.ndim == 2:
        ab[py, : op.n - py] = -1.0 / op.spacing[0] ** 2
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
    at ``h (i - (P - 1) / 2)``, those outside the box implicitly zero),
    ``h = 2 L / P`` on the torus (nodes at ``-L + h i``).
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
        # node i at h (i - (P-1)/2), which is -L + h (1 + i) in exact arithmetic; the
        # offsets are exact, so x_i == -x_{P-1-i} and mirror-symmetric potentials give
        # mirror-symmetric samples bit for bit
        axes = [spacing[i] * (np.arange(points[i]) - (points[i] - 1) / 2.0) for i in range(ndim)]
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
    # +inf is a hard wall that the 1d Dirichlet chain drops (_chain); no other grid has such a path
    if (ndim == 2 or boundary == "periodic") and math.isinf(v.max()):
        what, grids = ("overflows to", "2d grids") if ndim == 2 else ("is", "torus grids")
        raise ValueError(
            f"{potential!r} {what} +inf at {np.count_nonzero(np.isinf(v))} of {v.size} "
            f"nodes; {grids} need finite samples"
        )
    if math.isinf(lo):
        raise ValueError(f"{potential!r} is +inf at all {v.size} nodes; a 1d grid needs a finite sample")
    # the Gershgorin top over the finite-sample nodes, max V + sum 4/h^2, must be finite: below
    # it lie every diagonal entry 2/h^2 + V and every mirror sector's d + 1/h^2 that LAPACK sees
    radius = sum(4.0 / h**2 for h in spacing)
    if math.isinf(float(np.max(v, where=v < math.inf, initial=0.0)) + radius):
        with np.errstate(over="ignore"):
            over = np.count_nonzero((v < math.inf) & np.isinf(v + radius))
        raise ValueError(
            f"{potential!r} on spacing {spacing} puts max V + sum 4/h^2 past the float range at "
            f"{over} of {v.size} nodes; grids need a finite Gershgorin top"
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


def _is_mirror(samples: np.ndarray) -> bool:
    """Whether ``samples`` equal their own reversal along the first axis, bit for bit."""
    return bool(np.array_equal(samples, samples[::-1]))


def _sector_chains(diag: np.ndarray, off: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The even and odd sectors of a mirror-symmetric chain; any other chain
    is its own one sector.

    A chain of n >= 2 nodes whose diagonal entries (or rows of them) and
    couplings equal their reversals commutes with the reflection
    i -> n-1-i, so it splits exactly into the vectors with u_i = u_{n-1-i}
    and those with u_i = -u_{n-1-i}.  For n = 2k+1 these are the leading
    k+1 nodes with the last coupling times sqrt(2), and the leading k
    nodes; for n = 2k both are the leading k nodes, with the coupling e
    between nodes k-1 and k added to or subtracted from the last diagonal
    entry.  Both begin with the same (n-1)//2 nodes.
    """
    n, k = len(diag), len(diag) // 2
    if n < 2 or not (_is_mirror(diag) and _is_mirror(off)):
        return [(diag, off)]
    if n % 2:
        return [(diag[: k + 1], np.append(off[: k - 1], math.sqrt(2.0) * off[k - 1])), (diag[:k], off[: k - 1])]
    return [(np.concatenate([diag[: k - 1], [diag[k - 1] + sign * off[k - 1]]]), off[: k - 1]) for sign in (1, -1)]


def _fold(sweep: Callable, diag: np.ndarray, off: np.ndarray, *args) -> int | np.ndarray:
    """Total count of ``sweep`` over the sectors of a chain (:func:`_sector_chains`).

    ``sweep(diag, off, start, stop, state, *args)`` counts nodes start..stop-1
    of a chain, continuing from the state its recursion left at node start-1
    (None before node 0), and returns the count and the state at its last
    node.  The (n-1)//2 nodes that both sectors of a mirror chain share run
    once and count twice; each sector then finishes from their state.
    """
    chains = _sector_chains(diag, off)
    p = (len(diag) - 1) // 2 if len(chains) > 1 else 0
    shared, state = sweep(diag, off, 0, p, None, *args)
    return 2 * shared + sum(sweep(d, o, p, len(d), state, *args)[0] for d, o in chains)


def _sturm_pass(diag: np.ndarray, off: np.ndarray, start: int, stop: int, q, shifts: np.ndarray) -> tuple:
    """Negative Sturm terms of (T - s I) at nodes start..stop-1 of the
    tridiagonal T for every shift s at once, from the terms q at node start-1
    (None before node 0), and the terms at the last node.

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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(start, stop, _STURM_BLOCK):
            prev = q  # the term before this block
            for replace_zeros in (False, True):
                rows = diag[lo : min(lo + _STURM_BLOCK, stop), None] - shifts
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
            count += np.count_nonzero(rows < 0.0, axis=0)
    return count, q


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


def _block_rows(op: GridOperator) -> tuple[np.ndarray, float, float]:
    """Samples of a 2d operator as block rows along its longer axis, with the
    spacing across rows and the spacing within a row."""
    hx, hy = op.spacing
    v = op.potential.reshape(op.points)
    if v.shape[1] > v.shape[0]:
        return v.T, hy, hx
    return v, hx, hy


def _block_negcount(rows: np.ndarray, hx: float, hy: float, shift: float, fold: bool = False) -> int:
    """Eigenvalues below ``shift`` of the 2d Dirichlet operator with samples in block
    ``rows`` (spacing ``hx`` across them, ``hy`` within one), by block-row inertia.

    The 5-point operator is block tridiagonal with coupling blocks
    -(1/hx^2) I, so Haynsworth's inertia additivity gives
    nu_-(A - s) = sum_i nu_-(D_i), D_i = A_ii - s - hx^-4 D_{i-1}^-1
    (:func:`_schur_rows`), in whatever order the rows come.  ``fold``
    counts the mirror sectors (:func:`_sector_chains`) that the samples
    allow: blocks whose samples mirror split, with every D_i, into two
    recursions on blocks of ceil(m/2) and floor(m/2) nodes, and rows that
    mirror one another fold (:func:`_fold`), so the first (P-1)//2 Schur
    complements are factored once and counted twice.
    """
    centre = 2.0 / hx**2 + 2.0 / hy**2
    ptol = 1e-12 * (centre + float(rows.max()) + abs(shift) + 1.0)
    m = rows.shape[1]
    diag, off = np.full(m, centre - shift), np.full(m - 1, -1.0 / hy**2)
    rows_off = np.full(len(rows) - 1, -1.0 / hx**2)
    neg = 0
    for d, o in _sector_chains(diag, off) if fold and _is_mirror(rows.T) else [(diag, off)]:
        # lower triangle of A_ii - s - V_i in one sector; LAPACK reads no other
        fixed = np.zeros((d.size, d.size), order="F")
        idx = np.arange(d.size)
        fixed[idx[1:], idx[:-1]] = o
        np.fill_diagonal(fixed, d)
        vals = rows[:, : d.size]
        if fold:
            neg += _fold(_schur_rows, vals, rows_off, fixed, ptol)
        else:
            neg += _schur_rows(vals, rows_off, 0, len(rows), None, fixed, ptol)[0]
    return neg


def _schur_rows(
    rows: np.ndarray, off: np.ndarray, start: int, stop: int, inv, fixed: np.ndarray, ptol: float
) -> tuple:
    """Negative eigenvalues of D_i = fixed + diag(rows[i]) - off[i-1]^2 D_{i-1}^-1
    for rows start..stop-1, from ``inv`` = D_{start-1}^-1 (None: 0), and the
    lower triangle of the last inverse.

    Each D_i is factorized by Bunch-Kaufman (``dsytrf``), its inertia read
    off the pivots (:func:`_pivot_inertia`), and inverted from the factors
    (``dsytri``).  A pivot eigenvalue within ``ptol`` of zero raises
    :class:`_PivotBreakdown`.
    """
    from scipy.linalg import lapack

    m = fixed.shape[0]
    block = np.empty((m, m), order="F")
    inv = np.zeros((m, m), order="F") if inv is None else inv
    neg = 0
    for row in range(start, stop):
        np.multiply(inv, -off[row - 1] ** 2, out=block)
        block += fixed
        block.flat[:: m + 1] += rows[row]
        ldu, ipiv, _ = lapack.dsytrf(block, lower=1, overwrite_a=1)
        row_neg, smallest = _pivot_inertia(ldu, ipiv)
        if smallest <= ptol:
            raise _PivotBreakdown(f"pivot eigenvalue {smallest:.3e} in block row {row}")
        neg += row_neg
        inv, _ = lapack.dsytri(ldu, ipiv, lower=1, overwrite_a=1)
    return neg, inv


def _block_count(op: GridOperator, shift: float) -> int:
    """Block-row count of a 2d Dirichlet operator, down a ladder that counts
    only at ``shift``: the mirror sectors, when the samples mirror along
    either axis; all rows forward; all rows in reverse, unless the rows
    mirror one another (then the reverse order factors the same blocks);
    the dense spectrum up to ``DENSE_EIG_CAP`` nodes; otherwise refused."""
    rows, hx, hy = _block_rows(op)
    mirror_rows = _is_mirror(rows)
    folded = mirror_rows or _is_mirror(rows.T)
    for order, fold in [(rows, True)] * folded + [(rows, False)] + [(rows[::-1], False)] * (not mirror_rows):
        try:
            return _block_negcount(order, hx, hy, shift, fold)
        except _PivotBreakdown as exc:
            breakdown = exc
    if op.n > DENSE_EIG_CAP:
        orders = "its one row order" if mirror_rows else "both row orders"
        raise RuntimeError(
            f"block factorization at shift {shift!r} broke down in {'its mirror sectors and ' * folded}{orders} "
            f"({breakdown}) and {op.n} nodes exceed the dense fallback cap {DENSE_EIG_CAP}"
        )
    return int(np.searchsorted(spectrum(op), shift, side="left"))


def _count_below(op: GridOperator, shifts: np.ndarray) -> np.ndarray:
    """Exact counts of eigenvalues strictly below each of ``shifts`` (1d array).

    1d Dirichlet operators take one Sturm pass over their chain for all
    shifts, the torus one spectrum; 2d operators are counted shift by shift.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if op.boundary == "periodic":
        return np.searchsorted(spectrum(op), shifts, side="left")
    if op.ndim == 1:
        return _fold(_sturm_pass, *_chain(op), shifts)
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


def _chain(op: GridOperator) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and couplings of a 1d Dirichlet operator over its finite-sample nodes.
    A +inf sample is a hard wall, decoupled with eigenvalue +inf, which adds
    nothing to a count, heat or zeta sum; kept neighbours stay coupled only
    where no dropped node lay between them."""
    idx = np.flatnonzero(np.isfinite(op.potential))
    return _diagonal(op)[idx], np.where(np.diff(idx) == 1, -1.0 / op.spacing[0] ** 2, 0.0)


def _sector_windows(op: GridOperator, lo: float | int, hi: float | int) -> list[np.ndarray]:
    """One LAPACK bisection (:func:`semispec._lapack.stebz`) per sector of the
    chain of a 1d Dirichlet operator (:func:`_sector_chains`): the eigenvalues
    in (lo, hi], or, for integer lo and hi, those of 1-based indices lo..hi.
    The second sector of a mirror chain runs on a worker thread while this one
    solves the first."""
    from . import _lapack

    return _lapack.concurrently([partial(_lapack.stebz, d, o, lo, hi) for d, o in _sector_chains(*_chain(op))])


def spectrum(op: GridOperator, upto: float | None = None) -> np.ndarray:
    """Eigenvalues of the discrete operator, ascending; optionally only those <= upto.

    1d Dirichlet operators solve their chain (:func:`_chain`), so the
    infinite eigenvalues of hard-wall nodes are left out.  The windowed
    form is one LAPACK bisection per sector (:func:`_sector_windows`); the
    two sectors of a mirror chain are solved at once, with the GIL
    released, and every eigenvalue is bit for bit the one scipy's serial
    ``stebz`` call gives.  Other shapes go through a dense or banded
    solver, guarded by ``DENSE_EIG_CAP``.
    """
    from scipy.linalg import eig_banded, eigvalsh_tridiagonal

    if op.ndim == 1 and op.boundary == "dirichlet":
        if upto is not None:
            lo = gershgorin_bounds(op)[0] - 1.0
            if not upto > lo:  # every eigenvalue lies above lo; LAPACK refuses an empty interval
                return np.empty(0)
            return np.sort(np.concatenate(_sector_windows(op, lo, upto)))
        vals = np.concatenate([eigvalsh_tridiagonal(d, o) for d, o in _sector_chains(*_chain(op))])
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
    """Lowest eigenvalue of the discrete operator.  A 1d Dirichlet operator
    takes the lowest eigenvalue of each sector (:func:`_sector_windows` at
    indices 1..1), bit for bit scipy's serial ``stebz`` one; other shapes
    the bottom of :func:`spectrum`."""
    if op.ndim == 1 and op.boundary == "dirichlet":
        return min(float(vals[0]) for vals in _sector_windows(op, 1, 1))
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
    bad = flat[~((flat > 0) & (flat < math.inf))]
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
    # H >= 0 (V >= 0), so an eigenvalue below 0 is LAPACK round-off; exp(-t mu) would overflow at a huge t
    vals = np.maximum(vals, 0.0)
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
    if k == np.count_nonzero(np.isfinite(op.potential)):
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


def _channel_potentials(pot: SeparatelyHomogeneous, axis: int) -> dict[int, Homogeneous]:
    """The 1d slices of the potential at omega = +1 and -1 along the channel of
    ``axis``: |y|^beta F(omega, sign y) along x (axis 0), |x|^alpha F(sign x, omega)
    along y (axis 1)."""
    p = pot.profile
    if axis == 0:
        return {1: Homogeneous(pot.beta, 1, (p.pp, p.pm)), -1: Homogeneous(pot.beta, 1, (p.mp, p.mm))}
    return {1: Homogeneous(pot.alpha, 1, (p.pp, p.mp)), -1: Homogeneous(pot.alpha, 1, (p.pm, p.mm))}


def _check_closed(pot: SeparatelyHomogeneous) -> None:
    """Refuse a profile with a zero quadrant value: V = 0 on that open quadrant,
    so the spectrum is not discrete and no channel closes."""
    p = pot.profile
    signs = {"+1,+1": p.pp, "+1,-1": p.pm, "-1,+1": p.mp, "-1,-1": p.mm}
    zero = [f"F({s})" for s, v in signs.items() if v == 0]
    if zero:
        where = "that open quadrant" if len(zero) == 1 else "those open quadrants"
        raise ValueError(
            f"{' = '.join(zero)} = 0: V vanishes on {where} of (sign x, sign y), "
            "so the spectrum is not discrete and no channel closes"
        )


def transverse_zetas(pot: SeparatelyHomogeneous, p: float, box: float, points: int) -> dict[int, float]:
    """Zeta traces of the effective operators at omega = +1 and -1, the factors
    of the partial laws: eigenvalues up to min(100, 0.8 x the Gershgorin top),
    the rest extrapolated with q = 2 beta / (beta + 2); one spectrum per
    distinct transverse potential.  A profile that vanishes on a quadrant is
    refused."""
    _check_closed(pot)
    q = transverse_growth_exponent(pot.beta)
    out, zetas = {}, {}
    for omega, v in _channel_potentials(pot, 0).items():
        if v not in zetas:
            op = build_hamiltonian(v, box, points)
            e_cut = min(100.0, 0.8 * gershgorin_bounds(op)[1])
            zetas[v] = zeta_trace(op, p, e_cut=e_cut, growth_exponent=q).value
        out[omega] = zetas[v]
    return out


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
    box = (height / fmin) ** (1.0 / pot.gamma)
    if not box > 0.0:  # an infinite profile minimum, or a power that underflows
        profile = pot.profile if pot.d == 1 else f"with minimum {fmin!r}"
        raise ValueError(
            f"profile {profile} at gamma={pot.gamma!r} leaves no box: the half-width "
            f"at which V reaches {height!r} on the boundary is {box!r}"
        )
    return box


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
    CHANNEL_MARGIN * lam_max: with mu0 the smallest ground energy of the
    slices across the x channel (on the probe grid, one solve per distinct
    slice), scaling gives
    Lx = (CHANNEL_MARGIN lam_max / mu0)^((beta+2)/(2 alpha)) and
    symmetrically for Ly with nu0.  States below lam_max are then classically
    confined to the box.  Both channels close exactly when every quadrant
    value of F is positive; a profile that vanishes on a quadrant is refused.
    """
    _check_closed(pot)
    mu0, nu0 = (
        min(ground_energy(build_hamiltonian(v, PROBE_BOX, PROBE_POINTS)) for v in set(slices.values()))
        for slices in (_channel_potentials(pot, 0), _channel_potentials(pot, 1))
    )
    try:
        lx = (CHANNEL_MARGIN * lam_max / mu0) ** ((pot.beta + 2.0) / (2.0 * pot.alpha))
        ly = (CHANNEL_MARGIN * lam_max / nu0) ** ((pot.alpha + 2.0) / (2.0 * pot.beta))
    except OverflowError:
        raise OverflowError(
            f"channel box for alpha={pot.alpha!r}, beta={pot.beta!r} at lambda={lam_max!r} overflows a float"
        ) from None
    return lx, ly
