"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths wherever a result is
being cross-checked: the characteristic polynomial is built by the
Faddeev-LeVerrier recursion and bisected directly, and the double-Jensen
chain below re-derives the partial-trace inequality one basis vector at a
time, sharing nothing with the library beyond raw eigendecompositions.
The 1d count is checked against the scalar Sturm recursion, one shift at a
time (for a mirror-symmetric chain, on each of its two sectors built from
their definition), and the 1d windowed spectra and ground energies, which
solve the two sectors on two threads, against scipy's serial ``stebz``
calls on those sectors, and the 2d count against a node-by-node scalar LDL^T of the banded
matrix, independent of the library's block-row factorization, and the
Gershgorin interval against a loop over the lower bands; the library's
pivot-sign read of a Bunch-Kaufman factorization is checked
against locating every 2x2 pivot block.  Windowed zeta traces are checked
against sums over the full spectrum.  The
closed-form coherent-frame bounds are checked against literal sums over all
M^2 frame states.  ``semispec ineq``, which evaluates its trials in blocks
on stacked eigendecompositions, is checked against a trial-by-trial loop
over the public ``*_sides`` functions.  The box rules are audited by
recounting on a doubled box at the same spacing.  The phase-space
quadrature, which counts on its momentum and potential parts separately, is
checked against the same quadrature on one array holding the whole grid.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from scipy.linalg import eigvalsh_tridiagonal

from semispec import bipartite, inequalities
from semispec.inequalities import sliced_hamiltonian
from semispec.linalg import HermitianOperator
from semispec.schrodinger import HEAT_CUT, CoherentWindow, GridOperator, _profile_min, build_hamiltonian, counting_function


def char_poly_coeffs(mat: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A), highest power first (Faddeev-LeVerrier)."""
    n = mat.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    aux = np.eye(n, dtype=mat.dtype)
    for k in range(1, n + 1):
        aux = mat @ aux
        ck = -np.trace(aux).real / k
        coeffs[k] = ck
        aux = aux + ck * np.eye(n, dtype=mat.dtype)
    return coeffs


def eigenvalues_by_bisection(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix as bisected roots of its
    characteristic polynomial; assumes simple roots (true a.s. for random input)."""
    coeffs = char_poly_coeffs(mat)
    radius = float(np.max(np.sum(np.abs(mat), axis=1))) + 1.0
    xs = np.linspace(-radius, radius, 20001)
    vals = np.polyval(coeffs, xs)
    roots = []
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = np.polyval(coeffs, m)
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return np.array(sorted(roots))


def double_jensen_chain(h_mat: np.ndarray, rho_mat: np.ndarray, dim1: int, dim2: int, f):
    """Re-derivation of the partial-trace Jensen inequality, term by term.

    Returns a dict with the per-basis-vector chain terms

        a_n = f(kappa_n)                      (diagonal of f at K's spectrum)
        b_n = sum_m w_m f(<u_m v_n|H|u_m v_n>)
        c_n = sum_m w_m <u_m v_n|f(H)|u_m v_n>

    where K is rebuilt from scratch via K[n,n'] = sum_m w_m
    <u_m e_n|H|u_m e_n'>, (w_m, u_m) is the eigensystem of rho and v_n the
    eigenbasis of K.  The two Jensen steps assert a_n <= b_n and
    b_n <= c_n (the latter holds per (m, n) term); summing gives
    LHS = sum a_n <= sum c_n = RHS.
    """
    w, u = np.linalg.eigh(rho_mat)
    energies, basis = np.linalg.eigh(h_mat)
    four = h_mat.reshape(dim1, dim2, dim1, dim2)
    f_four = ((basis * f(energies)) @ basis.conj().T).reshape(dim1, dim2, dim1, dim2)

    k_mat = np.einsum("am,anbq,bm,m->nq", u.conj(), four, u, w, optimize=True)
    k_mat = 0.5 * (k_mat + k_mat.conj().T)
    kappa, v = np.linalg.eigh(k_mat)

    # expectations over every product vector u_m (x) v_n
    h_exp = np.real(
        np.einsum("am,in,aibj,bm,jn->mn", u.conj(), v.conj(), four, u, v, optimize=True)
    )
    fh_exp = np.real(
        np.einsum("am,in,aibj,bm,jn->mn", u.conj(), v.conj(), f_four, u, v, optimize=True)
    )

    a = np.asarray(f(kappa), dtype=float)
    f_h_exp = np.asarray(f(h_exp), dtype=float)
    b = w @ f_h_exp
    c = w @ fh_exp
    return {
        "a": a,
        "b": b,
        "c": c,
        "per_term_lhs": f_h_exp,  # f(<psi|H|psi>) per (m, n)
        "per_term_rhs": fh_exp,  # <psi|f(H)|psi> per (m, n)
        "weights": w,
        "lhs": float(np.sum(a)),
        "rhs": float(np.sum(c)),
    }


def dirichlet_laplacian_eigenvalues(points: int, spacing: float) -> np.ndarray:
    """Closed-form spectrum of the 1d Dirichlet finite-difference Laplacian."""
    k = np.arange(1, points + 1)
    return (2.0 - 2.0 * np.cos(k * np.pi / (points + 1))) / spacing**2


def matrix_function(mat: np.ndarray, f) -> np.ndarray:
    """f(A) = U f(Lambda) U* for a Hermitian matrix, from a raw eigh."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * f(vals)) @ vecs.conj().T


def compress_by_sandwich(h_mat: np.ndarray, rho_mat: np.ndarray, dim1: int, dim2: int) -> np.ndarray:
    """The literal compression Tr_1[(rho^(1/2) (x) 1) H (rho^(1/2) (x) 1)].

    rho^(1/2) is built from a raw eigh with round-off-negative eigenvalues
    clamped to zero, and the sandwich is formed with a dense Kronecker product.
    """
    root = matrix_function(rho_mat, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    big = np.kron(root, np.eye(dim2))
    sandwiched = (big @ h_mat @ big).reshape(dim1, dim2, dim1, dim2)
    k_mat = np.einsum("anaq->nq", sandwiched)
    return 0.5 * (k_mat + k_mat.conj().T)


def partial_jensen_sides_by_matrices(h_mat, rho_mat, dim1: int, dim2: int, fmat):
    """Tr f(K) and Tr[rho . Tr_2 f(H)] with f applied as the matrix function ``fmat``."""
    k_mat = compress_by_sandwich(h_mat, rho_mat, dim1, dim2)
    lhs = float(np.real(np.trace(fmat(k_mat))))
    reduced = np.einsum("anqn->aq", fmat(h_mat).reshape(dim1, dim2, dim1, dim2))
    rhs = float(np.real(np.trace(rho_mat @ reduced)))
    return lhs, rhs


def sturm_negcount(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Sign changes of the Sturm sequence of (T - shift I): eigenvalues below shift.

    One shift at a time, scalar by scalar; the library runs the same
    recursion for all shifts at once.
    """
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


def mirror_sectors(diag: np.ndarray, off: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The even and odd sector chains of a mirror-symmetric tridiagonal
    (diagonal and couplings equal to their reversals, n >= 2 nodes).

    n = 2k+1: the even sector is the leading k+1 nodes with the coupling
    into node k times sqrt(2), the odd sector the leading k nodes.
    n = 2k: both are the leading k nodes, with e_{k-1} added to and
    subtracted from the last diagonal entry.
    """
    n = diag.size
    k = n // 2
    if n % 2:
        even_off = off[:k].copy()
        even_off[k - 1] *= math.sqrt(2.0)
        return [(diag[: k + 1], even_off), (diag[:k], off[: k - 1])]
    return [(np.append(diag[: k - 1], diag[k - 1] + s * off[k - 1]), off[: k - 1]) for s in (1, -1)]


def mirror_sturm_negcount(diag: np.ndarray, off: np.ndarray, shift: float) -> int:
    """Sturm count of a mirror-symmetric tridiagonal as the sum of its even
    and odd sectors' (:func:`mirror_sectors`) one-shift counts."""
    return sum(sturm_negcount(d, o, shift) for d, o in mirror_sectors(diag, off))


def _chain_sectors(op: GridOperator) -> list[tuple[np.ndarray, np.ndarray]]:
    """The finite-sample chain of a 1d Dirichlet operator, from its definition
    (a +inf sample is a dropped node, and kept neighbours stay coupled only
    where none was dropped between them), split into its mirror sectors
    when the chain mirrors."""
    (h,) = op.spacing
    keep = np.flatnonzero(np.isfinite(op.potential))
    diag = 2.0 / h**2 + op.potential[keep]
    off = np.where(np.diff(keep) == 1, -1.0 / h**2, 0.0)
    if diag.size >= 2 and np.array_equal(diag, diag[::-1]) and np.array_equal(off, off[::-1]):
        return mirror_sectors(diag, off)
    return [(diag, off)]


def window_by_serial_stebz(op: GridOperator, lo: float, upto: float) -> np.ndarray:
    """Eigenvalues in (lo, upto] of a 1d Dirichlet operator, ascending: one
    serial scipy ``eigvalsh_tridiagonal(select="v", lapack_driver="stebz")``
    call per sector of its chain."""
    window = dict(select="v", select_range=(lo, upto), lapack_driver="stebz")
    return np.sort(np.concatenate([eigvalsh_tridiagonal(d, o, **window) for d, o in _chain_sectors(op)]))


def ground_energy_by_serial_stebz(op: GridOperator) -> float:
    """Lowest eigenvalue of a 1d Dirichlet operator: the smallest of one
    serial scipy ``stebz`` call for the lowest eigenvalue per sector."""
    return min(float(eigvalsh_tridiagonal(d, o, select="i", select_range=(0, 0))[0]) for d, o in _chain_sectors(op))


def dirichlet_bands(op: GridOperator) -> np.ndarray:
    """Symmetric lower-banded storage (``bands[r, j] = A[j + r, j]``) of a
    Dirichlet grid operator, assembled from its samples and spacings: two
    rows in 1d, Py + 1 in 2d."""
    if op.boundary != "dirichlet":
        raise ValueError("banded storage is for Dirichlet grids")
    n = op.n
    if op.ndim == 1:
        (h,) = op.spacing
        bands = np.zeros((2, n))
        bands[0] = 2.0 / h**2 + op.potential
        bands[1, :-1] = -1.0 / h**2
        return bands
    hx, hy = op.spacing
    py = op.points[1]
    bands = np.zeros((py + 1, n))
    bands[0] = 2.0 / hx**2 + 2.0 / hy**2 + op.potential
    bands[1] = np.where(np.arange(n) % py < py - 1, -1.0 / hy**2, 0.0)  # no y-coupling across x-rows
    bands[py, : n - py] = -1.0 / hx**2
    return bands


def lower_bands(mat: np.ndarray) -> np.ndarray:
    """All n diagonals of a symmetric matrix in lower-banded storage."""
    n = mat.shape[0]
    bands = np.zeros((n, n))
    for r in range(n):
        bands[r, : n - r] = np.diagonal(mat, -r)
    return bands


def gershgorin_by_bands(bands: np.ndarray) -> tuple[float, float]:
    """Gershgorin interval by a loop over the lower bands, each entry added
    to the radius of its row and of its mirror's row."""
    n = bands.shape[1]
    radius = np.zeros(n)
    for r in range(1, bands.shape[0]):
        vals = np.abs(bands[r, : n - r])
        radius[: n - r] += vals  # entry below the diagonal
        radius[r:] += vals  # its mirror above
    diag = bands[0]
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def banded_negcount(bands: np.ndarray, shift: float, pivot_rtol: float = 1e-12) -> int:
    """Negative pivots of the unpivoted scalar LDL^T factorization of (A - shift I).

    ``bands`` is symmetric lower-banded storage (``bands[r, j] = A[j + r, j]``).

    A sliding (bw+1) x (bw+1) window holds the running Schur complement, so
    the cost is O(n bw^2) and no pivoting is performed; a pivot within
    ``pivot_rtol`` (relative) of zero raises ``ArithmeticError``.
    """
    bw = bands.shape[0] - 1
    n = bands.shape[1]
    ptol = pivot_rtol * (float(np.abs(bands).max(initial=0.0)) + abs(shift) + 1.0)
    if bw == 0:
        d = bands[0] - shift
        if np.any(np.abs(d) <= ptol):
            raise ArithmeticError(f"near-zero pivot {float(np.abs(d).min()):.3e}")
        return int(np.count_nonzero(d < 0.0))

    m = bw + 1
    padded = np.zeros((m, n + m))
    padded[:, :n] = bands
    padded[0, :n] -= shift
    padded[0, n:] = 1.0  # inert filler columns keep the window full-size

    window = np.zeros((m, m))
    for c in range(m):
        window[c:, c] = padded[: m - c, c]
    window += np.tril(window, -1).T

    spare = np.empty((m, m))
    outer = np.empty((bw, bw))
    gather_rows = bw - np.arange(bw)
    neg = 0
    for j in range(n):
        d = window[0, 0]
        if abs(d) <= ptol:
            raise ArithmeticError(f"near-zero pivot {d:.3e} at column {j}")
        if d < 0.0:
            neg += 1
        v = window[1:, 0] / d
        np.multiply.outer(v, v, out=outer)
        outer *= d
        np.subtract(window[1:, 1:], outer, out=spare[:bw, :bw])
        new_col = padded[gather_rows, j + 1 + np.arange(bw)]
        spare[bw, :bw] = new_col
        spare[:bw, bw] = new_col
        spare[bw, bw] = padded[0, j + m]
        window, spare = spare, window
    return neg


def bunch_kaufman_inertia(ldu: np.ndarray, ipiv: np.ndarray) -> tuple[int, float, np.ndarray]:
    """Negative eigenvalues of a ``dsytrf`` (lower) factored symmetric matrix
    with every 2x2 pivot block located, whatever the pivots.

    Returns the count, the smallest pivot eigenvalue magnitude and the
    smaller eigenvalue magnitude of each 2x2 block.  ``ipiv > 0`` marks a
    1x1 pivot; runs of ``ipiv < 0`` hold 2x2 pivots, paired from the start of
    each run, each with det < 0 (Bunch-Kaufman) and so exactly one negative
    eigenvalue.
    """
    d, two = ldu.diagonal(), ipiv < 0
    idx = np.arange(d.size)
    run_start = np.maximum.accumulate(np.where(two & ~np.r_[False, two[:-1]], idx, 0))
    first = np.flatnonzero(two & ((idx - run_start) % 2 == 0))
    a, b, c = d[first], ldu[first + 1, first], d[first + 1]
    # the smaller eigenvalue magnitude of [[a, b], [b, c]] is |det| / the larger one
    small2 = np.abs(a * c - b * b) / (0.5 * np.abs(a + c) + np.hypot(0.5 * (a - c), b))
    smallest = min(np.abs(d[~two]).min(initial=np.inf), small2.min(initial=np.inf))
    return int(np.count_nonzero(d[~two] < 0.0)) + first.size, float(smallest), small2


def zeta_by_full_spectrum(diag: np.ndarray, off: np.ndarray, p: float, e_cut: float, q: float):
    """(value, partial sum, tail, count) of the tridiagonal's zeta trace from
    its whole spectrum, cut at e_cut, with the growth-law tail c k^q fitted
    on the top half of the kept eigenvalues."""
    vals = np.sort(eigvalsh_tridiagonal(diag, off))
    used = vals[vals <= e_cut]
    k = used.size
    partial = float(np.sum(used ** (-p)))
    if k == vals.size:
        return partial, partial, 0.0, k
    ks = np.arange(1, k + 1, dtype=float)
    top = slice(k // 2, k)
    c = math.exp(float(np.mean(np.log(used[top]) - q * np.log(ks[top]))))
    tail = c ** (-p) * (k + 0.5) ** (1.0 - p * q) / (p * q - 1.0)
    return partial + tail, partial, tail, k


def box_doubling_change(pot, lam: float, box, points) -> float:
    """Relative change of N(lam) when the box is doubled at fixed spacing."""
    box, points = np.atleast_1d(box), np.atleast_1d(points)
    base = counting_function(build_hamiltonian(pot, tuple(box), tuple(points)), lam)
    doubled = counting_function(build_hamiltonian(pot, tuple(2.0 * box), tuple(2 * points + 1)), lam)
    if base == 0:
        return float(doubled != 0)
    return abs(doubled - base) / base


def phase_space_quadrature_dense(pot, lam: float | None, t: float | None, nodes: int) -> tuple[float, float]:
    """The phase-space midpoint quadrature on one array holding the whole
    grid: the counting volume with the straddling-cell estimate, or the heat
    integral with its truncation bound, as the library's separable form returns."""
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
        symbol = xi[:, None] ** 2 + pot.value(x)[None, :]
        cell = hx * hxi / (2.0 * math.pi)
    else:
        v = pot.value(x[:, None], x[None, :])
        kinetic = xi[:, None] ** 2 + xi[None, :] ** 2
        symbol = kinetic[:, :, None, None] + v[None, None, :, :]
        cell = (hx * hxi) ** 2 / (2.0 * math.pi) ** 2
    if lam is None:
        return float(np.sum(np.exp(-t * symbol))) * cell, math.exp(-HEAT_CUT) * symbol.size * cell
    mask = symbol < lam
    crossings = 0
    for ax in range(mask.ndim):
        a = np.swapaxes(mask, 0, ax)
        crossings += int(np.count_nonzero(a[1:] != a[:-1]))
    return float(np.count_nonzero(mask)) * cell, crossings * cell


def _phase_matrix(m: int) -> np.ndarray:
    j = np.arange(m)
    return np.exp(2j * math.pi * np.outer(j, j) / m)


def coherent_frame_defect_by_sum(window: CoherentWindow) -> float:
    """Frobenius distance of the averaged frame projector sum from the identity.

    The frame runs over all M positions and M discrete momenta,
    psi[j] = exp(2 pi i k j / M) g(j - x); for a normalized window the frame
    is exactly tight, so the defect is pure round-off.
    """
    g = window.values
    m = g.size
    phases = _phase_matrix(m)
    acc = np.zeros((m, m), dtype=np.complex128)
    for x in range(m):
        block = np.roll(g, x)[:, None] * phases
        acc += block @ block.conj().T
    acc /= m
    acc[np.diag_indices(m)] -= 1.0
    return float(np.linalg.norm(acc))


def coherent_lower_bound_by_sum(op: GridOperator, t: float, window: CoherentWindow) -> float:
    """Phase-space sum (1/M) sum exp(-t <psi|H|psi>) over the coherent frame.

    A lower bound for the heat trace of the torus operator: Jensen applied
    inside each frame state, summed with frame tightness.
    """
    if not (isinstance(op, GridOperator) and op.boundary == "periodic" and op.ndim == 1):
        raise ValueError("coherent_lower_bound needs a 1d periodic grid operator")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    g = window.values
    m = g.size
    if m != op.n:
        raise ValueError(f"window size {m} does not match operator size {op.n}")
    h = op.dense()
    phases = _phase_matrix(m)
    total = 0.0
    for x in range(m):
        block = np.roll(g, x)[:, None] * phases
        expect = np.real(np.einsum("jm,jm->m", block.conj(), h @ block))
        total += float(np.sum(np.exp(-t * expect)))
    return total / m


def coherent_partial_lower_bound_by_sum(
    t_op: GridOperator,
    blocks: Sequence[HermitianOperator],
    t: float,
    window: CoherentWindow,
) -> float:
    """Partial-trace version of the coherent lower bound.

    For H = T (x) 1 + blockdiag(W_m) with T the torus operator, returns
    (1/M) sum over frame states of Tr exp(-t K), where K is the compression
    of H by the frame state; by the partial-trace Jensen inequality and
    frame tightness this never exceeds Tr exp(-t H).
    """
    if not (isinstance(t_op, GridOperator) and t_op.boundary == "periodic" and t_op.ndim == 1):
        raise ValueError("coherent_partial_lower_bound needs a 1d periodic grid operator")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    g = window.values
    m = g.size
    if m != t_op.n:
        raise ValueError(f"window size {m} does not match operator size {t_op.n}")
    h = sliced_hamiltonian(t_op.hermitian(), blocks)
    sub = blocks[0].dim
    four = h.mat.reshape(m, sub, m, sub)
    phases = _phase_matrix(m)
    total = 0.0
    for x in range(m):
        block = np.roll(g, x)[:, None] * phases
        compressed = np.einsum("am,aibj,bm->mij", block.conj(), four, block, optimize=True)
        compressed = 0.5 * (compressed + np.conj(np.transpose(compressed, (0, 2, 1))))
        vals = np.linalg.eigvalsh(compressed)
        total += float(np.sum(np.exp(-t * vals)))
    return total / m


def ineq_by_trials(args) -> tuple[str, str | None]:
    """``semispec ineq`` one trial and one function at a time, through the public ``*_sides``.

    ``args`` are the parsed ``ineq`` flags.  Returns the JSON lines and the
    ``--dump`` text (None without ``--dump``); the dump holds the first
    partial-trace operator, in trial and function order, with the smallest
    normalized gap.  Raises what the library raises.
    """
    max_m, max_n = args.dims
    top = max_m * max_n  # largest dimension of the unsplit suites
    functions = args.functions
    summaries = []
    worst = (math.inf, None, None)  # smallest normalized gap, operator, dims

    def record(rows, gap, rhs, op=None, dims=None):
        nonlocal worst
        rows.append((gap, rhs))
        norm = gap / (1.0 + abs(rhs))
        if op is not None and norm < worst[0]:
            worst = (norm, op, dims)

    loaded = loaded_dims = None
    if args.load:
        with open(args.load) as fh:
            loaded, loaded_dims = bipartite.parse_bipartite_operator(fh.read())

    suites = ["jensen_scalar", "jensen_partial_trace", "golden_thompson", "sliced_gt", "gibbs"]
    for suite_idx, suite in enumerate(suites):
        rows = []
        for trial in range(args.trials):
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(suite_idx, trial)))
            if suite == "jensen_scalar":
                dim = loaded.dim if loaded is not None else int(rng.integers(min(2, top), top + 1))
                op = loaded if loaded is not None else bipartite.random_hermitian(dim, rng)
                psi = bipartite.random_unit_vector(op.dim, rng)
                for f in functions:
                    lhs, rhs = inequalities.jensen_scalar_sides(op, psi, f)
                    record(rows, rhs - lhs, rhs)
            elif suite == "jensen_partial_trace":
                if loaded is not None:
                    op, dims = loaded, loaded_dims
                else:
                    dims = bipartite.BipartiteDims(
                        int(rng.integers(1, max_m + 1)), int(rng.integers(1, max_n + 1))
                    )
                    op = bipartite.random_hermitian(dims.total, rng)
                rho = bipartite.random_density(dims.dim1, int(rng.integers(1, dims.dim1 + 1)), rng)
                for f in functions:
                    lhs, rhs = inequalities.jensen_partial_trace_sides(op, rho, dims, f)
                    record(rows, rhs - lhs, rhs, op, dims)
            elif suite == "golden_thompson":
                dim = int(rng.integers(min(2, top), top + 1))
                a = bipartite.random_hermitian(dim, rng)
                b = bipartite.random_hermitian(dim, rng)
                lhs, rhs = inequalities.golden_thompson_sides(a, b)
                record(rows, rhs - lhs, rhs)
            elif suite == "sliced_gt":
                m = int(rng.integers(min(2, max_m), max_m + 1))
                n = int(rng.integers(1, max_n + 1))
                t_op = bipartite.random_hermitian(m, rng)
                blocks = [bipartite.random_hermitian(n, rng) for _ in range(m)]
                lhs, rhs = inequalities.sliced_gt_sides(t_op, blocks, 0.5)
                record(rows, rhs - lhs, rhs)
            else:  # gibbs
                dim = int(rng.integers(min(2, max_m), max_m + 1))
                op = bipartite.random_hermitian(dim, rng)
                rho = bipartite.random_density(dim, int(rng.integers(1, dim + 1)), rng)
                lhs, rhs = inequalities.gibbs_sides(rho, op)
                record(rows, rhs - lhs, rhs)
        gaps = [g for g, _ in rows]
        violations = sum(1 for g, r in rows if inequalities.violates(g, r))
        summaries.append(
            {
                "suite": suite,
                "trials": args.trials,
                "evaluations": len(rows),
                "min_gap": min(gaps),
                "violations": violations,
            }
        )

    text = "".join(json.dumps(s) + "\n" for s in summaries)
    dump = None
    if args.dump and worst[1] is not None:
        dump = bipartite.format_bipartite_operator(worst[1], worst[2])
    return text, dump
