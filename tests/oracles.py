"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths wherever a result is
being cross-checked: the characteristic polynomial is built by the
Faddeev-LeVerrier recursion and bisected directly, and the double-Jensen
chain below re-derives the partial-trace inequality one basis vector at a
time, sharing nothing with the library beyond raw eigendecompositions.
The 2d count is checked against a node-by-node scalar LDL^T of the banded
matrix, independent of the library's block-row factorization.
"""

from __future__ import annotations

import numpy as np


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
