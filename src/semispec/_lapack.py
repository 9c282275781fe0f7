"""LAPACK routines called outside scipy's wrappers, and a runner for
independent calls on threads.

scipy publishes LAPACK's function pointers in ``scipy.linalg.cython_lapack``.
Called through ctypes, a routine runs with the GIL released, so calls on
other threads run in parallel (scipy's f2py wrappers hold the GIL).  This
module is imported only inside the functions that use it, and imports
nothing until one of its own functions runs: importing semispec loads
neither ctypes, scipy nor a thread pool.
"""

from __future__ import annotations

# LAPACK dstebz as a ctypes function, bound by stebz on first use
_DSTEBZ = None


def stebz(d, e, lo: float | int, hi: float | int):
    """The eigenvalues, as a float array, of one LAPACK ``dstebz`` bisection
    of the tridiagonal chain (d, e), with the arguments scipy's
    ``eigvalsh_tridiagonal(select="v", lapack_driver="stebz")`` passes: the
    eigenvalues in (lo, hi] (RANGE V), or, for integer lo and hi, those of
    1-based indices lo..hi (RANGE I), ascending (ORDER E), to LAPACK's
    default tolerance (abstol 0).

    Raises ``ValueError`` on a non-finite entry and ``LinAlgError`` on a
    nonzero LAPACK info.
    """
    global _DSTEBZ
    import ctypes

    import numpy as np

    if _DSTEBZ is None:
        from scipy.linalg import cython_lapack

        # local prototypes: the shared ctypes.pythonapi functions keep their own
        capsule, api = cython_lapack.__pyx_capi__["dstebz"], ctypes.pythonapi
        name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))(capsule)
        get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
        _DSTEBZ = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 18)(get(capsule, name))
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    n, by_index = d.size, isinstance(lo, int)
    il, iu, vl, vu = (lo, hi, 0.0, 1.0) if by_index else (1, 1, float(lo), float(hi))
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = np.empty(n, np.intc), np.empty(n, np.intc), np.empty(3 * n, np.intc)
    ref, c_int, c_double = ctypes.byref, ctypes.c_int, ctypes.c_double
    _DSTEBZ(
        b"I" if by_index else b"V", b"E", ref(c_int(n)), ref(c_double(vl)), ref(c_double(vu)),
        ref(c_int(il)), ref(c_int(iu)), ref(c_double(0.0)), d.ctypes, e.ctypes, ref(m), ref(nsplit),
        w.ctypes, iblock.ctypes, isplit.ctypes, work.ctypes, iwork.ctypes, ref(info),
    )  # fmt: skip
    if info.value:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info.value})")
    return w[: m.value]


def concurrently(calls: list) -> list:
    """The results of the zero-argument ``calls``, in order: the first runs
    on this thread while each other runs on a worker thread of its own.
    An error raised by any call reaches the caller once every worker has
    finished."""
    from concurrent.futures import ThreadPoolExecutor

    first, *rest = calls
    if not rest:
        return [first()]
    with ThreadPoolExecutor(len(rest)) as pool:
        pending = [pool.submit(call) for call in rest]
        head = first()
        return [head] + [future.result() for future in pending]
