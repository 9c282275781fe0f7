"""Spans around semispec's public functions, installed from outside the library.

Modules bind names at import (``inequalities`` holds its own reference to
``eig_hermitian``, ``cli`` reaches ``schrodinger`` through the module), so a
wrapper is installed under every name, in every loaded ``semispec`` module,
that is bound to the wrapped function.  Spans are kept in memory as
``(name, start_ns, end_ns, parent, work)``; ``parent`` is the index of the
enclosing wrapped span or -1, and ``work`` is a per-call count for the
functions that define one.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

# module -> public functions whose calls and self time are reported
TARGETS = {
    "linalg": ("eig_hermitian", "apply_function", "trace"),
    "bipartite": ("compress", "kron", "partial_trace_1", "partial_trace_2"),
    "inequalities": (
        "jensen_scalar_sides",
        "jensen_partial_trace_sides",
        "golden_thompson_sides",
        "sliced_gt_sides",
        "gibbs_sides",
    ),
    "schrodinger": (
        "build_hamiltonian",
        "counting_function",
        "spectrum",
        "heat_trace",
        "zeta_trace",
        "channel_boxes",
        "coherent_frame_defect",
        "coherent_lower_bound",
        "coherent_partial_lower_bound",
    ),
    "asymptotics": ("phase_space_identity_check", "exponent_fit"),
    "cli": ("cmd_ineq", "cmd_weyl", "cmd_simon"),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _nodes(op) -> int:
    return op.n if hasattr(op, "n") else op.dim


# Work counted at the call boundary; each hook takes the wrapped function's arguments.
WORK = {
    "linalg.eig_hermitian": lambda op: op.dim**3,
    "schrodinger.counting_function": lambda op, lam, boundary_check=True: _nodes(op) * (2 if boundary_check else 1),
}


class Tracer:
    """Records one span per call of each wrapped function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, work(*args, **kwargs) if work else 0)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "semispec" or key.startswith("semispec.")]
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"semispec.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def summarize(self, first: int = 0) -> dict[str, list[int]]:
        """Per name ``[calls, self_ns, work]`` over spans ``first`` onwards.

        Self time is a span's duration minus the durations of its direct
        children; wrapped calls nest, so the children never overlap.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _, work), covered in zip(spans, child_ns):
            row = out[name]
            row[0] += 1
            row[1] += end - start - covered
            row[2] += work
        return dict(out)

    def write(self, path, jobs: list[int]) -> None:
        """Write every span as TSV; ``jobs[k]`` is the index of job k's first span."""
        bounds = jobs + [len(self.spans)]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job\tname\tstart_ns\tend_ns\tparent\twork\n")
            for job, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for name, start, end, parent, work in self.spans[lo:hi]:
                    fh.write(f"{job}\t{name}\t{start}\t{end}\t{parent}\t{work}\n")
