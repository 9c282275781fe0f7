"""The three benchmark workloads: seeded inputs, one timed job, and its output checks.

Each workload exposes

* ``build(seed)``   -> inputs; untimed, and the part of ``setup_s`` after import;
* ``oracle(inputs)`` -> reference values, computed once per process, untimed;
* ``job(inputs)``   -> outputs of one complete job (the timed region);
* ``check(inputs, oracle, outputs)`` -> one bool per checked output.

Jobs go through ``semispec.cli.main`` in-process where a CLI command exists
and through the public library calls otherwise.  Library functions are always
looked up as module attributes at call time, so the tracer's wrappers see
the calls this file makes.

The seed changes the inputs, never the amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

import semispec.asymptotics as asym
import semispec.cli as cli
import semispec.inequalities as ineq
import semispec.linalg as la
import semispec.schrodinger as ss

HERE = Path(__file__).resolve().parent
NONNEG_TOL = 1e-10  # the library's uniform violation tolerance
OSCILLATOR = ss.Homogeneous(2.0, 1, (1.0, 1.0))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``semispec <argv>`` in-process; returns the exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


# ---------------------------------------------------------------------------
# ineq_mix: thousands of tiny dense problems (dim <= 36)
# ---------------------------------------------------------------------------


class IneqMix:
    """``semispec ineq --trials 1000 --dims 6x6``: all five suites, the default five functions."""

    trials = 1000
    partial_trials = trials  # jensen_partial_trace trials per job
    suites = (
        ("jensen_scalar", 5),
        ("jensen_partial_trace", 5),
        ("golden_thompson", 1),
        ("sliced_gt", 1),
        ("gibbs", 1),
    )
    n_outputs = 1 + len(suites)

    def build(self, seed: int):
        return ["ineq", "--trials", str(self.trials), "--seed", str(seed), "--dims", "6x6"]

    def oracle(self, argv):
        return None

    def job(self, argv):
        return run_cli(argv)

    def check(self, argv, oracle, outputs) -> list[bool]:
        rc, text = outputs
        lines = text.splitlines()
        ok = [rc == 0 and len(lines) == len(self.suites)]
        for i, (suite, per_trial) in enumerate(self.suites):
            try:
                row = json.loads(lines[i])
            except (IndexError, ValueError):
                ok.append(False)
                continue
            # The output carries min_gap but not the RHS it is measured against
            # (exp_neg(10) makes |RHS| reach 1e30 and round-off gaps -0.4), so the
            # bound min_gap >= -1e-10 (1 + |RHS|) is read from the violation count.
            ok.append(
                row.get("suite") == suite
                and row.get("trials") == self.trials
                and row.get("evaluations") == self.trials * per_trial
                and row.get("violations") == 0
                and math.isfinite(row.get("min_gap", math.nan))
            )
        return ok


# ---------------------------------------------------------------------------
# simon_2d: few shifts on one large 2-D banded grid
# ---------------------------------------------------------------------------


class Simon2D:
    """``semispec simon --alpha 1 --beta 2 --lambda l1,l2,8`` with l1 < l2 drawn from LAMBDA_GRID.

    The top value pins the channel-rule grid at 773 x 83 nodes (bandwidth 83),
    so every seed factorizes the same operator at six shifts.
    """

    LAMBDA_GRID = tuple(4.0 + 0.25 * k for k in range(16))  # [4, 8)
    LAMBDA_TOP = 8.0
    TABLE = HERE / "simon_counts.json"
    n_outputs = 4  # exit code and three counts

    @staticmethod
    def argv(lams) -> list[str]:
        return ["simon", "--alpha", "1", "--beta", "2", "--lambda", ",".join(f"{x:g}" for x in lams)]

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        pick = sorted(rng.choice(len(self.LAMBDA_GRID), size=2, replace=False))
        lams = [self.LAMBDA_GRID[i] for i in pick] + [self.LAMBDA_TOP]
        return self.argv(lams)

    def oracle(self, argv):
        with open(self.TABLE) as fh:
            return json.load(fh)["counts"]

    def job(self, argv):
        return run_cli(argv)

    def check(self, argv, table, outputs) -> list[bool]:
        rc, text = outputs
        rows = _csv_rows(text)
        lams = argv[argv.index("--lambda") + 1].split(",")
        ok = [rc == 0 and rows[:1] == [["lambda", "N_discrete", "prediction", "ratio"]]]
        for i, lam in enumerate(lams, start=1):
            ok.append(i < len(rows) and rows[i][0] == lam and int(rows[i][1]) == table[lam])
        return ok


# ---------------------------------------------------------------------------
# growth_1d: many 1-D shifts, heat spectra, coherent frames, phase space
# ---------------------------------------------------------------------------


class Growth1D:
    """The oscillator growth-law checks at desk scale, plus the coherent-frame bounds.

    * ``weyl --gamma 2 --lambda``: 39 seeded lambda in [40, 400) plus 400, which
      pins one 7,999-node tridiagonal (box 40, spacing 0.01): the Sturm path;
    * ``weyl --gamma 2 --t 0.05,0.1,0.2 --method truncated``: windowed spectra
      of the same operator;
    * ``coherent_frame_defect`` for delta, flat and Gaussian windows, M = 64, 256;
    * ``coherent_lower_bound`` against ``heat_trace`` on the M = 256 oscillator
      torus at three seeded t;
    * 200 seeded partial sandwiches at M = 8, n = 3 (24-dim sliced GT);
    * both ``phase_space_identity_check`` forms at 10^6 nodes.
    """

    N_LAMBDAS = 40
    HEAT_TS = (0.05, 0.1, 0.2)
    FRAME_SIZES = (64, 256)
    TORUS_M = 256
    SANDWICHES = 200
    SANDWICH_M, SANDWICH_N = 8, 3
    # box and points the weyl command derives for lambda_max = 400 and t_min = 0.05
    GRID_BOX, GRID_POINTS = 40.0, 7999
    n_outputs = (1 + N_LAMBDAS) + (1 + len(HEAT_TS)) + 3 * len(FRAME_SIZES) + 3 + SANDWICHES + 2

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        lams = sorted(round(float(x), 3) for x in rng.uniform(40.0, 400.0, self.N_LAMBDAS - 1))
        lams.append(400.0)
        windows = [
            make(m) for m in self.FRAME_SIZES for make in (ss.delta_window, ss.flat_window, ss.gaussian_window)
        ]
        torus = ss.build_hamiltonian(OSCILLATOR, 8.0, self.TORUS_M, boundary="periodic")
        m, n = self.SANDWICH_M, self.SANDWICH_N
        t_op = ss.build_hamiltonian(None, 4.0, m, boundary="periodic")
        sandwiches = []
        for _ in range(self.SANDWICHES):
            blocks = []
            for _ in range(m):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                blocks.append(la.HermitianOperator(g @ g.conj().T))
            sandwiches.append((blocks, float(rng.uniform(0.1, 1.0))))
        return {
            "count_argv": ["weyl", "--gamma", "2", "--lambda", ",".join(repr(x) for x in lams)],
            "heat_argv": ["weyl", "--gamma", "2", "--t", ",".join(repr(t) for t in self.HEAT_TS),
                          "--method", "truncated"],
            "lams": lams,
            "windows": windows,
            "torus": torus,
            "torus_window": ss.gaussian_window(self.TORUS_M, sigma=8.0),
            "torus_ts": sorted(float(t) for t in rng.uniform(0.05, 1.0, 3)),
            "t_op": t_op,
            "t_op_h": t_op.hermitian(),
            "sandwich_window": ss.gaussian_window(m, sigma=1.5),
            "sandwiches": sandwiches,
        }

    def oracle(self, inputs) -> dict:
        """Counts and full heat sums from LAPACK's full tridiagonal spectrum.

        The operator is assembled here from its definition (-d^2/dx^2 + x^2,
        Dirichlet walls at +-40, spacing 80/8000), so the check shares no code
        with the library's Sturm counting or windowed spectra.
        """
        h = 2.0 * self.GRID_BOX / (self.GRID_POINTS + 1)
        x = -self.GRID_BOX + h * (1.0 + np.arange(self.GRID_POINTS))
        off = np.full(self.GRID_POINTS - 1, -1.0 / h**2)
        vals = np.sort(scipy.linalg.eigvalsh_tridiagonal(2.0 / h**2 + x**2, off))
        bound_op = ss.build_hamiltonian(OSCILLATOR, self.GRID_BOX, self.GRID_POINTS)
        return {
            "counts": [int(np.searchsorted(vals, lam, side="left")) for lam in inputs["lams"]],
            "heat": [float(np.sum(np.exp(-t * vals))) for t in self.HEAT_TS],
            "heat_bound": [ss.heat_truncation_bound(bound_op, t) for t in self.HEAT_TS],
        }

    def job(self, inp) -> tuple:
        counts = run_cli(inp["count_argv"])
        heat = run_cli(inp["heat_argv"])
        defects = [ss.coherent_frame_defect(w) for w in inp["windows"]]
        torus = [
            (ss.coherent_lower_bound(inp["torus"], t, inp["torus_window"]), ss.heat_trace(inp["torus"], t))
            for t in inp["torus_ts"]
        ]
        sandwiches = [
            (ss.coherent_partial_lower_bound(inp["t_op"], blocks, t, inp["sandwich_window"]),)
            + ineq.sliced_gt_sides(inp["t_op_h"], blocks, t)
            for blocks, t in inp["sandwiches"]
        ]
        phase = [
            asym.phase_space_identity_check(OSCILLATOR, lam=10.0, nodes=10**6),
            asym.phase_space_identity_check(OSCILLATOR, t=0.1, nodes=10**6),
        ]
        return counts, heat, defects, torus, sandwiches, [(p.rel_error, p.quad_estimate) for p in phase]

    def check(self, inp, oracle, outputs) -> list[bool]:
        (count_rc, count_text), (heat_rc, heat_text), defects, torus, sandwiches, phase = outputs
        ok = [count_rc == 0]
        rows = _csv_rows(count_text)
        for i, expected in enumerate(oracle["counts"], start=1):
            ok.append(i < len(rows) and float(rows[i][1]) == expected)
        ok.append(heat_rc == 0)
        rows = _csv_rows(heat_text)
        for i, (full, bound) in enumerate(zip(oracle["heat"], oracle["heat_bound"]), start=1):
            # the CSV prints 10 significant digits, so allow that rounding too
            ok.append(i < len(rows) and abs(float(rows[i][1]) - full) <= bound + 1e-9 * full)
        ok.extend(d <= 1e-12 for d in defects)
        ok.extend(lower <= trace + NONNEG_TOL * (1.0 + trace) for lower, trace in torus)
        for lower, trace, upper in sandwiches:
            tol = NONNEG_TOL * (1.0 + trace)
            ok.append(lower <= trace + tol and trace <= upper + tol)
        ok.extend(rel <= 0.005 and rel <= est for rel, est in phase)
        return ok


WORKLOADS = {"ineq_mix": IneqMix(), "simon_2d": Simon2D(), "growth_1d": Growth1D()}
