"""Command-line front end: reproducible experiment suites with machine-readable output.

Subcommands
-----------
ineq        seeded random trials of every inequality gap; JSON lines summary
weyl        counting (--lambda) or heat (--t) law for a homogeneous potential; CSV
simon       counting law for a separately homogeneous potential in 2d; CSV
zeta        transverse zeta traces per direction; JSON lines
constants   growth-law constants, exponents and divergence classification; JSON

A potential is given by its exponents and --profile values alone.

Exit codes: 0 success, 1 an inequality violation was detected, 2 usage or
input error (bad flag, invalid parameter, a parameter whose result
overflows, a 2d potential that overflows to +inf on the grid, exponents
outside the partial law's regime m/alpha > n/beta, a lambda whose count
is every finite-sample node of the grid, unreadable or malformed --load
file), 3 a numerical contract not met
(eigendecomposition residual, LAPACK non-convergence, refused count, size
cap).
Every command is deterministic given its flags; per-trial seeds are derived
from --seed with numpy's SeedSequence spawning, so output files are
byte-identical across runs and independent of how trials are grouped for
evaluation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics, bipartite, inequalities, linalg, schrodinger

FUNCTION_CHOICES = ("expneg", "square", "pospart", "affine")


def _trial_rng(seed: int, suite: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(suite, trial)))


def _draw_dim(rng: np.random.Generator, hi: int) -> int:
    """A dimension in 2..hi, or 1 when hi is 1 (the draw for hi >= 2 is unchanged)."""
    return int(rng.integers(min(2, hi), hi + 1))


# argparse reports a ValueError from a type= function as "invalid <function
# name> value", dropping its message; the parsers raise ArgumentTypeError,
# whose message argparse prints.


def _parse_functions(text: str) -> list[linalg.ScalarFunction]:
    out = []
    for name in text.split(","):
        if name == "expneg":
            out.extend(linalg.exp_neg(t) for t in (0.1, 1.0, 10.0))
        elif name == "square":
            out.append(linalg.square())
        elif name == "pospart":
            out.append(linalg.positive_part())
        elif name == "affine":
            out.append(linalg.affine(2.0, -0.5))
        else:
            raise argparse.ArgumentTypeError(
                f"unknown function {name!r}; choose from {', '.join(FUNCTION_CHOICES)}"
            )
    return out


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        m, n = int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--dims expects MxN, got {text!r}")
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError(f"--dims must be positive, got {text!r}")
    return m, n


def _parse_floats(text: str) -> list[float]:
    if not text.strip():
        return []
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_values(counts: tuple[int, ...], kind: type):
    """Parser for comma-separated values of ``kind`` (float or int), as many as one of ``counts`` (1 to 4)."""
    what = "number" if kind is float else "integer"
    words = " or ".join(("one", "two", "three", "four")[c - 1] for c in counts)
    expected = f"{words} {what}" if counts == (1,) else f"{words} comma-separated {what}s"

    def parse(text: str) -> tuple:
        try:
            vals = tuple(kind(p) for p in text.split(","))
        except ValueError:
            vals = ()
        if len(vals) not in counts:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return vals

    return parse


def _parse_quadrants(text: str) -> schrodinger.QuadrantProfile:
    """One value for all four quadrants, or four in pp,pm,mp,mm order."""
    vals = _parse_values((1, 4), float)(text)
    try:
        return schrodinger.QuadrantProfile(*(vals * 4)[:4])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(record: dict) -> str:
    """One line of strict JSON: RFC 8259 has no infinity or NaN."""
    return json.dumps(record, allow_nan=False) + "\n"


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.10g}"


def _usage_error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_scales(flag: str, values) -> None:
    """Energies and times size the box, so each must be finite and positive."""
    bad = [v for v in values if not (math.isfinite(v) and v > 0)]
    if bad:
        _usage_error(f"{flag} values must be finite and positive, got {bad[0]!r}")


def _law_table(header: str, scales, values, law: asymptotics.Prediction | None, target: float | None) -> str:
    """CSV rows ``scale,value,prediction,ratio`` against a growth law, and an
    ``exponent`` row fitted once three values are positive (with the law's
    ``target`` exponent when given)."""
    lines = [header]
    samples = []
    for s, value in zip(scales, values):
        pred = law.at(s)
        # no ratio against a divergent law, nor for 0 against 0
        ratio = "" if math.isinf(pred) or pred == value == 0 else f"{value / pred if pred else math.inf:.6f}"
        lines.append(f"{s:g},{_fmt(value)},{_fmt(pred)},{ratio}")
        if value > 0:
            samples.append((s, value))
    if len(samples) >= 3:
        slope = asymptotics.exponent_fit(samples).slope
        lines.append(f"exponent,{slope:.6f}," + ("," if target is None else f"target,{target:.6f}"))
    return "\n".join(lines) + "\n"


def _counts(op: schrodinger.GridOperator, lams) -> list:
    """Eigenvalue counts below each lambda, refusing a count of every
    finite-sample node: such a count measures the grid, not the operator."""
    counts = schrodinger.counting_function(op, lams).tolist()
    nodes = int(np.count_nonzero(np.isfinite(op.potential)))
    for lam, count in zip(lams, counts):
        if count == nodes:
            raise ValueError(
                f"N(lambda={lam!r}) = {nodes} counts every finite-sample node of the grid; "
                "it measures the grid, not the operator (refine the grid or lower lambda)"
            )
    return counts


# ---------------------------------------------------------------------------
# ineq
# ---------------------------------------------------------------------------


# Trials drawn and evaluated together.  Each block's matrices are decomposed
# with one stacked call per dimension; the block size bounds how many of them
# (and their eigenvectors) are held at once.  16 was chosen by measurement:
# larger blocks save little time and add to the peak resident memory.
TRIAL_BLOCK = 16


def _decompose(ops) -> list[linalg.SpectralDecomposition]:
    """Spectral decompositions of operators of any dimensions, in order; one stacked call per dimension."""
    by_dim: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        by_dim.setdefault(op.dim, []).append(i)
    decs = [None] * len(ops)
    for idx in by_dim.values():
        vals, vecs = linalg.eig_hermitian_stack([ops[i].mat for i in idx])
        for j, i in enumerate(idx):
            decs[i] = linalg.SpectralDecomposition(vals[j], vecs[j])
    return decs


def cmd_ineq(args) -> int:
    max_m, max_n = args.dims
    functions = args.functions
    summaries = []
    worst = (math.inf, None, None)  # smallest normalized gap, operator, dims

    def record(rows, gap, rhs, op=None, dims=None):
        nonlocal worst
        rows.append((gap, rhs))
        norm = gap / (1.0 + abs(rhs))
        if op is not None and norm < worst[0]:
            worst = (norm, op, dims)

    if args.trials < 1:
        _usage_error("--trials must be at least 1")
    loaded = loaded_dims = None
    if args.load:
        with open(args.load) as fh:
            loaded, loaded_dims = bipartite.parse_bipartite_operator(fh.read())

    # A suite draws one trial's inputs from the trial's own Generator and
    # returns the operators to decompose, a function from their
    # decompositions to the (lhs, rhs) pairs, and what a --dump would write.
    def jensen_scalar(rng):
        dim = loaded.dim if loaded is not None else _draw_dim(rng, max_m * max_n)
        op = loaded if loaded is not None else bipartite.random_hermitian(dim, rng)
        psi = bipartite.random_unit_vector(op.dim, rng)
        return [op], lambda d: inequalities._jensen_scalar_sides(op, d[0], psi, functions), ()

    def jensen_partial_trace(rng):
        if loaded is not None:
            op, dims = loaded, loaded_dims
        else:
            dims = bipartite.BipartiteDims(
                int(rng.integers(1, max_m + 1)), int(rng.integers(1, max_n + 1))
            )
            op = bipartite.random_hermitian(dims.total, rng)
        rho = bipartite.random_density(dims.dim1, int(rng.integers(1, dims.dim1 + 1)), rng)
        return (
            [op, bipartite.compress(op, rho, dims)],
            lambda d: inequalities._jensen_partial_trace_sides(d[0], d[1].eigenvalues, rho, dims, functions),
            (op, dims),
        )

    def golden_thompson(rng):
        dim = _draw_dim(rng, max_m * max_n)
        a = bipartite.random_hermitian(dim, rng)
        b = bipartite.random_hermitian(dim, rng)
        return [a + b, a, b], lambda d: [inequalities._golden_thompson_sides(*d)], ()

    def sliced_gt(rng):
        m = _draw_dim(rng, max_m)
        n = int(rng.integers(1, max_n + 1))
        t_op = bipartite.random_hermitian(m, rng)
        blocks = [bipartite.random_hermitian(n, rng) for _ in range(m)]
        return (
            [inequalities.sliced_hamiltonian(t_op, blocks), t_op, *blocks],
            lambda d: [inequalities._sliced_gt_sides(d[0], d[1], [w.eigenvalues for w in d[2:]], 0.5)],
            (),
        )

    def gibbs(rng):
        dim = _draw_dim(rng, max_m)
        op = bipartite.random_hermitian(dim, rng)
        rho = bipartite.random_density(dim, int(rng.integers(1, dim + 1)), rng)
        return [op], lambda d: [inequalities._gibbs_sides(rho, op, d[0].eigenvalues)], ()

    suites = [
        ("jensen_scalar", jensen_scalar),
        ("jensen_partial_trace", jensen_partial_trace),
        ("golden_thompson", golden_thompson),
        ("sliced_gt", sliced_gt),
        ("gibbs", gibbs),
    ]
    for suite_idx, (suite, draw) in enumerate(suites):
        rows = []
        for first in range(0, args.trials, TRIAL_BLOCK):
            trials = range(first, min(first + TRIAL_BLOCK, args.trials))
            cases = [draw(_trial_rng(args.seed, suite_idx, trial)) for trial in trials]
            decs = _decompose([op for ops, _, _ in cases for op in ops])
            at = 0
            for ops, sides, dump in cases:
                for lhs, rhs in sides(decs[at : at + len(ops)]):
                    record(rows, rhs - lhs, rhs, *dump)
                at += len(ops)
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

    text = "".join(_json_line(s) for s in summaries)
    _emit(args.out, text)
    if args.dump and worst[1] is not None:
        with open(args.dump, "w") as fh:
            fh.write(bipartite.format_bipartite_operator(worst[1], worst[2]))
    total = sum(s["violations"] for s in summaries)
    return 1 if total else 0


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------


def cmd_weyl(args) -> int:
    pot = schrodinger.Homogeneous(args.gamma, 1, (args.profile * 2)[:2])
    lams = args.lam or []
    ts = args.t or []
    if lams and ts:
        _usage_error("pass either --lambda or --t, not both")
    heat_mode = bool(ts)
    scales = ts if heat_mode else lams
    _check_scales("--t" if heat_mode else "--lambda", scales)

    values, law = [], None
    if scales:
        if args.box is not None:
            box = args.box[0]
        elif heat_mode:
            box = schrodinger.heat_box(pot, min(scales))
        else:
            box = schrodinger.counting_box(pot, max(scales))
        points = args.points[0] if args.points else schrodinger.points_for_spacing(box, 0.01)
        op = schrodinger.build_hamiltonian(pot, box, points)
        if heat_mode:
            values = schrodinger.heat_trace(op, scales, method=args.method).tolist()
            law = asymptotics.heat_law(pot)
        else:
            values = _counts(op, scales)
            law = asymptotics.counting_law(pot)
    header = "t,trace_discrete,prediction,ratio" if heat_mode else "lambda,N_discrete,prediction,ratio"
    _emit(args.out, _law_table(header, scales, values, law, None))
    return 0


# ---------------------------------------------------------------------------
# simon / zeta
# ---------------------------------------------------------------------------


def _separately_from_args(args) -> schrodinger.SeparatelyHomogeneous:
    pot = schrodinger.SeparatelyHomogeneous(args.alpha, args.beta, args.profile)
    asymptotics.check_partial_regime(pot.alpha, pot.beta)
    return pot


def cmd_simon(args) -> int:
    pot = _separately_from_args(args)
    lams = args.lam or []
    _check_scales("--lambda", lams)
    zetas = schrodinger.transverse_zetas(pot, asymptotics.zeta_power(pot), args.zeta_box, args.zeta_points)
    law = asymptotics.partial_counting_law(pot, zetas)
    counts = []
    if lams:
        box = args.box or schrodinger.channel_boxes(pot, max(lams))
        points = args.points or (
            schrodinger.points_for_spacing(box[0], 0.2),
            schrodinger.points_for_spacing(box[1], 0.12),
        )
        op = schrodinger.build_hamiltonian(pot, box, points)
        counts = _counts(op, lams)
    _emit(args.out, _law_table("lambda,N_discrete,prediction,ratio", lams, counts, law, law.exponent))
    return 0


def cmd_zeta(args) -> int:
    pot = _separately_from_args(args)
    p = args.p if args.p is not None else asymptotics.zeta_power(pot)
    zetas = schrodinger.transverse_zetas(pot, p, args.zeta_box, args.zeta_points)
    # a divergent trace has no finite value: null
    rows = ({"omega": omega, "p": p, "zeta": z if math.isfinite(z) else None} for omega, z in zetas.items())
    _emit(args.out, "".join(map(_json_line, rows)))
    return 0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    if args.gamma is not None:
        d = args.d
        payload = {
            "gamma": args.gamma,
            "d": d,
            "C": asymptotics.counting_constant(args.gamma, d),
            "Cprime": asymptotics.heat_constant(args.gamma, d),
            "exponent": asymptotics.counting_exponent(args.gamma, d),
        }
    elif args.alpha is not None and args.beta is not None:
        pot = schrodinger.SeparatelyHomogeneous(
            args.alpha, args.beta, schrodinger.uniform_quadrants()
        )
        reduced = asymptotics.reduced_degree(pot)
        m, n = args.m, args.n
        divergence = asymptotics.divergence_classifier(m, n, args.alpha, args.beta)
        asymptotics.check_partial_regime(pot.alpha, pot.beta, m, n)
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "m": m,
            "n": n,
            "C": asymptotics.counting_constant(reduced, m),
            "Cprime": asymptotics.heat_constant(reduced, m),
            "exponent": asymptotics.partial_exponent(pot, m),
            "zeta_power": asymptotics.zeta_power(pot, m),
            "divergence": divergence.removeprefix("diverges_at_").removeprefix("diverges_"),
        }
    else:
        _usage_error("pass --gamma (with --d) or --alpha and --beta")
    _emit(args.out, _json_line(payload))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semispec",
        description="inequality suites and spectral-asymptotics experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ineq = sub.add_parser("ineq", help="run the inequality gap suites")
    p_ineq.add_argument("--trials", type=int, default=100)
    p_ineq.add_argument("--seed", type=int, default=0)
    p_ineq.add_argument("--dims", type=_parse_dims, default=(6, 6), metavar="MxN")
    p_ineq.add_argument(
        "--functions",
        default="expneg,square,pospart",
        type=_parse_functions,
        help=f"comma list from {FUNCTION_CHOICES}",
    )
    p_ineq.add_argument("--out", default=None)
    p_ineq.add_argument("--dump", default=None, help="write the worst-gap operator")
    p_ineq.add_argument("--load", default=None, help="rerun the suites on a dumped operator")
    p_ineq.set_defaults(func=cmd_ineq)

    p_weyl = sub.add_parser("weyl", help="counting or heat law for a homogeneous potential")
    p_weyl.add_argument("--gamma", type=float, default=2.0)
    p_weyl.add_argument("--profile", type=_parse_values((1, 2), float), default=(1.0,))
    p_weyl.add_argument("--lambda", dest="lam", type=_parse_floats, default=None)
    p_weyl.add_argument("--t", type=_parse_floats, default=None)
    p_weyl.add_argument("--box", type=_parse_values((1,), float), default=None)
    p_weyl.add_argument("--points", type=_parse_values((1,), int), default=None)
    p_weyl.add_argument("--method", choices=("dense", "truncated"), default="dense")
    p_weyl.add_argument("--out", default=None)
    p_weyl.set_defaults(func=cmd_weyl)

    p_simon = sub.add_parser("simon", help="partially semiclassical counting law in 2d")
    p_simon.add_argument("--alpha", type=float, required=True)
    p_simon.add_argument("--beta", type=float, required=True)
    p_simon.add_argument("--profile", type=_parse_quadrants, default=schrodinger.uniform_quadrants())
    p_simon.add_argument("--lambda", dest="lam", type=_parse_floats, default=None)
    p_simon.add_argument("--box", type=_parse_values((2,), float), default=None, metavar="LX,LY")
    p_simon.add_argument("--points", type=_parse_values((2,), int), default=None, metavar="PX,PY")
    p_simon.add_argument("--zeta-box", type=float, default=12.0)
    p_simon.add_argument("--zeta-points", type=int, default=2399)
    p_simon.add_argument("--out", default=None)
    p_simon.set_defaults(func=cmd_simon)

    p_zeta = sub.add_parser("zeta", help="transverse zeta traces per direction")
    p_zeta.add_argument("--alpha", type=float, required=True)
    p_zeta.add_argument("--beta", type=float, required=True)
    p_zeta.add_argument("--profile", type=_parse_quadrants, default=schrodinger.uniform_quadrants())
    p_zeta.add_argument("--p", type=float, default=None)
    p_zeta.add_argument("--zeta-box", type=float, default=12.0)
    p_zeta.add_argument("--zeta-points", type=int, default=2399)
    p_zeta.add_argument("--out", default=None)
    p_zeta.set_defaults(func=cmd_zeta)

    p_const = sub.add_parser("constants", help="growth-law constants and exponents")
    p_const.add_argument("--gamma", type=float, default=None)
    p_const.add_argument("--d", type=int, default=1)
    p_const.add_argument("--alpha", type=float, default=None)
    p_const.add_argument("--beta", type=float, default=None)
    p_const.add_argument("--m", type=int, default=1)
    p_const.add_argument("--n", type=int, default=1)
    p_const.add_argument("--out", default=None)
    p_const.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ahead of ValueError: LAPACK's LinAlgError subclasses it, but is no input error
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
