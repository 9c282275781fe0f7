"""Command-line front end: reproducible experiment suites with machine-readable output.

Subcommands
-----------
ineq        seeded random trials of every inequality gap; JSON lines summary
weyl        counting (--lambda) or heat (--t) law for a homogeneous potential; CSV
simon       counting law for a separately homogeneous potential in 2d; CSV
zeta        transverse zeta traces per direction; JSON lines
constants   growth-law constants, exponents and divergence classification; JSON

Exit codes: 0 success, 1 an inequality violation was detected, 2 usage or
input error (bad flag, invalid parameter, unreadable or malformed file), 3 a
numerical contract not met (eigendecomposition residual, refused count, size cap).
Every command is deterministic given its flags; per-trial seeds are derived
from --seed with numpy's SeedSequence spawning, so output files are
byte-identical across runs and independent of any internal parallelism.
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


def _functions(names) -> list[linalg.ScalarFunction]:
    out = []
    for name in names:
        if name == "expneg":
            out.extend(linalg.exp_neg(t) for t in (0.1, 1.0, 10.0))
        elif name == "square":
            out.append(linalg.square())
        elif name == "pospart":
            out.append(linalg.positive_part())
        elif name == "affine":
            out.append(linalg.affine(2.0, -0.5))
        else:
            raise ValueError(f"unknown function {name!r}")
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
    return [float(p) for p in text.split(",")]


def _parse_pair(text: str) -> tuple[float, ...]:
    vals = _parse_floats(text)
    if len(vals) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected one or two comma values, got {text!r}")
    return tuple(vals)


def _parse_quadrants(text: str) -> schrodinger.QuadrantProfile:
    """One value for all four quadrants, or four in pp,pm,mp,mm order."""
    vals = _parse_floats(text)
    if len(vals) not in (1, 4):
        raise argparse.ArgumentTypeError(f"expected one or four comma values, got {text!r}")
    return schrodinger.QuadrantProfile(*(vals * 4)[:4])


def _emit(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.10g}"


def _usage_error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# ineq
# ---------------------------------------------------------------------------


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

    suites = ["jensen_scalar", "jensen_partial_trace", "golden_thompson", "sliced_gt", "gibbs"]
    for suite_idx, suite in enumerate(suites):
        rows = []
        for trial in range(args.trials):
            rng = _trial_rng(args.seed, suite_idx, trial)
            if suite == "jensen_scalar":
                dim = loaded.dim if loaded is not None else int(rng.integers(2, max_m * max_n + 1))
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
                dim = int(rng.integers(2, max_m * max_n + 1))
                a = bipartite.random_hermitian(dim, rng)
                b = bipartite.random_hermitian(dim, rng)
                lhs, rhs = inequalities.golden_thompson_sides(a, b)
                record(rows, rhs - lhs, rhs)
            elif suite == "sliced_gt":
                m = int(rng.integers(2, max_m + 1))
                n = int(rng.integers(1, max_n + 1))
                t_op = bipartite.random_hermitian(m, rng)
                blocks = [bipartite.random_hermitian(n, rng) for _ in range(m)]
                lhs, rhs = inequalities.sliced_gt_sides(t_op, blocks, 0.5)
                record(rows, rhs - lhs, rhs)
            else:  # gibbs
                dim = int(rng.integers(2, max_m + 1))
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
    _emit(args.out, text)
    if args.dump and worst[1] is not None:
        with open(args.dump, "w") as fh:
            fh.write(bipartite.format_bipartite_operator(worst[1], worst[2]))
    total = sum(s["violations"] for s in summaries)
    return 1 if total else 0


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------


def _homogeneous_from_args(args) -> schrodinger.Homogeneous:
    if args.potential_file:
        with open(args.potential_file) as fh:
            pot = schrodinger.parse_potential_config(fh.read().strip())
        if not isinstance(pot, schrodinger.Homogeneous):
            _usage_error("weyl needs a homogeneous potential config")
        return pot
    profile = tuple(args.profile) if len(args.profile) == 2 else (args.profile[0],) * 2
    return schrodinger.Homogeneous(args.gamma, 1, profile)


def cmd_weyl(args) -> int:
    pot = _homogeneous_from_args(args)
    lams = args.lam or []
    ts = args.t or []
    if lams and ts:
        _usage_error("pass either --lambda or --t, not both")
    heat_mode = bool(ts)
    scales = ts if heat_mode else lams

    lines = []
    samples = []
    if heat_mode:
        lines.append("t,trace_discrete,prediction,ratio")
    else:
        lines.append("lambda,N_discrete,prediction,ratio")
    if scales:
        if args.box is not None:
            box = args.box[0]
        elif heat_mode:
            box = schrodinger.heat_box(pot, min(scales))
        else:
            box = schrodinger.counting_box(pot, max(scales))
        points = int(args.points[0]) if args.points else schrodinger.points_for_spacing(box, 0.01)
        op = schrodinger.build_hamiltonian(pot, box, points)
        for s in scales:
            if heat_mode:
                value = schrodinger.heat_trace(op, s, method=args.method)
                pred = asymptotics.heat_weyl_prediction(pot, s)
            else:
                value = float(schrodinger.counting_function(op, s))
                pred = asymptotics.weyl_prediction(pot, s)
            if math.isinf(pred):
                lines.append(f"{s:g},{_fmt(value)},inf,")
            else:
                ratio = value / pred if pred else math.inf
                lines.append(f"{s:g},{_fmt(value)},{_fmt(pred)},{ratio:.6f}")
            if value > 0:
                samples.append((s, value))
    if len(samples) >= 3:
        fit = asymptotics.exponent_fit(samples)
        lines.append(f"exponent,{fit.slope:.6f},,")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simon / zeta
# ---------------------------------------------------------------------------


def _separately_from_args(args) -> schrodinger.SeparatelyHomogeneous:
    return schrodinger.SeparatelyHomogeneous(args.alpha, args.beta, args.profile)


def _zeta_per_direction(pot, box: float, points: int, p: float) -> dict[int, float]:
    q = schrodinger.transverse_growth_exponent(pot.beta)
    out = {}
    for omega in (1, -1):
        op = schrodinger.effective_operator(omega, pot, box, points)
        e_cut = min(100.0, 0.8 * float(schrodinger.gershgorin_bounds(op)[1]))
        out[omega] = schrodinger.zeta_trace(op, p, e_cut=e_cut, growth_exponent=q).value
    return out


def cmd_simon(args) -> int:
    if args.beta <= args.alpha:
        # the m/alpha > n/beta hypothesis fails; the roles of x and y must be
        # exchanged (the symmetric form of the law)
        _usage_error(
            "requires beta > alpha (1/alpha > 1/beta); otherwise exchange the "
            "roles of the two variables and apply the symmetric statement"
        )
    pot = _separately_from_args(args)
    p = asymptotics.zeta_power(pot)
    zetas = _zeta_per_direction(pot, args.zeta_box, args.zeta_points, p)
    law = asymptotics.partial_counting_law(pot, zetas)

    lams = args.lam or []
    lines = ["lambda,N_discrete,prediction,ratio"]
    samples = []
    if lams:
        if args.box is not None and len(args.box) == 2:
            box = args.box
        else:
            box = schrodinger.channel_boxes(pot, max(lams), margin=1.1)
        if args.points is not None and len(args.points) == 2:
            points = tuple(int(p_) for p_ in args.points)
        else:
            points = (
                schrodinger.points_for_spacing(box[0], 0.2),
                schrodinger.points_for_spacing(box[1], 0.12),
            )
        op = schrodinger.build_hamiltonian(pot, box, points)
        for lam in lams:
            count = schrodinger.counting_function(op, lam)
            pred = law.at(lam)
            if math.isinf(pred):
                lines.append(f"{lam:g},{count},inf,")
            else:
                lines.append(f"{lam:g},{count},{_fmt(pred)},{count / pred:.6f}")
            if count > 0:
                samples.append((lam, count))
    if len(samples) >= 3:
        fit = asymptotics.exponent_fit(samples)
        target = law.exponent
        lines.append(f"exponent,{fit.slope:.6f},target,{target:.6f}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_zeta(args) -> int:
    if args.beta <= args.alpha:
        _usage_error(
            "requires beta > alpha; otherwise exchange the roles of the two "
            "variables and apply the symmetric statement"
        )
    pot = _separately_from_args(args)
    p = args.p if args.p is not None else asymptotics.zeta_power(pot)
    zetas = _zeta_per_direction(pot, args.zeta_box, args.zeta_points, p)
    text = "".join(
        json.dumps({"omega": omega, "p": p, "zeta": zetas[omega]}) + "\n" for omega in (1, -1)
    )
    _emit(args.out, text)
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
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "m": m,
            "n": n,
            "C": asymptotics.counting_constant(reduced, m),
            "Cprime": asymptotics.heat_constant(reduced, m),
            "exponent": m * (args.alpha + args.beta + 2.0) / (2.0 * args.alpha),
            "zeta_power": m * (args.beta + 2.0) / (2.0 * args.alpha),
            "divergence": divergence.removeprefix("diverges_at_").removeprefix("diverges_"),
        }
    else:
        _usage_error("pass --gamma (with --d) or --alpha and --beta")
    _emit(args.out, json.dumps(payload) + "\n")
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
        type=lambda s: _functions(s.split(",")),
        help=f"comma list from {FUNCTION_CHOICES}",
    )
    p_ineq.add_argument("--out", default=None)
    p_ineq.add_argument("--dump", default=None, help="write the worst-gap operator")
    p_ineq.add_argument("--load", default=None, help="rerun the suites on a dumped operator")
    p_ineq.set_defaults(func=cmd_ineq)

    p_weyl = sub.add_parser("weyl", help="counting or heat law for a homogeneous potential")
    p_weyl.add_argument("--gamma", type=float, default=2.0)
    p_weyl.add_argument("--profile", type=_parse_pair, default=(1.0,))
    p_weyl.add_argument("--potential-file", default=None)
    p_weyl.add_argument("--lambda", dest="lam", type=_parse_floats, default=None)
    p_weyl.add_argument("--t", type=_parse_floats, default=None)
    p_weyl.add_argument("--box", type=_parse_pair, default=None)
    p_weyl.add_argument("--points", type=_parse_pair, default=None)
    p_weyl.add_argument("--method", choices=("dense", "truncated"), default="dense")
    p_weyl.add_argument("--out", default=None)
    p_weyl.set_defaults(func=cmd_weyl)

    p_simon = sub.add_parser("simon", help="partially semiclassical counting law in 2d")
    p_simon.add_argument("--alpha", type=float, required=True)
    p_simon.add_argument("--beta", type=float, required=True)
    p_simon.add_argument("--profile", type=_parse_quadrants, default=schrodinger.uniform_quadrants())
    p_simon.add_argument("--lambda", dest="lam", type=_parse_floats, default=None)
    p_simon.add_argument("--box", type=_parse_pair, default=None)
    p_simon.add_argument("--points", type=_parse_pair, default=None)
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
    except (ValueError, OSError) as exc:
        _usage_error(str(exc))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
