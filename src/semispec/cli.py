"""Command-line front end: reproducible experiment suites with machine-readable output.

Subcommands
-----------
ineq        seeded random trials of every inequality gap; JSON lines summary
weyl        counting (--lambda) or heat (--t) law for a homogeneous potential; CSV
simon       counting law for a separately homogeneous potential in 2d; CSV
zeta        transverse zeta traces per direction; JSON lines
constants   growth-law constants, exponents and divergence classification; JSON

A potential is given by its exponents and --profile values alone.  Output
goes to stdout (redirect it with ``>``); only ``ineq --dump`` writes a file.

Exit codes: 0 success, 1 an inequality violation was detected, 2 usage or
input error (bad flag, invalid parameter, a parameter whose result
overflows, a 2d potential that overflows to +inf on the grid, exponents
outside the partial law's regime m/alpha > n/beta, a lambda whose count
or a t whose heat trace is every finite-sample node of the grid, a profile
whose boundary rule leaves no box, a simon or zeta profile that vanishes
on a quadrant, a 1d grid with no finite-sample node, unreadable or
malformed --load file, an ineq trial whose gap is not finite),
3 a numerical contract not met
(eigendecomposition residual, LAPACK non-convergence, refused count, size
cap).  Commands raise; ``main`` alone prints the ``error:`` line and exits.
Every command is deterministic given its flags; per-trial seeds are derived
from --seed with numpy's SeedSequence spawning, so the output is
byte-identical across runs and independent of how trials are grouped for
evaluation.  ``ineq`` draws and gates each block of trials as stacks (see
``TRIAL_BLOCK``) and hands each group of trials of one shape, in chunks of
about ``CHUNK_ENTRIES`` matrix entries, to the private stacked evaluator of
its inequality in ``inequalities``, which forms the derived matrices,
decomposes and evaluates; only the --dump operator is kept past its chunk,
and built as an object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics, bipartite, inequalities, linalg, schrodinger

# the --functions names and the functions each one adds to a suite
FUNCTIONS = {
    "expneg": tuple(linalg.exp_neg(t) for t in (0.1, 1.0, 10.0)),
    "square": (linalg.square(),),
    "pospart": (linalg.positive_part(),),
    "affine": (linalg.affine(2.0, -0.5),),
}


def _draw_dim(rng: np.random.Generator, hi: int) -> int:
    """A dimension in 2..hi, or 1 when hi is 1 (the draw for hi >= 2 is unchanged)."""
    return int(rng.integers(min(2, hi), hi + 1))


# argparse reports a ValueError from a type= function as "invalid <function
# name> value", dropping its message; the parsers raise ArgumentTypeError,
# whose message argparse prints.


def _parse_functions(text: str) -> list[linalg.ScalarFunction]:
    out = []
    for name in text.split(","):
        if name not in FUNCTIONS:
            raise argparse.ArgumentTypeError(f"unknown function {name!r}; choose from {', '.join(FUNCTIONS)}")
        out.extend(FUNCTIONS[name])
    return out


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        m, n = int(m), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--dims expects MxN, got {text!r}")
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError(f"--dims must be positive, got {text!r}")
    if m * n > bipartite.MAX_TENSOR_DIM:
        raise argparse.ArgumentTypeError(
            f"--dims {text} gives dimension {m * n}, above the cap {bipartite.MAX_TENSOR_DIM}"
        )
    return m, n


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"--seed expects a non-negative integer, got {text!r}")
    return seed


def _parse_values(counts: tuple[int, ...] | None, kind: type):
    """Parser for comma-separated values of ``kind`` (float or int), as many as one of
    ``counts`` (1 to 4), or, when ``counts`` is None, any number (none for blank text)."""
    what = "number" if kind is float else "integer"
    if counts is None:
        expected = f"comma-separated {what}s"
    else:
        words = " or ".join(("one", "two", "three", "four")[c - 1] for c in counts)
        expected = f"{words} {what}" if counts == (1,) else f"{words} comma-separated {what}s"

    def parse(text: str) -> tuple:
        try:
            vals = tuple(kind(p) for p in text.split(",")) if text.strip() else ()
        except ValueError:
            vals = None
        if vals is None or (counts is not None and len(vals) not in counts):
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


def _json_line(record: dict) -> str:
    """One line of strict JSON: RFC 8259 has no infinity or NaN."""
    return json.dumps(record, allow_nan=False) + "\n"


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.10g}"


def _check_scales(flag: str, values) -> None:
    """Energies and times size the box, so each must be finite and positive."""
    bad = [v for v in values if not (math.isfinite(v) and v > 0)]
    if bad:
        raise ValueError(f"{flag} values must be finite and positive, got {bad[0]!r}")


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


def _grid_values(op: schrodinger.GridOperator, scales, method: str | None = None) -> list:
    """Eigenvalue counts below each lambda in ``scales``, or, given a heat
    ``method``, heat traces at each t; refused when one equals the number of
    finite-sample nodes: such a count, or a trace whose every exp(-tE) rounds
    to 1, measures the grid, not the operator."""
    if method is None:
        values = schrodinger.counting_function(op, scales).tolist()
        name, remedy = "N(lambda={!r})", "refine the grid or lower lambda"
    else:
        values = schrodinger.heat_trace(op, scales, method=method).tolist()
        name, remedy = "Tr exp(-tH) at t={!r}", "refine the grid or raise t"
    nodes = int(np.count_nonzero(np.isfinite(op.potential)))
    for scale, value in zip(scales, values):
        if value == nodes:
            raise ValueError(
                f"{name.format(scale)} = {nodes} counts every finite-sample node of the grid; "
                f"it measures the grid, not the operator ({remedy})"
            )
    return values


# ---------------------------------------------------------------------------
# ineq
# ---------------------------------------------------------------------------


# Trials drawn together.  A suite draws a block's inputs as stacks and gates
# its states (operator draws are Hermitian by construction), and its
# inequality's stacked evaluator decomposes and evaluates each group of
# trials of one shape at once, in chunks (see _chunks), so the Python cost is
# paid per chunk of a shape, not per trial.  The block bounds the live
# per-trial Generators (about 1.6 KB each) and side arrays; the chunks bound
# the matrix stacks.  With 1024 trials and 8 * 36**2 entries, a 1000-trial
# --dims 6x6 job (about 28 trials of each of 35-36 shapes) makes about 380
# stacked solves, against about 1,920 with blocks of 128 trials and no
# chunks; perfbench's ineq_mix job time fell 20 %, its peak memory rose 0.6 MB.
TRIAL_BLOCK = 1024
CHUNK_ENTRIES = 8 * 36**2


def _chunks(keys, top):
    """Each key's positions, keys in order of first appearance, in runs of at most
    ``CHUNK_ENTRIES // top(key)**2`` trials (at least one): about as many
    entries of a trial's largest matrix, ``top(key)`` x ``top(key)``, at any size."""
    for key, idx in inequalities._group(keys).items():
        step = max(1, CHUNK_ENTRIES // top(key) ** 2)
        for at in range(0, len(idx), step):
            yield key, idx[at : at + step]


def _block_rngs(seed: int, suite: int, first: int, count: int) -> list[np.random.Generator]:
    """The Generators of a suite's trials first .. first + count - 1: trial t's is
    seeded by ``SeedSequence(seed, spawn_key=(suite, t))``, spawned here from one
    parent sequence."""
    parent = np.random.SeedSequence(seed, spawn_key=(suite,), n_children_spawned=first)
    return [np.random.Generator(np.random.PCG64(child)) for child in parent.spawn(count)]


# A suite takes the Generators of a block's trials, the parsed flags and the
# --load operator (or None).  It draws each trial's shape first, then, one
# chunk of trials of a shape at a time, the rest of their inputs; every
# Generator serves one trial, so each trial makes the same draws in the same
# order as alone.  It returns the lhs and rhs of every evaluation, shape
# (trials, evaluations per trial), and, for the suite that --dump reads, the
# block's dump candidate: (normalized gap, (operator matrix, dims)) of its
# first smallest normalized gap in trial and function order.


def _jensen_scalar_block(rngs, args, loaded):
    max_m, max_n = args.dims
    dims = [len(loaded[0].mat) if loaded else _draw_dim(rng, max_m * max_n) for rng in rngs]
    lhs, rhs = np.empty((2, len(rngs), len(args.functions)))
    for dim, idx in _chunks(dims, int):
        group = [rngs[i] for i in idx]
        h = np.array([loaded[0].mat] * len(idx)) if loaded else bipartite.draw_hermitian(group, dim)
        psi = np.array([bipartite.random_unit_vector(dim, rng) for rng in group])
        lhs[idx], rhs[idx] = inequalities._jensen_scalar_sides(h, psi, args.functions)
    return lhs, rhs, None


def _jensen_partial_trace_block(rngs, args, loaded):
    max_m, max_n = args.dims
    keys = []
    for rng in rngs:
        if loaded:
            keys.append(loaded[1])
        else:
            m = int(rng.integers(1, max_m + 1))
            keys.append(bipartite.BipartiteDims(m, int(rng.integers(1, max_n + 1))))
    per_trial = len(args.functions)
    lhs, rhs = np.empty((2, len(rngs), per_trial))
    worst = (math.inf, 0, None)  # normalized gap, flat index in the block, (operator matrix, dims)
    for d, idx in _chunks(keys, lambda d: d.total):
        group = [rngs[i] for i in idx]
        h = np.array([loaded[0].mat] * len(idx)) if loaded else bipartite.draw_hermitian(group, d.total)
        ranks = [int(rng.integers(1, d.dim1 + 1)) for rng in group]
        rho = linalg.hermitian_stack(bipartite.draw_density(group, d.dim1, ranks))
        chunk_lhs, chunk_rhs = inequalities._jensen_partial_trace_sides(h, rho, d, args.functions)
        lhs[idx], rhs[idx] = chunk_lhs, chunk_rhs
        norm = ((chunk_rhs - chunk_lhs) / (1.0 + np.abs(chunk_rhs))).ravel()
        j = int(np.argmin(norm))  # the chunk's first smallest, its trials in block order
        flat = idx[j // per_trial] * per_trial + j % per_trial
        if (norm[j], flat) < worst[:2]:
            worst = (float(norm[j]), flat, (h[j // per_trial].copy(), d))  # a copy: the chunk's stack is not kept
    return lhs, rhs, (worst[0], worst[2])


def _golden_thompson_block(rngs, args, loaded):
    max_m, max_n = args.dims
    dims = [_draw_dim(rng, max_m * max_n) for rng in rngs]
    lhs, rhs = np.empty((2, len(rngs), 1))
    for dim, idx in _chunks(dims, int):
        group = [rngs[i] for i in idx]
        # each trial's Generator draws A, then B; as temporaries, neither stack is held through the solve
        lhs[idx, 0], rhs[idx, 0] = inequalities._golden_thompson_sides(
            bipartite.draw_hermitian(group, dim), bipartite.draw_hermitian(group, dim)
        )
    return lhs, rhs, None


def _sliced_gt_block(rngs, args, loaded):
    max_m, max_n = args.dims
    keys = [(_draw_dim(rng, max_m), int(rng.integers(1, max_n + 1))) for rng in rngs]
    lhs, rhs = np.empty((2, len(rngs), 1))
    for (m, n), idx in _chunks(keys, math.prod):
        # each trial draws T, then its m blocks
        t_mats = bipartite.draw_hermitian([rngs[i] for i in idx], m)
        blocks = bipartite.draw_hermitian([rngs[i] for i in idx for _ in range(m)], n)
        lhs[idx, 0], rhs[idx, 0] = inequalities._sliced_gt_sides(t_mats, blocks.reshape(len(idx), m, n, n), 0.5)
    return lhs, rhs, None


def _gibbs_block(rngs, args, loaded):
    max_m, _ = args.dims
    dims = [_draw_dim(rng, max_m) for rng in rngs]
    lhs, rhs = np.empty((2, len(rngs), 1))
    for dim, idx in _chunks(dims, int):
        group = [rngs[i] for i in idx]
        h = bipartite.draw_hermitian(group, dim)
        ranks = [int(rng.integers(1, dim + 1)) for rng in group]
        rho = linalg.hermitian_stack(bipartite.draw_density(group, dim, ranks))
        lhs[idx, 0], rhs[idx, 0] = inequalities._gibbs_sides(rho, h)
    return lhs, rhs, None


SUITES = (
    ("jensen_scalar", _jensen_scalar_block),
    ("jensen_partial_trace", _jensen_partial_trace_block),
    ("golden_thompson", _golden_thompson_block),
    ("sliced_gt", _sliced_gt_block),
    ("gibbs", _gibbs_block),
)


def cmd_ineq(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    loaded = None
    if args.load:
        with open(args.load) as fh:
            loaded = bipartite.parse_bipartite_operator(fh.read())

    summaries = []
    worst = (math.inf, None)  # smallest normalized gap, (operator matrix, dims)
    for suite_idx, (suite, block) in enumerate(SUITES):
        evaluations, min_gap, violations = 0, math.inf, 0
        for first in range(0, args.trials, TRIAL_BLOCK):
            rngs = _block_rngs(args.seed, suite_idx, first, min(TRIAL_BLOCK, args.trials - first))
            lhs, rhs, candidate = block(rngs, args, loaded)
            gap = rhs - lhs  # (trials, evaluations per trial)
            finite = np.isfinite(gap).ravel()
            if not finite.all():
                i = int(np.argmin(finite))  # the first non-finite gap
                trial, value = first + i // gap.shape[1], float(gap.flat[i])
                raise ValueError(f"{suite} trial {trial} has gap {value!r}, not a finite number")
            evaluations += gap.size
            # the first smallest gap, as min() over the evaluations in order takes it (0.0 before -0.0)
            min_gap = min(min_gap, float(gap.flat[int(np.argmin(gap))]))
            violations += int(np.count_nonzero(inequalities.violates(gap, rhs)))
            if candidate is not None and candidate[0] < worst[0]:
                worst = candidate
            del rngs, lhs, rhs, gap  # not held through the next block
        summaries.append(
            {
                "suite": suite,
                "trials": args.trials,
                "evaluations": evaluations,
                "min_gap": min_gap,
                "violations": violations,
            }
        )

    sys.stdout.write("".join(_json_line(s) for s in summaries))
    if args.dump and worst[1] is not None:
        mat, dims = worst[1]
        with open(args.dump, "w") as fh:
            fh.write(bipartite.format_bipartite_operator(linalg.HermitianOperator(mat), dims))
    total = sum(s["violations"] for s in summaries)
    return 1 if total else 0


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------


def cmd_weyl(args) -> int:
    pot = schrodinger.Homogeneous(args.gamma, 1, (args.profile * 2)[:2])
    lams, ts = args.lam, args.t
    if lams and ts:
        raise ValueError("pass either --lambda or --t, not both")
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
        values = _grid_values(op, scales, args.method if heat_mode else None)
        law = asymptotics.heat_law(pot) if heat_mode else asymptotics.counting_law(pot)
    header = "t,trace_discrete,prediction,ratio" if heat_mode else "lambda,N_discrete,prediction,ratio"
    sys.stdout.write(_law_table(header, scales, values, law, None))
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
    lams = args.lam
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
        counts = _grid_values(op, lams)
    sys.stdout.write(_law_table("lambda,N_discrete,prediction,ratio", lams, counts, law, law.exponent))
    return 0


def cmd_zeta(args) -> int:
    pot = _separately_from_args(args)
    p = args.p if args.p is not None else asymptotics.zeta_power(pot)
    zetas = schrodinger.transverse_zetas(pot, p, args.zeta_box, args.zeta_points)
    # a divergent trace has no finite value: null
    rows = ({"omega": omega, "p": p, "zeta": z if math.isfinite(z) else None} for omega, z in zetas.items())
    sys.stdout.write("".join(map(_json_line, rows)))
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
            args.alpha, args.beta, schrodinger.QuadrantProfile(1.0, 1.0, 1.0, 1.0)
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
        raise ValueError("pass --gamma (with --d) or --alpha and --beta")
    sys.stdout.write(_json_line(payload))
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
    p_ineq.add_argument("--seed", type=_parse_seed, default=0)
    p_ineq.add_argument("--dims", type=_parse_dims, default=(6, 6), metavar="MxN")
    p_ineq.add_argument(
        "--functions",
        default="expneg,square,pospart",
        type=_parse_functions,
        help=f"comma list from {tuple(FUNCTIONS)}",
    )
    p_ineq.add_argument("--dump", default=None, help="write the worst-gap operator")
    p_ineq.add_argument("--load", default=None, help="rerun the suites on a dumped operator")
    p_ineq.set_defaults(func=cmd_ineq)

    p_weyl = sub.add_parser("weyl", help="counting or heat law for a homogeneous potential")
    p_weyl.add_argument("--gamma", type=float, default=2.0)
    p_weyl.add_argument("--profile", type=_parse_values((1, 2), float), default=(1.0,))
    p_weyl.add_argument("--lambda", dest="lam", type=_parse_values(None, float), default=())
    p_weyl.add_argument("--t", type=_parse_values(None, float), default=())
    p_weyl.add_argument("--box", type=_parse_values((1,), float), default=None)
    p_weyl.add_argument("--points", type=_parse_values((1,), int), default=None)
    p_weyl.add_argument("--method", choices=("dense", "truncated"), default="dense")
    p_weyl.set_defaults(func=cmd_weyl)

    # the separately homogeneous potential and the grid of its transverse zeta traces
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--alpha", type=float, required=True)
    channel.add_argument("--beta", type=float, required=True)
    channel.add_argument("--profile", type=_parse_quadrants, default=schrodinger.QuadrantProfile(1.0, 1.0, 1.0, 1.0))
    channel.add_argument("--zeta-box", type=float, default=12.0)
    channel.add_argument("--zeta-points", type=int, default=2399)

    p_simon = sub.add_parser("simon", parents=[channel], help="partially semiclassical counting law in 2d")
    p_simon.add_argument("--lambda", dest="lam", type=_parse_values(None, float), default=())
    p_simon.add_argument("--box", type=_parse_values((2,), float), default=None, metavar="LX,LY")
    p_simon.add_argument("--points", type=_parse_values((2,), int), default=None, metavar="PX,PY")
    p_simon.set_defaults(func=cmd_simon)

    p_zeta = sub.add_parser("zeta", parents=[channel], help="transverse zeta traces per direction")
    p_zeta.add_argument("--p", type=float, default=None)
    p_zeta.set_defaults(func=cmd_zeta)

    p_const = sub.add_parser("constants", help="growth-law constants and exponents")
    p_const.add_argument("--gamma", type=float, default=None)
    p_const.add_argument("--d", type=int, default=1)
    p_const.add_argument("--alpha", type=float, default=None)
    p_const.add_argument("--beta", type=float, default=None)
    p_const.add_argument("--m", type=int, default=1)
    p_const.add_argument("--n", type=int, default=1)
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
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
