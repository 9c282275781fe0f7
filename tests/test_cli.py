import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semispec import asymptotics, cli, schrodinger
from semispec.bipartite import BipartiteDims, format_bipartite_operator, parse_bipartite_operator
from semispec.linalg import HermitianOperator

from oracles import ineq_by_trials


# M*N above bipartite.MAX_TENSOR_DIM: refused when parsed, before any draw
OVERSIZED_DIMS = ["ineq", "--dims", "1000x1000", "--trials", "1"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# determinism and output formats ----------------------------------------------


def test_ineq_deterministic_byte_identical(capsys):
    argv = ("ineq", "--trials", "2", "--seed", "42")
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and run_cli(capsys, *argv) == first


def test_ineq_single_trial_json_lines(capsys):
    code, out = run_cli(capsys, "ineq", "--trials", "1", "--seed", "42", "--dims", "3x3")
    assert code == 0
    lines = out.strip().splitlines()
    suites = set()
    for line in lines:
        obj = json.loads(line)
        suites.add(obj["suite"])
        assert obj["violations"] == 0
        assert obj["trials"] == 1
    assert {"jensen_scalar", "jensen_partial_trace", "golden_thompson", "sliced_gt", "gibbs"} <= suites


def test_ineq_affine_equality_suite(capsys):
    code, out = run_cli(
        capsys, "ineq", "--trials", "5", "--seed", "7", "--dims", "4x4", "--functions", "affine"
    )
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        if obj["suite"].startswith("jensen"):
            assert abs(obj["min_gap"]) <= 1e-10 * 100


def test_ineq_violation_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli.inequalities, "violates", lambda gap, rhs: True)
    code, _ = run_cli(capsys, "ineq", "--trials", "1", "--seed", "0", "--dims", "2x2")
    assert code == 1


def test_ineq_dump_and_load_roundtrip(tmp_path, capsys):
    dump = tmp_path / "worst.op"
    code, _ = run_cli(
        capsys, "ineq", "--trials", "2", "--seed", "3", "--dims", "3x2", "--dump", str(dump)
    )
    assert code == 0 and dump.exists()
    text = dump.read_text()
    assert text.startswith("dims ")  # bipartite dump format with a dims header
    parse_bipartite_operator(text)
    code2, out2 = run_cli(capsys, "ineq", "--trials", "1", "--seed", "3", "--load", str(dump))
    assert code2 == 0
    for line in out2.strip().splitlines():
        assert json.loads(line)["violations"] == 0


@pytest.mark.parametrize("functions", ["expneg,square,pospart", "affine,pospart"])
@pytest.mark.parametrize("dims", ["6x6", "3x4", "1x5", "1x1"])
@pytest.mark.parametrize("seed", [1, 7, 11])
def test_ineq_blocks_match_trial_by_trial_oracle(monkeypatch, tmp_path, capsys, seed, dims, functions):
    # a small block keeps the cost flat whatever TRIAL_BLOCK is, and still crosses boundaries
    monkeypatch.setattr(cli, "TRIAL_BLOCK", 16)
    trials = str(2 * cli.TRIAL_BLOCK + 3)  # two full trial blocks and a partial one
    dump = tmp_path / "worst.op"
    argv = ["ineq", "--trials", trials, "--seed", str(seed), "--dims", dims, "--functions", functions,
            "--dump", str(dump)]
    expected, expected_dump = ineq_by_trials(cli.build_parser().parse_args(argv))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    assert dump.read_text() == expected_dump
    load_argv = ["ineq", "--trials", trials, "--seed", str(seed), "--functions", functions, "--load", str(dump)]
    expected_load, _ = ineq_by_trials(cli.build_parser().parse_args(load_argv))
    code, out = run_cli(capsys, *load_argv)
    assert code == 0
    assert out == expected_load


def test_ineq_block_holds_about_as_many_entries_at_any_dimension(tmp_path, capsys):
    assert [cli._block_size(top) for top in (1, 36, 72, 1000)] == [cli.TRIAL_BLOCK] * 2 + [cli.TRIAL_BLOCK // 4, 1]
    # a 120-dim operator loaded for 40 trials: at a full block the partial-trace
    # suite alone holds 40 such matrices, their eigenvectors and the solver's buffers
    rng = np.random.default_rng(5)
    g = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
    dump = tmp_path / "big.op"
    dump.write_text(format_bipartite_operator(HermitianOperator(g + g.conj().T), BipartiteDims(2, 60)))
    tracemalloc.start()
    try:
        code, _ = run_cli(capsys, "ineq", "--trials", "40", "--seed", "1", "--load", str(dump))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 20 * 2**20


def test_oversized_operators_are_refused_before_allocation(tmp_path, capsys):
    dump = tmp_path / "huge.op"
    dump.write_text("dims 1000 1000\ndim 1000000\n")
    for argv, words in (
        (OVERSIZED_DIMS, ("--dims 1000x1000", "cap 4096")),
        (["ineq", "--trials", "1", "--load", str(dump)], ("dim 1000000 is not in 1..4096", "cap")),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.code == 2, argv
        message = capsys.readouterr().err
        assert message.count("error:") == 1 and all(w in message for w in words), message
        assert peak < 2**20, argv


def test_bad_seed_is_refused_naming_the_flag(capsys):
    for seed in ("-1", "x"):
        with pytest.raises(SystemExit) as err:
            cli.main(["ineq", "--trials", "1", "--seed", seed])
        assert err.value.code == 2
        assert f"--seed expects a non-negative integer, got '{seed}'" in capsys.readouterr().err


def test_ineq_load_non_finite_entry_is_input_error(tmp_path, capsys):
    dump = tmp_path / "nan.op"
    dump.write_text("dims 1 2\ndim 2\n1.0 0.0\n0.5 0.0\n0.5 0.0\nnan 0.0\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["ineq", "--trials", "1", "--load", str(dump)])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == "error: matrix entry (1, 1) is not finite: (nan+0j)\n"


def test_ineq_non_finite_gap_is_input_error_naming_suite_and_trial(tmp_path, capsys):
    # eigenvalues +-1e300: exp(-t x) and x^2 overflow, so a gap is inf or NaN
    dump = tmp_path / "huge.op"
    dump.write_text("dims 1 2\ndim 2\n1e300 0.0\n0.0 0.0\n0.0 0.0\n-1e300 0.0\n")
    with pytest.raises(SystemExit) as err, np.errstate(over="ignore", invalid="ignore"):
        cli.main(["ineq", "--trials", "2", "--load", str(dump)])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == "error: jensen_scalar trial 0 has gap inf, not a finite number\n"


def test_ineq_names_the_first_non_finite_gap_across_blocks(monkeypatch, capsys):
    def block(rngs, args, loaded):
        first = int(rngs[0].bit_generator.seed_seq.spawn_key[1])
        lhs, rhs = np.zeros((2, len(rngs), 3))
        for trial in (130, 131):
            if first <= trial < first + len(rngs):
                rhs[trial - first, 1] = math.nan
        return lhs, rhs, None

    monkeypatch.setattr(cli, "SUITES", (("fake", block),))
    with pytest.raises(SystemExit) as err:
        cli.main(["ineq", "--trials", "200"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: fake trial 130 has gap nan, not a finite number\n"


def test_ineq_min_gap_is_the_first_of_tied_zeros(monkeypatch, capsys):
    # gaps 0.0 then -0.0 in every trial: the summary keeps the first, as min() over them does
    def block(rngs, args, loaded):
        rhs = np.zeros((len(rngs), 2))
        rhs[:, 1] = -0.0
        return np.zeros_like(rhs), rhs, None

    monkeypatch.setattr(cli, "SUITES", (("fake", block),))
    code, out = run_cli(capsys, "ineq", "--trials", "200")
    assert code == 0 and json.loads(out)["min_gap"] == 0.0 and '"min_gap": 0.0,' in out


def test_ineq_dump_keeps_the_first_of_tied_gaps(tmp_path, capsys):
    # at 3x1 every 1x1 partial-trace case has gap exactly 0, and none is negative
    dump = tmp_path / "worst.op"
    argv = ["ineq", "--trials", "35", "--seed", "1", "--dims", "3x1", "--functions", "pospart,square",
            "--dump", str(dump)]
    expected, expected_dump = ineq_by_trials(cli.build_parser().parse_args(argv))
    partial = json.loads(expected.splitlines()[1])
    assert partial["suite"] == "jensen_partial_trace" and partial["min_gap"] == 0.0
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == expected
    assert dump.read_text() == expected_dump


def test_ineq_stack_out_of_contract_exits_three(monkeypatch, capsys):
    eigh = np.linalg.eigh

    def skewed(a):
        vals, vecs = eigh(a)
        if a.ndim == 3 and len(a) > 3:
            vecs = vecs.copy()
            vecs[3] *= 2.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    code = cli.main(["ineq", "--trials", "40", "--seed", "1", "--dims", "2x2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: eigendecomposition residuals out of contract at stack index 3:")


# weyl ------------------------------------------------------------------------


def test_weyl_counting_csv(capsys):
    code, out = run_cli(
        capsys,
        "weyl", "--gamma", "2", "--lambda", "40,100,200,400", "--box", "24", "--points", "4799",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,N_discrete,prediction,ratio"
    row100 = dict(zip(("lam", "n", "pred", "ratio"), lines[2].split(",")))
    assert row100["lam"] == "100"
    assert int(float(row100["n"])) == 50
    assert float(row100["pred"]) == pytest.approx(50.0, rel=1e-9)
    assert abs(float(row100["ratio"]) - 1.0) <= 0.02
    footer = lines[-1].split(",")
    assert footer[0] == "exponent"
    assert abs(float(footer[1]) - 1.0) <= 0.02


def test_weyl_empty_lambda_list_header_only(capsys):
    code, out = run_cli(capsys, "weyl", "--gamma", "2", "--lambda", "")
    assert code == 0
    assert out == "lambda,N_discrete,prediction,ratio\n"


def test_weyl_heat_mode(capsys):
    code, out = run_cli(
        capsys,
        "weyl", "--gamma", "2", "--t", "0.05", "--box", "40", "--points", "7999",
        "--method", "truncated",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,trace_discrete,prediction,ratio"
    _, tr, pred, ratio = lines[1].split(",")
    assert float(pred) == pytest.approx(10.0, rel=1e-9)  # 0.25 * t^-1 * 2
    assert abs(float(ratio) - 1.0) <= 0.02


def test_weyl_divergent_prediction_inf_column(capsys):
    code, out = run_cli(
        capsys,
        "weyl", "--gamma", "2", "--profile", "1,0", "--lambda", "10", "--box", "6", "--points", "199",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "inf"
    assert row[3] == ""


def test_zero_count_against_a_zero_law_has_no_ratio(capsys):
    # the lone x = 0 node between two hard walls, above lambda = 10
    code, out = run_cli(
        capsys, "weyl", "--gamma", "1e300", "--profile", "inf", "--lambda", "10", "--box", "6", "--points", "601"
    )
    assert code == 0
    assert out == "lambda,N_discrete,prediction,ratio\n10,0,0,\n"
    # a positive value against a zero law keeps its infinite ratio
    table = cli._law_table("h", [10.0], [3.0], asymptotics.Prediction("counting", 1.0, 0.0), None)
    assert table == "h\n10,3,0,inf\n"


@pytest.mark.parametrize(
    "argv, lam, nodes",
    [
        (["weyl", "--gamma", "1e300", "--profile", "1,inf", "--lambda", "1e300"], "1e+300", 100),
        (["weyl", "--gamma", "1e300", "--profile", "inf", "--lambda", "10,1e300", "--box", "6", "--points", "601"],
         "1e+300", 1),
        (["weyl", "--gamma", "2", "--lambda", "30000,50000", "--box", "3", "--points", "599"], "50000.0", 599),
        (["simon", "--alpha", "1", "--beta", "2", "--lambda", "3,2000", "--box", "8,4", "--points", "20,10",
          "--zeta-points", "199"], "2000.0", 200),
    ],
)
def test_count_of_every_finite_node_is_refused(capsys, argv, lam, nodes):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: N(lambda={lam}) = {nodes} counts every finite-sample node")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("profile, nodes", [("1", 199), ("1,inf", 100)])
def test_heat_trace_of_every_finite_node_is_refused(capsys, profile, nodes):
    # every exp(-t E) rounds to 1 at t = 1e-300: the trace is the node count
    with pytest.raises(SystemExit) as err:
        cli.main(["weyl", "--gamma", "1e300", "--profile", profile, "--t", "1e-300"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == (
        f"error: Tr exp(-tH) at t=1e-300 = {nodes} counts every finite-sample node of the grid; "
        "it measures the grid, not the operator (refine the grid or raise t)\n"
    )


def test_heat_traces_refuse_only_a_saturated_trace():
    op = schrodinger.build_hamiltonian(schrodinger.Homogeneous(2.0, 1, (1.0, 1.0)), 6.0, 61)
    traces = cli._grid_values(op, [0.5, 1.0], "dense")
    assert traces == schrodinger.heat_trace(op, np.array([0.5, 1.0])).tolist()
    assert 0 < traces[1] < traces[0] < 61
    with pytest.raises(ValueError, match=r"^Tr exp\(-tH\) at t=1e-300 = 61 counts every finite-sample node"):
        cli._grid_values(op, [1.0, 1e-300], "truncated")


def test_weyl_rejects_both_scales(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["weyl", "--lambda", "1", "--t", "1"])
    assert err.value.code == 2


# simon / zeta ----------------------------------------------------------------


def test_simon_small_run_csv(capsys):
    code, out = run_cli(
        capsys,
        "simon", "--alpha", "1", "--beta", "2", "--lambda", "3,4,5",
        "--box", "16,5", "--points", "120,40", "--zeta-points", "999",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,N_discrete,prediction,ratio"
    assert len(lines) == 5  # header + 3 rows + footer
    footer = lines[-1].split(",")
    assert footer[0] == "exponent" and footer[2] == "target"
    assert float(footer[3]) == pytest.approx(2.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--alpha", "2", "--beta", "1"],
        ["constants", "--alpha", "1", "--beta", "1"],
        ["constants", "--alpha", "1", "--beta", "2", "--m", "1", "--n", "2"],
        ["simon", "--alpha", "2", "--beta", "1", "--lambda", "3"],
        ["zeta", "--alpha", "2", "--beta", "1"],
    ],
)
def test_partial_regime_refusals_share_the_library_message(capsys, argv):
    with pytest.raises(ValueError) as library:
        asymptotics.check_partial_regime(2.0, 1.0)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == f"error: {library.value}\n"


def test_constants_zero_exponent_gets_the_constructor_message(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["constants", "--alpha", "0", "--beta", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: alpha and beta must be positive and finite, got 0.0, 2.0\n"


@pytest.mark.parametrize(
    "argv, flag, bad",
    [
        (["weyl", "--t", "0"], "--t", "0.0"),
        (["weyl", "--t", "0.1,0"], "--t", "0.0"),
        (["weyl", "--t", "-1"], "--t", "-1.0"),
        (["weyl", "--t", "0.1,-1", "--box", "10"], "--t", "-1.0"),
        (["weyl", "--lambda", "-5"], "--lambda", "-5.0"),
        (["weyl", "--lambda", "nan"], "--lambda", "nan"),
        (["simon", "--alpha", "1", "--beta", "2", "--lambda", "inf"], "--lambda", "inf"),
        (["simon", "--alpha", "1", "--beta", "2", "--lambda", "0.5,-2"], "--lambda", "-2.0"),
        (["simon", "--alpha", "1", "--beta", "2", "--lambda", "nan"], "--lambda", "nan"),
    ],
)
def test_non_positive_or_non_finite_scale_is_usage_error(capsys, argv, flag, bad):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == f"error: {flag} values must be finite and positive, got {bad}\n"


def test_zeta_oscillator_transverse(capsys):
    code, out = run_cli(capsys, "zeta", "--alpha", "1", "--beta", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["omega"] for r in rows} == {1, -1}
    for r in rows:
        assert r["p"] == pytest.approx(2.0)
        assert r["zeta"] == pytest.approx(math.pi**2 / 8.0, rel=0.01)


ZETA_SMALL = ["zeta", "--alpha", "1", "--beta", "2", "--zeta-points", "199"]


def test_zeta_divergent_trace_is_strict_json_null(capsys):
    code, out = run_cli(capsys, *ZETA_SMALL, "--p", "0.5")

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    rows = [json.loads(line, parse_constant=refuse) for line in out.strip().splitlines()]
    assert code == 0 and [(r["omega"], r["zeta"]) for r in rows] == [(1, None), (-1, None)]


def test_zeta_profile_pair_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["zeta", "--alpha", "1", "--beta", "2", "--profile", "1,2"])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1


def test_quadrant_profile_one_or_four_values(capsys):
    code1, out1 = run_cli(capsys, *ZETA_SMALL, "--profile", "1")
    code4, out4 = run_cli(capsys, *ZETA_SMALL, "--profile", "1,1,1,1")
    assert code1 == code4 == 0
    assert out4 == out1
    code, out = run_cli(capsys, *ZETA_SMALL, "--profile", "1,2,3,4")
    assert code == 0
    zetas = {row["omega"]: row["zeta"] for row in map(json.loads, out.strip().splitlines())}
    assert zetas[1] != zetas[-1]  # pp,pm = 1,2 against mp,mm = 3,4
    code, out = run_cli(
        capsys,
        "simon", "--alpha", "1", "--beta", "2", "--profile", "1,2,3,4", "--lambda", "3,4,5",
        "--box", "16,5", "--points", "120,40", "--zeta-points", "999",
    )
    assert code == 0 and out.startswith("lambda,N_discrete,prediction,ratio\n")


profile_texts = st.one_of(
    st.text(alphabet="0123456789.,-+eEinfa ", max_size=24),
    st.lists(
        st.one_of(st.floats(), st.integers(-10, 10)), min_size=0, max_size=5
    ).map(lambda vals: ",".join(str(v) for v in vals)),
)


# capsys is drained by every example, so sharing it across examples is safe
@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(profile_texts)
def test_fuzzed_zeta_profile_never_tracebacks(capsys, text):
    try:
        code = cli.main(ZETA_SMALL + [f"--profile={text}"])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), text
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err


def test_non_finite_profile_is_usage_error(capsys):
    cases = [
        ["zeta", "--alpha", "1", "--beta", "2", "--profile", "nan"],
        ["zeta", "--alpha", "1", "--beta", "2", "--profile", "inf,1,1,1"],
        ["weyl", "--profile", "nan"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "profile values must be nonnegative" in errors[0], argv


@pytest.mark.parametrize(
    "argv, message",
    [
        # V = 0 on an open quadrant: zeta printed 367.58 for omega = +1, a number set by the box
        (["zeta", "--alpha", "1", "--beta", "2", "--profile", "0,1,1,1"],
         "error: F(+1,+1) = 0: V vanishes on that open quadrant of (sign x, sign y)"),
        # simon sized the channel box from a probe energy and asked for 1234987130 nodes
        (["simon", "--alpha", "1", "--beta", "2", "--profile", "0,0,1,1", "--lambda", "5"],
         "error: F(+1,+1) = F(+1,-1) = 0: V vanishes on those open quadrants of (sign x, sign y)"),
        # four nodes, all behind the hard walls: no finite sample to count
        (["weyl", "--profile", "inf", "--box", "2", "--points", "4", "--lambda", "1"],
         "error: Homogeneous(gamma=2.0, d=1, profile=(inf, inf)) is +inf at all 4 nodes; "
         "a 1d grid needs a finite sample"),
    ],
    ids=["zeta-one-zero-quadrant", "simon-two-zero-quadrants", "weyl-all-walls"],
)
def test_open_quadrants_and_all_wall_grids_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()] and captured.err.startswith(message)


SIMON_SMALL = ["simon", "--alpha", "1", "--beta", "2", "--lambda", "3", "--zeta-points", "199"]


def test_argument_type_errors_state_the_reason(capsys):
    cases = [
        (["zeta", "--alpha", "1", "--beta", "2", "--profile=-1"], "profile values must be nonnegative"),
        (["weyl", "--lambda", "abc"], "expected comma-separated numbers, got 'abc'"),
        (["ineq", "--functions", "bogus"], "unknown function 'bogus'"),
        (SIMON_SMALL + ["--box", "16"], "argument --box: expected two comma-separated numbers, got '16'"),
        (SIMON_SMALL + ["--points", "120"], "argument --points: expected two comma-separated integers, got '120'"),
        (SIMON_SMALL + ["--points", "120.5,40"], "argument --points: expected two comma-separated integers"),
        (["weyl", "--lambda", "10", "--box", "10,99"], "argument --box: expected one number, got '10,99'"),
        (["weyl", "--lambda", "10", "--points", "999.7"], "argument --points: expected one integer, got '999.7'"),
        (["ineq", "--trials", "0"], "error: --trials must be at least 1\n"),
        (["ineq", "--dims", "0x3"], "argument --dims: --dims must be positive, got '0x3'"),
    ]
    for argv, reason in cases:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        stderr = capsys.readouterr().err
        assert err.value.code == 2, argv
        assert reason in stderr, argv
        assert "_parse_" not in stderr and "<lambda>" not in stderr, argv


# constants -------------------------------------------------------------------


def test_constants_gamma_mode(capsys):
    code, out = run_cli(capsys, "constants", "--gamma", "2", "--d", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["C"] == pytest.approx(0.25, abs=1e-12)
    assert obj["Cprime"] == pytest.approx(0.25, abs=1e-12)
    assert obj["exponent"] == pytest.approx(1.0)


def test_constants_partial_mode(capsys):
    code, out = run_cli(capsys, "constants", "--alpha", "1", "--beta", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["divergence"] == "half_pi"
    assert obj["exponent"] == pytest.approx(2.5)
    assert obj["zeta_power"] == pytest.approx(2.0)
    # just inside the regime (1/0.09999999999999 > 2/0.2): a finite exponent, so pi/2 alone diverges
    code, out = run_cli(capsys, "constants", "--alpha", "0.09999999999999", "--beta", "0.2", "--n", "2")
    assert code == 0 and json.loads(out)["divergence"] == "half_pi"


# stdout of growth-law commands, byte for byte: a last-bit change in a constant or exponent shows here
PINNED = {
    ("constants", "--gamma", "3.7", "--d", "2"):
        '{"gamma": 3.7, "d": 2, "C": 0.02582777585263212, "Cprime": 0.03534086980555727, '
        '"exponent": 1.5405405405405406}\n',
    # the summation order of the log prefix shows in these last bits
    ("constants", "--gamma", "3.3", "--d", "2"):
        '{"gamma": 3.3, "d": 2, "C": 0.024774118500153527, "Cprime": 0.035579575424283014, '
        '"exponent": 1.6060606060606062}\n',
    ("constants", "--alpha", "1.3", "--beta", "2.7", "--m", "2"):
        '{"alpha": 1.3, "beta": 2.7, "m": 2, "n": 1, "C": 0.00862089275081101, "Cprime": 0.5441445530956613, '
        '"exponent": 4.615384615384615, "zeta_power": 3.6153846153846154, "divergence": "half_pi"}\n',
    # m (alpha + beta + 2) / (2 alpha) and m ((alpha + beta + 2) / (2 alpha)) differ here
    ("constants", "--alpha", "1.3", "--beta", "4", "--m", "3"):
        '{"alpha": 1.3, "beta": 4.0, "m": 3, "n": 1, "C": 0.0003206220991649081, "Cprime": 32.309412730609964, '
        '"exponent": 8.423076923076922, "zeta_power": 6.9230769230769225, "divergence": "half_pi"}\n',
    # 2/1 > 3/2: inside the partial regime
    ("constants", "--alpha", "1", "--beta", "2", "--m", "2", "--n", "3"):
        '{"alpha": 1.0, "beta": 2.0, "m": 2, "n": 3, "C": 0.007957747154594765, "Cprime": 0.9549296585513726, '
        '"exponent": 5.0, "zeta_power": 4.0, "divergence": "half_pi"}\n',
    ("weyl", "--gamma", "3.3", "--profile", "1,2", "--lambda", "10,20,40"):
        "lambda,N_discrete,prediction,ratio\n10,3,3.122698931,0.960707\n20,5,5.448366616,0.917706\n"
        "40,10,9.506103355,1.051956\nexponent,0.868483,,\n",
    ("zeta", "--alpha", "0.7", "--beta", "3", "--profile", "1,2,3,4"):
        '{"omega": 1, "p": 3.5714285714285716, "zeta": 0.5825052820059705}\n'
        '{"omega": -1, "p": 3.5714285714285716, "zeta": 0.1592301348719266}\n',
}


@pytest.mark.parametrize("argv", PINNED, ids=" ".join)
def test_law_outputs_are_pinned_byte_for_byte(capsys, argv):
    assert run_cli(capsys, *argv) == (0, PINNED[argv])


# ineq stdout and the sha256 of its --dump, byte for byte: ineq_by_trials shares the
# private *_sides helpers with the CLI, so a last-bit drift in them shows only here
INEQ_PINNED = {
    ("ineq", "--trials", "200", "--seed", "3", "--dims", "6x6", "--functions", "expneg,square,pospart,affine"): (
        '{"suite": "jensen_scalar", "trials": 200, "evaluations": 1200, "min_gap": -1.0880185641326534e-14, '
        '"violations": 0}\n'
        '{"suite": "jensen_partial_trace", "trials": 200, "evaluations": 1200, "min_gap": -9216.0, "violations": 0}\n'
        '{"suite": "golden_thompson", "trials": 200, "evaluations": 200, "min_gap": 0.10239235602407204, '
        '"violations": 0}\n'
        '{"suite": "sliced_gt", "trials": 200, "evaluations": 200, "min_gap": 6.624851304160018e-05, '
        '"violations": 0}\n'
        '{"suite": "gibbs", "trials": 200, "evaluations": 200, "min_gap": 0.05139215616895787, "violations": 0}\n',
        "d9b6897a6dfd7b4a2113a7a9a35fc125f57c78841940c39c4687f6a73b0a0fa5",
    ),
    ("ineq", "--trials", "200", "--seed", "3", "--dims", "1x5", "--functions", "expneg,square,pospart,affine"): (
        '{"suite": "jensen_scalar", "trials": 200, "evaluations": 1200, "min_gap": -4.440892098500626e-15, '
        '"violations": 0}\n'
        '{"suite": "jensen_partial_trace", "trials": 200, "evaluations": 1200, "min_gap": -6422528.0, '
        '"violations": 0}\n'
        '{"suite": "golden_thompson", "trials": 200, "evaluations": 200, "min_gap": 0.0004490749479035827, '
        '"violations": 0}\n'
        '{"suite": "sliced_gt", "trials": 200, "evaluations": 200, "min_gap": -7.105427357601002e-15, '
        '"violations": 0}\n'
        '{"suite": "gibbs", "trials": 200, "evaluations": 200, "min_gap": -2.220446049250313e-16, "violations": 0}\n',
        "04da342f550979ce3c95d7bfd06fc3cd4949b72bb7c554b0ff1e2461bbe0753d",
    ),
}


@pytest.mark.parametrize("argv", INEQ_PINNED, ids=" ".join)
def test_ineq_output_and_dump_are_pinned_byte_for_byte(tmp_path, capsys, argv):
    stdout, dump_sha256 = INEQ_PINNED[argv]
    dump = tmp_path / "worst.op"
    assert run_cli(capsys, *argv, "--dump", str(dump)) == (0, stdout)
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == dump_sha256


def test_constants_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["constants"])
    assert err.value.code == 2


def test_malformed_flags_exit_two(tmp_path, capsys):
    bad_dump = tmp_path / "bad.op"
    bad_dump.write_text("dims 2 2\n")
    cases = [
        ["ineq", "--dims", "six-by-six"],
        ["weyl", "--gamma", "two"],
        ["nosuchcommand"],
        ["ineq", "--functions", "bogus"],
        ["ineq", "--trials", "1", "--load", str(bad_dump)],
        ["ineq", "--trials", "1", "--load", str(tmp_path / "missing.op")],
        ["weyl", "--gamma", "-1", "--lambda", "10"],
        ["weyl", "--lambda", "10", "--points", "1000000000"],  # node cap, checked before any allocation
        # overflowing results: input errors, not inequality violations
        ["constants", "--gamma", "0.01", "--d", "2"],
        ["constants", "--alpha", "0.1", "--beta", "100", "--m", "3"],
        ["weyl", "--gamma", "1e-3", "--lambda", "10"],
        *TINY_BOXES,
        *map(list, OVERFLOWS),
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv
        message = capsys.readouterr().err
        assert "error:" in message, argv
        assert all(words in message for words in OVERFLOWS.get(tuple(argv), ())), message


# parameters whose potential, box, law or zeta sum overflows, and the words their message must hold
OVERFLOWS = {
    # |y|^1e300 is +inf for |y| > 1: the 2d count takes finite samples only
    ("simon", "--alpha", "1", "--beta", "1e300", "--lambda", "3", "--box", "8,2", "--points", "40,20",
     "--zeta-points", "199"): ("SeparatelyHomogeneous(alpha=1.0, beta=1e+300", "+inf at 400 of 800 nodes"),
    ("simon", "--alpha", "1", "--beta", "1e300", "--lambda", "3", "--zeta-points", "199"):
        ("alpha=1.0, beta=1e+300 at lambda=3.0",),
    ("simon", "--alpha", "1", "--beta", "2000", "--lambda", "3,6,9,12", "--box", "8,1", "--points", "40,20",
     "--zeta-points", "199"): ("partial_counting law", "lambda^1001.5", "lambda=3.0"),
    ("zeta", "--alpha", "1", "--beta", "inf"): ("alpha and beta must be positive and finite",),
    ("weyl", "--gamma", "inf", "--lambda", "10"): ("gamma must be positive and finite",),
    # a hard wall on both sides: the boundary rule's box is 0, and no --box was given
    ("weyl", "--gamma", "1e300", "--profile", "inf", "--lambda", "10"):
        ("profile (inf, inf) at gamma=1e+300 leaves no box", "is 0.0"),
    ("weyl", "--gamma", "1e300", "--profile", "inf", "--t", "1"): ("profile (inf, inf)", "V reaches 80.0"),
    ("zeta", "--alpha", "1", "--beta", "2", "--p", "1e300", "--zeta-points", "199"): ("p=1e+300",),
    ("constants", "--gamma", "inf", "--d", "1"): ("gamma must be positive and finite, got inf",),
    # 2 alpha / (beta + 2) underflows to 0
    ("constants", "--alpha", "1e-300", "--beta", "1e300"): ("underflows to 0", "alpha=1e-300, beta=1e+300"),
}


# boxes so small that the stencil's diagonal offset 2/h^2 is not a finite number
TINY_BOXES = [
    ["weyl", "--lambda", "10", "--box", "1e-300", "--points", "601"],
    ["weyl", "--lambda", "10", "--box", "3e-152", "--points", "601"],
    ["weyl", "--t", "0.1,1", "--box", "3e-152", "--points", "601"],
    ["simon", "--alpha", "1", "--beta", "2", "--zeta-box", "1e-300", "--zeta-points", "199"],
    ["simon", "--alpha", "1", "--beta", "2", "--lambda", "3", "--box", "1e-300,5", "--zeta-points", "199"],
]


# Edge arguments: tiny and huge exponents, vanishing and infinite profile
# entries, non-finite and extreme scales, a zeta grid too small to fit, an
# operator beyond the tensor dimension cap and a negative seed.
WEYL_SCALES = (
    ["--lambda", "1e-300,10"],
    ["--lambda", "1e300"],
    ["--lambda", "10,1e300", "--box", "6", "--points", "601"],
    ["--t", "1e-300"],
    ["--t", "1,1e300", "--method", "truncated"],
    ["--t", "nan"],
)
EDGE_ARGV = (
    [
        ["weyl", "--gamma", gamma, "--profile", profile, *scales]
        for gamma in ("1e-300", "1e-3", "2", "1e300")
        for profile in ("1", "0,1", "1,inf", "inf")
        for scales in WEYL_SCALES
    ]
    + [
        [cmd, "--alpha", alpha, "--beta", beta, "--profile", profile, *extra]
        for alpha, beta in (("1e-300", "2"), ("1", "1e300"), ("1", "inf"), ("nan", "2"))
        for profile in ("1", "0", "1,0,1,1")
        for cmd, extra in (
            ("simon", ["--zeta-points", "5"]),
            ("simon", ["--lambda", "3", "--zeta-points", "199"]),
            ("zeta", ["--zeta-points", "199"]),
        )
    ]
    + [
        ["simon", "--alpha", "1", "--beta", "2", "--lambda", lam, "--zeta-points", "199"]
        for lam in ("1e-300", "1e300", "inf", "nan")
    ]
    + TINY_BOXES
    + [
        ["zeta", "--alpha", "1", "--beta", "2", "--p", p, "--zeta-points", points]
        for p in ("1e-300", "1e300", "inf", "nan")
        for points in ("5", "199")
    ]
    + [
        ["constants", "--gamma", gamma, "--d", d]
        for gamma in ("1e-300", "0.01", "1e300", "inf", "nan")
        for d in ("1", "2")
    ]
    + [
        ["constants", "--alpha", alpha, "--beta", beta, "--m", m]
        for alpha, beta in (
            ("0.1", "100"), ("1e-300", "1e300"), ("1e300", "1e-300"), ("inf", "inf"), ("nan", "2")
        )
        for m in ("1", "3")
    ]
    + [OVERSIZED_DIMS, ["ineq", "--trials", "1", "--seed", "-1"]]
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", EDGE_ARGV, ids=" ".join)
def test_edge_arguments_exit_without_traceback(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert code == 0 or err.count("error:") == 1


def test_weyl_hard_wall_profile_counts(capsys):
    # the default grid has a node at x = 0; V(0) = 0 there, not 0 * inf
    code, out = run_cli(capsys, "weyl", "--gamma", "2", "--profile", "1,inf", "--lambda", "10,20,40")
    assert code == 0
    # the half oscillator's eigenvalues are 3, 7, 11, ...
    assert [line.split(",")[1] for line in out.splitlines()[1:4]] == ["2", "5", "10"]


def test_lapack_non_convergence_exit_three(capsys):
    # heat_box makes the box about 1e-149 wide, so the eigenvalues sit near
    # 1e299 and the bisection window ends at 40 / t = 4e-299
    code = cli.main(["weyl", "--t", "1e300", "--method", "truncated"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("error:") == 1 and "did not converge" in captured.err


def test_numerical_contract_error_exit_three(monkeypatch, capsys):
    def refuse(op, shift):
        raise RuntimeError("block factorization broke down in both row orders")

    monkeypatch.setattr(schrodinger, "_count_below", refuse)
    code = cli.main(
        ["simon", "--alpha", "1", "--beta", "2", "--lambda", "3",
         "--box", "8,4", "--points", "20,10", "--zeta-points", "199"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.strip() == "error: block factorization broke down in both row orders"
    assert captured.out == ""
