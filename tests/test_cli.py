import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semispec import cli, schrodinger
from semispec.bipartite import parse_bipartite_operator


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# determinism and output formats ----------------------------------------------


def test_ineq_deterministic_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["ineq", "--trials", "2", "--seed", "42", "--out", str(out1)]) == 0
    assert cli.main(["ineq", "--trials", "2", "--seed", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
    monkeypatch.setattr(cli.inequalities, "violates", lambda gap, rhs, tol=0.0: True)
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


def test_simon_wrong_regime_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["simon", "--alpha", "2", "--beta", "1", "--lambda", "3"])
    assert err.value.code == 2


def test_zeta_oscillator_transverse(capsys):
    code, out = run_cli(capsys, "zeta", "--alpha", "1", "--beta", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["omega"] for r in rows} == {1, -1}
    for r in rows:
        assert r["p"] == pytest.approx(2.0)
        assert r["zeta"] == pytest.approx(math.pi**2 / 8.0, rel=0.01)


ZETA_SMALL = ["zeta", "--alpha", "1", "--beta", "2", "--zeta-points", "199"]


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


def test_constants_requires_a_mode(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["constants"])
    assert err.value.code == 2


def test_malformed_flags_exit_two(tmp_path, capsys):
    bad_dump = tmp_path / "bad.op"
    bad_dump.write_text("dims 2 2\n")
    bad_potential = tmp_path / "bad.pot"
    bad_potential.write_text("homogeneous d=1\n")
    cases = [
        ["ineq", "--dims", "six-by-six"],
        ["weyl", "--gamma", "two"],
        ["nosuchcommand"],
        ["ineq", "--functions", "bogus"],
        ["ineq", "--trials", "1", "--load", str(bad_dump)],
        ["ineq", "--trials", "1", "--load", str(tmp_path / "missing.op")],
        ["weyl", "--gamma", "-1", "--lambda", "10"],
        ["weyl", "--lambda", "10", "--points", "1e9"],  # node cap, checked before any allocation
        ["weyl", "--potential-file", str(bad_potential), "--lambda", "10"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv


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


def test_weyl_potential_file(tmp_path, capsys):
    cfg = tmp_path / "pot.txt"
    cfg.write_text("homogeneous gamma=2.0 d=1 profile=1.0,1.0\n")
    code, out = run_cli(
        capsys,
        "weyl", "--potential-file", str(cfg), "--lambda", "100", "--box", "24", "--points", "2399",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("100,50,")
