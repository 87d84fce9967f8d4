import json
import math

import numpy as np
import pytest

import hillstab
from hillstab import cli
from hillstab import coeff as cf
from hillstab import lyapunov as ly

T = 2 * math.pi


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def coeff_file(tmp_path, a, name="a.json"):
    p = tmp_path / name
    p.write_text(a.to_json())
    return str(p)


def test_eigs_zero_coefficient(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, out = run(capsys, "eigs", f, "--count", "5", "--bc", "periodic")
    assert code == 0
    doc = json.loads(out)
    vals = [e["value"] for e in doc["periodic"]]
    assert vals == pytest.approx([0, 1, 1, 4, 4], abs=1e-8)
    assert doc["manifest"]["command"] == "eigs"
    assert doc["manifest"]["tolerances"]["root"] == 1e-10
    assert doc["manifest"]["tool_version"] == hillstab.__version__


def test_tolerance_overrides_last_one_call(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, out = run(capsys, "--tol-root", "1e-4", "--tol-quad", "1e-3",
                    "eigs", f, "--count", "2")
    assert code == 0
    tol = json.loads(out)["manifest"]["tolerances"]
    assert (tol["root"], tol["quad"]) == (1e-4, 1e-3)
    code, out = run(capsys, "eigs", f, "--count", "2")
    assert code == 0
    assert json.loads(out)["manifest"]["tolerances"] == {
        "quad": 1e-10, "root": 1e-10, "boundary": 1e-7, "ode": 1e-12,
        "residual": 1e-8, "cluster": 1e-6, "sandwich_grid": 256,
        "quad_budget": 1_000_000, "dominance_samples": 16384, "x0_grid": 1024}


def test_eigs_antiperiodic(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, out = run(capsys, "eigs", f, "--count", "4", "--bc", "antiperiodic")
    assert code == 0
    vals = [e["value"] for e in json.loads(out)["antiperiodic"]]
    assert vals == pytest.approx([0.25, 0.25, 2.25, 2.25], abs=1e-8)


def test_eigs_malformed_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("this is not json")
    code, _ = run(capsys, "eigs", str(p))
    assert code == cli.EXIT_PARSE
    # not UTF-8: one error line, no traceback, for coefficients and problems
    raw = tmp_path / "bad.bin"
    raw.write_bytes(b"\x80\x81\xff")
    for argv in (["eigs", str(raw)], ["nonlinear", "check", str(raw)]):
        assert cli.main(argv) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    # expressions too deep to walk, a NaN piece bound, a document that is
    # not an object: each one error line, no traceback
    docs = [{"period": T, "pieces": [{"from": 0.0, "to": T, "expr": text}]}
            for text in ("(" * 400 + "x" + ")" * 400, "-" * 3000 + "1",
                         "+".join(["1"] * 5000))]
    docs.append({"period": T, "pieces": [
        {"from": 0.0, "to": float("nan"), "expr": "1"},
        {"from": 1.0, "to": T, "expr": "1"}]})
    for doc in docs:
        p.write_text(json.dumps(doc))
        assert cli.main(["eigs", str(p)]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    p.write_text("[1, 2]")
    assert cli.main(["--period-override", "3", "eigs", str(p)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_eigs_missing_file(capsys):
    code, _ = run(capsys, "eigs", "/nonexistent/x.json")
    assert code == cli.EXIT_PARSE


def test_period_override_conflict(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, _ = run(capsys, "--period-override", "3.14", "eigs", f)
    assert code == cli.EXIT_PARSE


def test_period_override_applied(tmp_path, capsys):
    p = tmp_path / "nop.json"
    doc = cf.constant(0.0, T).to_dict()
    del doc["period"]
    p.write_text(json.dumps(doc))
    code, out = run(capsys, "--period-override", str(T), "eigs", str(p),
                    "--count", "3", "--bc", "periodic")
    assert code == 0
    vals = [e["value"] for e in json.loads(out)["periodic"]]
    assert vals == pytest.approx([0, 1, 1], abs=1e-8)


def test_certify_with_verify(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(1.1, T))
    code, out = run(capsys, "certify", f, "--n", "1", "--verify")
    assert code == 0
    doc = json.loads(out)
    by_id = {c["theorem_id"]: c for c in doc["certificates"]}
    assert by_id["L1_PERIODIC_N"]["holds"] is True
    confirmed = [v for v in doc["verification"] if "confirmed" in v]
    assert confirmed and all(v["confirmed"] for v in confirmed)


def test_certify_verify_beyond_n3(tmp_path, capsys):
    # lam_8 = 4^2 - 16.5 = -0.5 < 0 < lam_9 = 5^2 - 16.5 = 8.5
    f = coeff_file(tmp_path, cf.constant(16.5, T))
    code, out = run(capsys, "certify", f, "--n", "4", "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]
    l1 = [v for v in checks if v.get("theorem_id") == "L1_PERIODIC_N"]
    assert l1 == [{"theorem_id": "L1_PERIODIC_N", "n_or_p": 4,
                   "confirmed": True}]


def test_verification_lists_both_spectra(tmp_path, capsys):
    # a = 16.5, T = 2 pi: lam = k^2 - 16.5 and alam = (k + 1/2)^2 - 16.5,
    # each twice; --n 4 sizes one spectrum of 10 eigenvalues of each kind
    f = coeff_file(tmp_path, cf.constant(16.5, T))
    code, out = run(capsys, "certify", f, "--n", "4", "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]
    lam = next(v["periodic_eigenvalues"] for v in checks
               if "periodic_eigenvalues" in v)
    alam = next(v["antiperiodic_eigenvalues"] for v in checks
                if "antiperiodic_eigenvalues" in v)
    k = np.arange(10)
    assert lam == pytest.approx(((k + 1) // 2) ** 2 - 16.5, abs=1e-6)
    assert alam == pytest.approx((k // 2 + 0.5) ** 2 - 16.5, abs=1e-6)


def test_library_error_exit_1(capsys):
    assert cli.main(["witness", "a-eps", "--eps", "10"]) == 1
    assert "eps must lie" in capsys.readouterr().err


def test_first_zone_verification_needs_zone_0():
    # a = 2, T = pi: lam_0 = -2 < alam_1 = alam_2 = -1 < 0 < lam_1 = 2, so
    # mu = 0 is stable but in zone 1, not the zone LINF_FIRST_ZONE claims
    a = cf.constant(2.0, math.pi)
    forged = ly.Certificate("LINF_FIRST_ZONE", None, {}, True,
                            "lambda_0(a) < 0 < anti_lambda_1(a)")
    assert not cli._conclusion_confirmed(a, forged, {})


@pytest.mark.parametrize("argv", [
    ["eigs", "FILE", "--count", "0"],
    ["chart", "FILE", "--mu-from", "0", "--mu-to", "1", "--points", "0"],
    ["constants", "--n-max", "-1"],
    ["certify", "FILE", "--n", "0"],
    ["zeros", "FILE", "--n", "0"],
    ["witness", "a-eps", "--n", "0"],
    ["nonlinear", "check", "FILE", "--n", "0"],
    ["nonlinear", "solve", "FILE", "--starts", "0"],
])
def test_bad_counts_rejected(tmp_path, capsys, argv):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    argv = [f if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE


@pytest.mark.parametrize("argv", [
    ["--tol-root", "-1", "eigs", "FILE"],
    ["--tol-root", "0", "eigs", "FILE"],
    ["--tol-quad", "nan", "certify", "FILE"],
    ["--period-override", "inf", "eigs", "FILE"],
    ["constants", "--period", "inf"],
    ["chart", "FILE", "--mu-from", "0", "--mu-to", "inf", "--points", "3"],
    ["chart", "FILE", "--mu-from", "nan", "--mu-to", "1"],
    ["witness", "a-eps", "--eps", "nan"],
    ["witness", "two-step", "--alpha=-inf"],
    ["witness", "two-step", "--x0", "inf"],
])
def test_bad_floats_rejected(tmp_path, capsys, argv):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    argv = [f if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE


def test_certify_theorem_filter(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(1.1, T))
    code, out = run(capsys, "certify", f, "--n", "1",
                    "--theorem", "L1_PERIODIC_N")
    assert code == 0
    doc = json.loads(out)
    assert [c["theorem_id"] for c in doc["certificates"]] == ["L1_PERIODIC_N"]


def test_constants_json_and_csv(tmp_path, capsys):
    code, out = run(capsys, "constants", "--n-max", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[1]["beta1"] == pytest.approx(8.0)
    code, out = run(capsys, "constants", "--n-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 4  # header + n = 0, 1, 2


def test_constants_deterministic(capsys):
    _, out1 = run(capsys, "constants", "--n-max", "5")
    _, out2 = run(capsys, "constants", "--n-max", "5")
    assert out1 == out2


def test_witness_roundtrip_through_certify(tmp_path, capsys):
    out_file = str(tmp_path / "aeps.json")
    code, _ = run(capsys, "witness", "a-eps", "--n", "1", "--eps", "0.05",
                  "--output", out_file)
    assert code == 0
    code, out = run(capsys, "certify", out_file, "--n", "1",
                    "--theorem", "L1_PERIODIC_N")
    assert code == 0
    cert = json.loads(out)["certificates"][0]
    assert cert["holds"] is False  # witness sits outside the certified ball


def test_witness_two_step(tmp_path, capsys):
    code, out = run(capsys, "witness", "two-step", "--alpha", "1.0",
                    "--x0", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == pytest.approx(math.pi)


def test_zeros_subcommand(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(4.0, T))
    code, out = run(capsys, "zeros", f, "--bc", "periodic", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 4
    assert doc["checks"]["structure"]["all_ok"] is True


def test_zeros_non_eigenvalue_exit(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.5, T))
    code, _ = run(capsys, "zeros", f)
    assert code == 1  # NotAnEigenvalue: domain error, not search failure


def test_chart(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, out = run(capsys, "chart", f, "--mu-from", "-1", "--mu-to", "5",
                    "--points", "601")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,discriminant,verdict"
    assert len(lines) == 602
    # verdict flips track the known band edges {0, 1/4, 1, 9/4, 4}
    rows = [ln.split(",") for ln in lines[1:]]
    neg = [r for r in rows if float(r[0]) < -0.01]
    assert all(r[2] == "Unstable" for r in neg)
    mid = [r for r in rows if 0.3 < float(r[0]) < 0.9]
    assert all(r[2] == "Stable" for r in mid)


def test_chart_bad_range(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, _ = run(capsys, "chart", f, "--mu-from", "2", "--mu-to", "1")
    assert code == cli.EXIT_PARSE


def test_chart_deterministic(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.3, T))
    _, out1 = run(capsys, "chart", f, "--mu-from", "0", "--mu-to", "2",
                  "--points", "51")
    _, out2 = run(capsys, "chart", f, "--mu-from", "0", "--mu-to", "2",
                  "--points", "51")
    assert out1 == out2


def problem_file(tmp_path, doc, name="p.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_nonlinear_check_and_solve(tmp_path, capsys):
    doc = {
        "f": "1.5*u + 0.1*sin(u) + cos(2*x)",
        "fu": "1.5 + 0.1*cos(u)",
        "period": T,
        "alpha_env": cf.constant(1.4, T).to_dict(),
        "beta_env": cf.constant(1.6, T).to_dict(),
        "u_box": [-20, 20],
    }
    f = problem_file(tmp_path, doc)
    code, out = run(capsys, "nonlinear", "check", f, "--n", "1")
    assert code == 0
    certs = json.loads(out)["certificates"]
    assert any(c["theorem_id"] == "NL_L1_PERIODIC_N" and c["holds"]
               for c in certs)
    code, out = run(capsys, "nonlinear", "solve", f, "--starts", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is True
    assert doc["solutions"][0]["residual"] < 1e-8


def test_nonlinear_resonant_exit(tmp_path, capsys):
    f = problem_file(tmp_path, {"f": "u + sin(x)", "period": T})
    code, _ = run(capsys, "nonlinear", "solve", f, "--starts", "4")
    assert code == cli.EXIT_SEARCH


def test_output_flag_writes_file(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    out_file = tmp_path / "eigs.json"
    code, out = run(capsys, "eigs", f, "--count", "3", "--output",
                    str(out_file))
    assert code == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert len(doc["periodic"]) == 3
