import functools
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hillstab
from hillstab import cli
from hillstab import coeff as cf
from hillstab import floquet as fq
from hillstab import lyapunov as ly
from hillstab import witness as wt

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


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert hillstab.__version__ == project["version"]


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
        "quad_budget": 1_000_000, "ode_budget": 250_000,
        "dominance_samples": 16384, "x0_grid": 1024,
        "removable_eps": 1e-9, "l1_slack": 1e-12, "sandwich_slack": 1e-10,
        "endpoint_tol": 1e-8}
    # nor when the command fails
    code, _ = run(capsys, "--tol-root", "1e-4", "eigs", "/nonexistent/x.json")
    assert code == cli.EXIT_PARSE
    code, out = run(capsys, "eigs", f, "--count", "2")
    assert code == 0
    assert json.loads(out)["manifest"]["tolerances"]["root"] == 1e-10


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
    # and nested deeper than the JSON decoder recurses
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for path in (raw, deep):
        for argv in (["eigs", str(path)], ["nonlinear", "check", str(path)]):
            assert cli.main(argv) == cli.EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
    assert err.startswith("error: bad JSON: maximum recursion depth exceeded")
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
    # a problem box that is not two finite reals
    p.write_text(json.dumps({"f": "-u", "period": T, "u_box": [math.nan, 1]}))
    assert cli.main(["nonlinear", "check", str(p)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_unreachable_quadrature_tolerance_exit_1(tmp_path, capsys):
    """Near the crossings of a(x) = c the round-off floor of a cell is far
    below 1e-17, which the cells there never meet: the error names the
    tolerance and where the cells still open lie."""
    f = coeff_file(tmp_path, cf.from_expression("0.3+cos(x)", 2 * math.pi))
    assert cli.main(["--tol-quad", "1e-16", "certify", f, "--n", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["--tol-quad", "1e-17", "certify", f, "--n", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: quadrature cannot meet quad = 1e-17: its "
                          "budget of 1000000 evaluations ran out, with ")
    lo, hi = map(float, err[err.index("x = [") + 5:-2].split(", "))
    assert 1.8 < lo < hi < 4.5


def test_nonlinear_solve_infinite_start_scale(tmp_path, capsys):
    # f(x, 0) = 1/0: the box the starts are drawn from has no finite size
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"f": "1/u", "period": T}))
    assert cli.main(["nonlinear", "solve", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("piece", ["1/0", "1e308*2", "0/0", "-1/0"])
@pytest.mark.parametrize("argv", [
    ["chart", "--mu-from", "0", "--mu-to", "1", "--points", "3"], ["zeros"]])
def test_non_finite_constant_piece(tmp_path, capsys, piece, argv):
    # a constant piece that is inf, -inf or NaN is rejected as the file loads
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"period": T, "pieces": [
        {"from": 0.0, "to": 3.0, "expr": piece},
        {"from": 3.0, "to": T, "expr": "1+0.1*cos(x)"}]}))
    assert cli.main([argv[0], str(p), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: coefficient is not finite on [0.0, 3.0)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("piece", [
    [{"from": 0.0, "to": 3.0, "expr": "1e200*x*1e200"},
     {"from": 3.0, "to": T, "expr": "1"}],
    [{"from": 0.0, "to": T, "expr": "x^100000000000000000000"}]],
    ids=["1e200*x*1e200", "x^1e20"])
@pytest.mark.parametrize("argv", [
    ["zeros"], ["certify"],
    ["chart", "--mu-from", "0", "--mu-to", "1", "--points", "2"]])
def test_non_finite_ode_piece_exit_1(tmp_path, capsys, piece, argv):
    # a coefficient that overflows inside an ODE piece: one error line, and
    # no warning from numpy or scipy before it
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"period": T, "pieces": piece}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([argv[0], str(p), *argv[1:]]) == 1
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("f", ["0/0*u", "u + 1/0"])
def test_nonlinear_check_non_finite_f(tmp_path, capsys, f):
    # f is NaN or inf on the samples: one error line, no NaN in a JSON output
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"f": f, "period": T, "u_box": [-1, 1]}))
    assert cli.main(["nonlinear", "check", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: f is not finite on samples\n"


@pytest.mark.parametrize("a", [
    # cosh(1000 * 2 pi) is no float
    cf.constant(-1e6, T),
    # cosh(710) is a float, 1000 sinh(710) is not
    cf.constant(-1e6, 0.71),
    # each block is a float near e^400, their product is not
    cf.step_function(0.8, [(0.0, 0.4, -1e6), (0.4, 0.8, -1.0001e6)]),
])
def test_chart_hyperbolic_overflow_exit_1(tmp_path, capsys, a):
    f = coeff_file(tmp_path, a)
    assert cli.main(["chart", f, "--mu-from", "0", "--mu-to", "1",
                     "--points", "2"]) == 1
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.startswith("error:") and err.count("\n") == 1


def test_chart_infinite_mu_plus_a_exit_1(tmp_path, capsys):
    # mu + a = 1e308 + 1e308 is inf on the constant piece
    f = coeff_file(tmp_path, cf.constant(1e308, T))
    assert cli.main(["chart", f, "--mu-from", "1e308", "--mu-to", "1.5e308",
                     "--points", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: mu + a is not finite on a constant piece: "
                   "q = inf\n")


def test_chart_infinite_phase_exit_1(tmp_path, capsys):
    # q = 1e300 is a float, but sqrt(q) L = 1e150 * 1e160 is not
    f = tmp_path / "a.json"
    f.write_text('{"period": 1e160, "pieces": '
                 '[{"from": 0, "to": 1e160, "expr": "1e300"}]}')
    assert cli.main(["chart", str(f), "--mu-from", "0", "--mu-to", "1",
                     "--points", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: sqrt(q) L is not finite on a constant piece: "
                   "q = 1e+300, L = 1e+160\n")


def test_chart_reports_first_mu_in_sweep_order(tmp_path, capsys):
    # at mu = 1e308 the first piece's q is inf, but the sweep fails first at
    # mu = -1, where cosh overflows on the second piece
    f = coeff_file(tmp_path, cf.step_function(T, [(0.0, 1.0, 1.7e308),
                                                  (1.0, T, -1e6)]))
    assert cli.main(["chart", f, "--mu-from", "-1", "--mu-to", "1e308",
                     "--points", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: cosh(sqrt(-q) L) overflows on a constant piece: "
                   "q = -1000001.0, L = 5.283185307179586\n")


def test_chart_range_wider_than_floats_exit_2(tmp_path, capsys):
    # both ends are floats, but 1e308 - (-1e308) is not: no grid of mu
    # exists, and np.linspace would warn and fill it with nan
    f = coeff_file(tmp_path, cf.constant(1.0, T))
    assert cli.main(["chart", f, "--mu-from=-1e308", "--mu-to=1e308",
                     "--points", "3"]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --mu-to minus --mu-from overflows a float\n"


@pytest.mark.parametrize("tall", ["1e6", "1e8"])
def test_eigs_tall_constant_beside_ode_piece_exit_1(tmp_path, capsys, tall):
    # where the search goes, the solution over the ODE piece overflows the
    # floats (1e6), or the tall piece's cosh does (1e8): no monodromy exists
    p = tmp_path / "a.json"
    p.write_text(json.dumps({"period": T, "pieces": [
        {"from": 0.0, "to": 1.0, "expr": tall},
        {"from": 1.0, "to": T, "expr": "1+0.1*cos(x)"}]}))
    assert cli.main(["eigs", str(p), "--count", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "overflows" in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("a, held", [
    (cf.constant(1.1, T), {("L1_PERIODIC_N", 1), ("L1_ZONE_KP", 2)}),
    # period pi: the L-infinity certificates and the classical 16/T one
    (cf.step_function(math.pi, [(0.0, 1.0, 0.3), (1.0, math.pi, 0.9)]),
     {("LINF_FIRST_ZONE", None), ("LINF_PERIODIC", None),
      ("CLASSICAL_16T", None)}),
    (cf.constant(0.6, T), {("L1_ANTIPERIODIC_N", 1), ("L1_ZONE_KP", 1)}),
], ids=["constant-1.1", "step-period-pi", "constant-0.6"])
def test_certify_with_verify(tmp_path, capsys, a, held):
    f = coeff_file(tmp_path, a)
    code, out = run(capsys, "certify", f, "--n", "1", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert {(c["theorem_id"], c["n_or_p"]) for c in doc["certificates"]
            if c["holds"]} == held
    confirmed = [v for v in doc["verification"] if "confirmed" in v]
    assert {(v["theorem_id"], v["n_or_p"]) for v in confirmed} == held
    assert all(v["confirmed"] for v in confirmed)


def test_certify_verify_beyond_n3(tmp_path, capsys):
    # lam_8 = 4^2 - 16.5 = -0.5 < 0 < lam_9 = 5^2 - 16.5 = 8.5
    f = coeff_file(tmp_path, cf.constant(16.5, T))
    code, out = run(capsys, "certify", f, "--n", "4", "--verify")
    assert code == 0
    checks = json.loads(out)["verification"]
    l1 = [v for v in checks if v.get("theorem_id") == "L1_PERIODIC_N"]
    assert l1 == [{"theorem_id": "L1_PERIODIC_N", "n_or_p": 4,
                   "confirmed": True}]


def test_verification_lists_where_zero_lies(tmp_path, capsys):
    # a = 16.5, T = 2 pi: lam = k^2 - 16.5 and alam = (k + 1/2)^2 - 16.5,
    # each twice but lam_0, so lam_0..lam_8 and alam_1..alam_8 lie below 0:
    # 17 edges
    a = cf.constant(16.5, T)
    f = coeff_file(tmp_path, a)
    code, out = run(capsys, "certify", f, "--n", "4", "--verify")
    assert code == 0
    where = [v for v in json.loads(out)["verification"] if "mu" in v]
    E, d = fq.edge_count(a, 0.0)
    assert where == [{"mu": 0.0, "edges_below": 17, "discriminant": d}]
    assert E == 17


def test_library_error_exit_1(capsys):
    assert cli.main(["witness", "a-eps", "--eps", "10"]) == 1
    assert "eps must lie" in capsys.readouterr().err


def test_first_zone_verification_needs_zone_0():
    # a = 2, T = pi: lam_0 = -2 < alam_1 = alam_2 = -1 < 0 < lam_1 = 2, so
    # mu = 0 is stable but in zone 1, not the zone LINF_FIRST_ZONE claims
    a = cf.constant(2.0, math.pi)
    forged = ly.Certificate("LINF_FIRST_ZONE", None, {}, True,
                            "lambda_0(a) < 0 < anti_lambda_1(a)")
    assert not cli._conclusion_confirmed(
        a, forged, functools.partial(fq.edge_count, a))


def test_periodic_verification_needs_index_n():
    # a = 2, T = pi: lam_0 = -2 < 0 < lam_1 = 2, so 0 lies between lam_0
    # and lam_1, not between lam_2 and lam_3 as L1_PERIODIC_N n = 1 claims
    a = cf.constant(2.0, math.pi)
    count = functools.partial(fq.edge_count, a)
    forged = ly.Certificate("L1_PERIODIC_N", 1, {}, True,
                            "lambda_2(a) < 0 < lambda_3(a)")
    assert not cli._conclusion_confirmed(a, forged, count)
    assert cli._conclusion_confirmed(
        a, ly.Certificate("LINF_PERIODIC", None, {}, True, ""), count)


def chain(s):
    """The band edges of a spectrum in increasing order, with multiplicity."""
    return np.sort(np.concatenate([s.periodic_values(),
                                   s.antiperiodic_values()]))


def spectrum_rule(a, cert, s) -> bool:
    """A certificate's conclusion read from the eigenvalue arrays of s with
    1e-6 of slack at mu = 0: lam_2n < 0 < lam_2n+1, alam_2n < 0 < alam_2n+1
    (alam from index 1), lam_0 < 0 < lam_1, or 0 in a zone, zone 0 lying
    between lam_0 and alam_1."""
    lam, alam, tol = s.periodic_values(), s.antiperiodic_values(), 1e-6
    n, d = cert.n_or_p, fq.discriminant(a, 0.0)
    return {"L1_PERIODIC_N": lambda: lam[2 * n] < tol and lam[2 * n + 1] > -tol,
            "L1_ANTIPERIODIC_N": lambda: alam[2 * n - 1] < tol
            and alam[2 * n] > -tol,
            "LINF_PERIODIC": lambda: lam[0] < tol and lam[1] > -tol,
            "CLASSICAL_16T": lambda: abs(d - 2.0) > 1e-9,
            "L1_ZONE_KP": lambda: fq.band(d) == "Stable",
            "LINF_FIRST_ZONE": lambda: fq.band(d) == "Stable"
            and lam[0] < 0 < alam[0]}[cert.theorem_id]()


def audit_cases():
    # seeded three-plateau shapes g, raised by c so that 0 lies midway
    # between edges j - 1 and j of g + c for j = 0..12, in every band and
    # gap that the L1 conclusions for n = 1, 2 bound, or 5e-7 inside the
    # slack from the edges 2, 4 (below 0) and 5, 7 (above) they bound at n = 1
    rng = np.random.default_rng(1313)
    for period, name in ((T, "2pi"), (math.pi, "pi")):
        b = np.sort(rng.uniform(0.1, period - 0.1, size=2))
        g = list(zip([0.0, *b], [*b, period], rng.uniform(-2.0, 2.0, size=3)))
        edges = chain(fq.spectrum(cf.step_function(period, g), 7, 6))
        shifts = {f"{j}": c for j, c in enumerate(
            [edges[0] - 1.0, *(edges[1:] + edges[:-1]) / 2])}
        shifts.update({f"edge{j}": edges[j] - side * 5e-7
                       for j, side in ((2, 1), (4, 1), (5, -1), (7, -1))})
        for label, c in shifts.items():
            yield pytest.param(
                cf.step_function(period, [(s, e, v + c) for s, e, v in g]),
                [1, 2], id=f"step-{name}-{label}")
    yield pytest.param(cf.from_expression("1.2+0.4*cos(2*x)", math.pi), [1],
                       id="mathieu-pi")
    yield pytest.param(cf.from_expression("0.5+0.3*cos(x)-0.4*sin(2*x)", T),
                       [1], id="trig-2pi")
    # 0 is the antiperiodic edge alam_1 = alam_2: Delta(0) = -2
    yield pytest.param(wt.make_two_step(1.0, wt.anti_resonant_x0(1.0)[0]),
                       [1], id="two-step-resonant")
    # 0 lies within 1e-12 of the edge lam_3
    yield pytest.param(wt.make_a_eps(1, T, 0.05), [1], id="a-eps")


@pytest.mark.parametrize("a, n_list", audit_cases())
def test_verification_agrees_with_spectrum(a, n_list):
    # every conclusion, held or not, read from edge counts and from a
    # spectrum that reaches lam_2n+1 and alam_2n+1 for the largest n
    certs = ly.certify_all(a, n_list=n_list)
    s = fq.spectrum(a, 2 * max(n_list) + 2, 2 * max(n_list) + 1)
    count = functools.cache(functools.partial(fq.edge_count, a))
    got = {(c.theorem_id, c.n_or_p): cli._conclusion_confirmed(a, c, count)
           for c in certs}
    want = {(c.theorem_id, c.n_or_p): bool(spectrum_rule(a, c, s))
            for c in certs}
    assert got == want, a.to_json()


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


@pytest.mark.parametrize("argv", [
    ["witness", "two-step", "--period", "3"],
    ["witness", "a-eps", "--alpha", "1"],
    ["nonlinear", "check", "FILE", "--starts", "2"],
    ["nonlinear", "solve", "FILE", "--n", "1"],
    ["--seed", "3", "nonlinear", "solve", "FILE"],
    ["--seed", "3", "eigs", "FILE"],
])
def test_option_of_another_command_rejected(tmp_path, capsys, argv):
    """Each command accepts only the options it reads."""
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    argv = [f if arg == "FILE" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE


def test_manifest_records_the_options_read(tmp_path, capsys):
    f = problem_file(tmp_path, {"f": "2*u - 2*sin(x)", "period": T,
                                "u_box": [-1, 1]})
    cases = [
        (["witness", "a-eps", "--n", "2"],
         {"family": "a-eps", "n": 2, "period": T, "eps": 0.05}),
        (["witness", "two-step", "--x0", "1.5"],
         {"family": "two-step", "alpha": 1.0, "x0": 1.5}),
        (["nonlinear", "check", f, "--n", "1"],
         {"action": "check", "problem_file": f, "n": 1}),
        (["nonlinear", "solve", f, "--starts", "2", "--seed", "3"],
         {"action": "solve", "problem_file": f, "starts": 2, "seed": 3}),
    ]
    for argv, params in cases:
        code, out = run(capsys, *argv)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["command"] == " ".join(argv[:2])
        assert manifest["parameters"] == {"subcommand": argv[0], **params}


def test_exponent_beyond_a_float_exit_2(tmp_path, capsys):
    """A piece or an f with an exponent a float cannot hold exits 2 with
    one line, from every command that reads the file."""
    big = "1" + "0" * 400
    a = problem_file(tmp_path, {"period": T, "pieces": [
        {"from": 0.0, "to": T, "expr": f"1 + 0.5*cos(x)^{big}"}]}, "a.json")
    p = problem_file(tmp_path, {"f": f"u^{big}", "period": T,
                                "u_box": [-1, 1]})
    for argv in (["eigs", a], ["certify", a], ["zeros", a],
                 ["chart", a, "--mu-from", "0", "--mu-to", "1"],
                 ["nonlinear", "check", p], ["nonlinear", "solve", p]):
        assert cli.main(argv) == cli.EXIT_PARSE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: integer exponent too large for a float")
        assert err.count("\n") == 1


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    """main builds its parser on its first call, not on import, and keeps
    it: after two subcommands and a rejected call in one process, the next
    call prints what a fresh process prints."""
    f = coeff_file(tmp_path, cf.constant(0.25, T))
    build, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    argv = ["eigs", f, "--count", "2", "--bc", "periodic"]
    assert run(capsys, "constants", "--n-max", "2")[0] == 0
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigs", f, "--count", "0"])
    assert exc.value.code == cli.EXIT_PARSE
    capsys.readouterr()
    code, out = run(capsys, *argv)
    assert code == 0 and built == [1]
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from hillstab import cli
assert cli._parser.cache_info().currsize == 0, "parser built on import"
sys.exit(cli.main(sys.argv[2:]))
"""
    src = str(Path(hillstab.__file__).resolve().parent.parent)
    fresh = subprocess.run([sys.executable, "-c", script, src, *argv],
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert out == fresh.stdout


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


def test_nonlinear_check_large_periodic_f(tmp_path, capsys):
    # x + T rounds, moving 1e6 sin(x) by about 1e-9: still T-periodic
    f = problem_file(tmp_path, {"f": "1e6*sin(x) + 2*u",
                                "period": 6.283185307179586, "u_box": [-1, 1]})
    code, out = run(capsys, "nonlinear", "check", f)
    assert code == 0
    assert [c["theorem_id"] for c in json.loads(out)["certificates"]] == \
        ["NL_CLASSICAL_BAND"]


def test_nonlinear_check_fast_periodic_f(tmp_path, capsys):
    # x + T rounds, moving sin(1e6 x) by about 1e-9: still T-periodic
    f = problem_file(tmp_path, {"f": "sin(1e6*x) + 2*u",
                                "period": 6.283185307179586, "u_box": [-1, 1]})
    code, out = run(capsys, "nonlinear", "check", f)
    assert code == 0
    assert [c["theorem_id"] for c in json.loads(out)["certificates"]] == \
        ["NL_CLASSICAL_BAND"]


def test_nonlinear_resonant_exit(tmp_path, capsys):
    f = problem_file(tmp_path, {"f": "u + sin(x)", "period": T})
    code, _ = run(capsys, "nonlinear", "solve", f, "--starts", "4")
    assert code == cli.EXIT_SEARCH


def test_ode_budget_exit(tmp_path, capsys):
    """A pass whose integration would take minutes stops at the right-hand-
    side budget: DOP853's step falls like 1/sqrt(q), here q ~ 1e10."""
    f = coeff_file(tmp_path, cf.from_expression("1e10*x", math.pi))
    start = time.perf_counter()
    code = cli.main(["chart", f, "--mu-from", "0", "--mu-to", "1",
                     "--points", "1"])
    assert time.perf_counter() - start < 30
    assert code == cli.EXIT_SEARCH
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "budget" in err


@pytest.mark.parametrize("c", [1e15, -1e200])
def test_eigs_below_rounding_exit(tmp_path, capsys, c):
    """Edges of a = c lie closer together than rounding at -c can tell:
    a search failure, not a traceback."""
    f = coeff_file(tmp_path, cf.constant(c, T))
    assert cli.main(["eigs", f, "--count", "2"]) == cli.EXIT_SEARCH
    assert capsys.readouterr().err.startswith("error: ")


def test_output_flag_writes_file(tmp_path, capsys):
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    out_file = tmp_path / "eigs.json"
    code, out = run(capsys, "eigs", f, "--count", "3", "--output",
                    str(out_file))
    assert code == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert len(doc["periodic"]) == 3


def test_no_command_imports_scipy(tmp_path):
    """No command imports scipy: not those that integrate no ODE, nor a
    smooth eigs, zeros on a_eps or nonlinear solve, which integrate with
    hillstab's own DOP853."""
    step = coeff_file(tmp_path, cf.step_function(
        T, [(0.0, 1.0, 0.3), (1.0, T, 0.9)]), "step.json")
    const = coeff_file(tmp_path, cf.constant(4.0, T), "const.json")
    smooth = coeff_file(tmp_path, cf.from_expression("0.5+0.3*cos(x)", T),
                        "smooth.json")
    problem = problem_file(tmp_path, {
        "f": "1.5*u + 0.1*sin(u) + cos(2*x)", "fu": "1.5 + 0.1*cos(u)",
        "period": T, "alpha_env": cf.constant(1.4, T).to_dict(),
        "beta_env": cf.constant(1.6, T).to_dict(), "u_box": [-20, 20]})
    witness = str(tmp_path / "aeps.json")
    script = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from hillstab import cli
assert "importlib.metadata" not in sys.modules, "version looked up"
step, const, smooth, problem, witness = sys.argv[2:]

def main(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

main("witness", "a-eps", "--n", "1", "--eps", "0.05", "--output", witness)
main("constants")
main("certify", witness, "--n", "1")
main("chart", step, "--mu-from", "-1", "--mu-to", "5", "--points", "101")
main("certify", step, "--verify")
main("eigs", step, "--count", "3", "--bc", "both")
main("nonlinear", "check", problem, "--n", "1")
main("zeros", const, "--bc", "periodic", "--n", "1")
main("eigs", smooth, "--count", "2")
main("zeros", witness, "--bc", "periodic", "--n", "1")
main("nonlinear", "solve", problem, "--starts", "2")
assert "scipy" not in sys.modules, sorted(m for m in sys.modules
                                          if m.startswith("scipy"))[:5]
"""
    src = str(Path(hillstab.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, src, step, const,
                           smooth, problem, witness],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_zeros_antiperiodic_structure(tmp_path, capsys):
    # a = 9/4 on 2 pi: alam = 0 with u = sin(3 x / 2 + c), 3 zeros a period
    f = coeff_file(tmp_path, cf.constant(2.25, T))
    code, out = run(capsys, "zeros", f, "--bc", "antiperiodic", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["bc"] == "antiperiodic" and doc["m"] == 3
    assert doc["spacings"] == pytest.approx([math.pi / 3] * 6, abs=1e-9)
    structure = doc["checks"]["structure"]
    assert structure["spacing_bound"] == pytest.approx(math.pi)
    assert structure["all_ok"] is True


def test_nonlinear_check_at_period_pi_runs_linf(tmp_path, capsys):
    # with envelopes at T = pi the Linf hypotheses are checked too;
    # beta = 3.9 < 4 passes them (as in test_check_linf_generalizes_...)
    f = problem_file(tmp_path, {
        "f": "2*u + 1.9*sin(u)", "fu": "2 + 1.9*cos(u)", "period": math.pi,
        "alpha_env": cf.constant(0.1, math.pi).to_dict(),
        "beta_env": cf.constant(3.9, math.pi).to_dict(), "u_box": [-5, 5]})
    code, out = run(capsys, "nonlinear", "check", f, "--n", "1")
    assert code == 0
    certs = {c["theorem_id"]: c for c in json.loads(out)["certificates"]}
    assert list(certs) == ["NL_L1_PERIODIC_N", "NL_LINF_PERIODIC",
                           "NL_CLASSICAL_BAND"]
    assert certs["NL_LINF_PERIODIC"]["holds"] is True
    assert len(certs["NL_LINF_PERIODIC"]["diagnostics"]) == 1024


@pytest.mark.parametrize("bc, counts", [
    ("periodic", (3, None)), ("antiperiodic", (None, 3)), ("both", (3, 3))])
def test_eigs_makes_one_spectrum_call(tmp_path, capsys, monkeypatch, bc,
                                      counts):
    calls, search = [], fq.spectrum
    monkeypatch.setattr(fq, "spectrum",
                        lambda a, p, ap: calls.append((p, ap)) or search(a, p, ap))
    f = coeff_file(tmp_path, cf.constant(0.0, T))
    code, out = run(capsys, "eigs", f, "--count", "3", "--bc", bc)
    assert code == 0 and calls == [counts]
    doc = json.loads(out)
    assert [len(doc["periodic"]), len(doc["antiperiodic"])] == [
        n or 0 for n in counts]
