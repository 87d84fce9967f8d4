import functools
import math

import numpy as np
import pytest

from hillstab import coeff as cf
from hillstab import constants as cn
from hillstab import expr as ex
from hillstab import nonlinear as nl
from hillstab import settings
from hillstab.errors import (DomainError, IntegrationFailure, MissingEnvelopes,
                             NoConvergence, NonFiniteValue, ParseError)

T = 2 * math.pi
PI = math.pi


def canonical_problem():
    return nl.NonlinearProblem(
        ex.parse("1.5*u + 0.1*sin(u) + cos(2*x)", variables=("x", "u")),
        T,
        fu=ex.parse("1.5 + 0.1*cos(u)", variables=("x", "u")),
        alpha_env=cf.constant(1.4, T),
        beta_env=cf.constant(1.6, T),
        u_box=(-20.0, 20.0),
    )


def linear_exact_problem():
    """u'' + 2 u = 2 sin(x): the one periodic solution is u = 2 sin(x)."""
    return nl.NonlinearProblem(
        ex.parse("2*u - 2*sin(x)", variables=("x", "u")), T)


def test_periodicity_invariant_enforced():
    with pytest.raises(DomainError):
        nl.NonlinearProblem(ex.parse("x + u", variables=("x", "u")), T)


@pytest.mark.parametrize("f", ["1e6*sin(x/2)", "sin(x) + 1e-9*x*u",
                               "1e-6*sin(x/2)", "1e6*sin(x/2) + u"])
def test_periodicity_refused_at_any_size(f):
    """The allowance for the rounding of x + T grows with |f|, but not so
    far that a large or a small departure from periodicity passes."""
    with pytest.raises(DomainError, match="not T-periodic"):
        nl.NonlinearProblem(ex.parse(f, variables=("x", "u")), T)


def test_periodicity_allows_rounding_of_large_f():
    # x + T rounds, moving 1e12 sin(x) by up to about 1e-3
    nl.NonlinearProblem(ex.parse("1e12*sin(x) + 2*u", variables=("x", "u")),
                        T)


def test_periodicity_allows_rounding_of_fast_f():
    # x + T rounds, moving sin(1e6 x) by up to about |f_x| ulp(2T) = 2e-9
    nl.NonlinearProblem(ex.parse("sin(1e6*x) + 2*u", variables=("x", "u")),
                        T)


def test_wrong_fu_rejected():
    with pytest.raises(DomainError):
        nl.NonlinearProblem(
            ex.parse("1.5*u + 0.1*sin(u) + cos(2*x)", variables=("x", "u")),
            T, fu=ex.parse("1.5 + 0.1*sin(u)", variables=("x", "u")))


@pytest.mark.parametrize("forcing", ["1e6", "1e9"])
def test_true_fu_accepted_under_large_forcing(forcing):
    f = ex.parse(f"2*u + {forcing}", variables=("x", "u"))
    nl.NonlinearProblem(f, T, fu=ex.parse("2", variables=("x", "u")))
    with pytest.raises(DomainError):
        nl.NonlinearProblem(f, T, fu=ex.parse("3", variables=("x", "u")))


def test_non_finite_f_and_fu_rejected():
    parse = functools.partial(ex.parse, variables=("x", "u"))
    # f or the given fu NaN or inf on the problem's samples
    for f, fu in (("0/0*u", None), ("u + 1/0", None), ("u", "1 + 0/0*u")):
        with pytest.raises(NonFiniteValue, match="on samples"):
            nl.NonlinearProblem(parse(f), T, fu=fu and parse(fu))
    # finite on the samples, |u| <= 3, and not on the sandwich grid: f
    # overflows and its central difference is inf - inf
    p = nl.NonlinearProblem(parse("1e300*u^3"), T, u_box=(-1e3, 1e3))
    with pytest.raises(NonFiniteValue, match="sandwich grid"):
        nl.check_classical_band(p)


def test_from_json_roundtrip():
    import json
    doc = {"f": "2*u - 2*sin(x)", "period": T, "u_box": [-5, 5]}
    p = nl.NonlinearProblem.from_json(json.dumps(doc))
    assert p.f_eval(0.5, 1.0) == pytest.approx(2 - 2 * math.sin(0.5))
    with pytest.raises(ParseError):
        nl.NonlinearProblem.from_json("nope")
    with pytest.raises(ParseError):
        nl.NonlinearProblem.from_json('{"f": "u"}')  # no period
    # periods that are not positive finite reals, boxes that are not two
    # finite reals
    for bad in ({"period": float("nan")}, {"period": float("inf")},
                {"period": -1.0}, {"period": 0.0},
                {"u_box": [float("nan"), 1]}, {"u_box": [-1, float("inf")]},
                {"u_box": [-1, 1, 5]}, {"u_box": [1]}):
        with pytest.raises(ParseError):
            nl.NonlinearProblem.from_json(json.dumps({**doc, **bad}))
    # envelopes whose period is not the problem's
    env = {"f": "1.5*u", "fu": "1.5", "period": T, "u_box": [-1, 1]}
    assert nl.NonlinearProblem.from_json(json.dumps({
        **env, "alpha_env": cf.constant(1.4, T).to_dict(),
        "beta_env": cf.constant(1.6, T).to_dict()})).beta_env.period == T
    for bad in ({"alpha_env": cf.constant(1.4, 3.0).to_dict(),
                 "beta_env": cf.constant(1.6, 3.0).to_dict()},
                {"alpha_env": cf.constant(1.4, T).to_dict(),
                 "beta_env": cf.constant(1.6, 3.0).to_dict()}):
        with pytest.raises(ParseError):
            nl.NonlinearProblem.from_json(json.dumps({**env, **bad}))


def test_fu_finite_difference_fallback():
    p = nl.NonlinearProblem(ex.parse("2*u - 2*sin(x)", variables=("x", "u")),
                            T)
    assert float(p.fu_eval(0.3, 1.7)) == pytest.approx(2.0, abs=1e-6)


def test_check_l1_hypotheses_canonical():
    c = nl.check_l1_hypotheses(canonical_problem(), 1)
    assert c.holds
    assert c.hypothesis_values["margin_l1"] > 0
    assert c.hypothesis_values["sandwich_worst_margin"] >= -1e-10


def test_check_l1_requires_envelopes():
    p = nl.NonlinearProblem(ex.parse("2*u", variables=("x", "u")), T,
                            u_box=(-1.0, 1.0))
    with pytest.raises(MissingEnvelopes):
        nl.check_l1_hypotheses(p, 1)


def test_check_l1_strictness_at_lambda():
    # alpha == lambda_1 exactly: dominance strictness fails
    p = nl.NonlinearProblem(
        ex.parse("1.5*u", variables=("x", "u")), T,
        fu=ex.parse("1.5 + 0*u", variables=("x", "u")),
        alpha_env=cf.constant(1.0, T), beta_env=cf.constant(1.6, T),
        u_box=(-5.0, 5.0))
    assert not nl.check_l1_hypotheses(p, 1).holds


def test_check_l1_nonstrict_norm_bound():
    # ||beta|| == gamma1 exactly is admissible
    g = cn.gamma1(1, T)
    p = nl.NonlinearProblem(
        ex.parse("1.5*u", variables=("x", "u")), T,
        fu=ex.parse("1.5 + 0*u", variables=("x", "u")),
        alpha_env=cf.constant(1.4, T), beta_env=cf.constant(g / T, T),
        u_box=(-5.0, 5.0))
    assert nl.check_l1_hypotheses(p, 1).holds


def test_check_linf_hypotheses():
    p = nl.NonlinearProblem(
        ex.parse("0.8*u + 0.05*sin(u)", variables=("x", "u")), PI,
        fu=ex.parse("0.8 + 0.05*cos(u)", variables=("x", "u")),
        alpha_env=cf.constant(0.7, PI), beta_env=cf.constant(0.85, PI),
        u_box=(-10.0, 10.0))
    assert nl.check_linf_hypotheses(p).holds
    p_bad = nl.NonlinearProblem(
        ex.parse("3.9*u", variables=("x", "u")), PI,
        alpha_env=cf.constant(0.1, PI), beta_env=cf.constant(4.1, PI),
        u_box=(-5.0, 5.0))
    assert not nl.check_linf_hypotheses(p_bad).holds


@pytest.mark.parametrize("envelopes,u_box", [(False, (-5.0, 5.0)),
                                            (True, None)])
def test_check_linf_checks_period_first(envelopes, u_box):
    """A problem of period 2 pi is refused for its period, before the
    envelopes or the u box are looked at."""
    env = cf.constant(0.5, T) if envelopes else None
    p = nl.NonlinearProblem(ex.parse("0.5*u", variables=("x", "u")), T,
                            alpha_env=env, beta_env=env, u_box=u_box)
    with pytest.raises(DomainError, match="stated for period pi"):
        nl.check_linf_hypotheses(p)


def test_check_linf_generalizes_classical_band():
    # beta == 3.9 < pi^2/(pi/2)^2 = 4: the Linf route certifies what the
    # classical band misses only marginally
    p = nl.NonlinearProblem(
        ex.parse("2*u + 1.9*sin(u)", variables=("x", "u")), PI,
        fu=ex.parse("2 + 1.9*cos(u)", variables=("x", "u")),
        alpha_env=cf.constant(0.1, PI), beta_env=cf.constant(3.9, PI),
        u_box=(-5.0, 5.0))
    assert nl.check_linf_hypotheses(p).holds


def test_check_classical_band():
    mk = lambda f, fu: nl.NonlinearProblem(
        ex.parse(f, variables=("x", "u")), T,
        fu=ex.parse(fu, variables=("x", "u")), u_box=(-5.0, 5.0))
    assert nl.check_classical_band(mk("0.7*u + 0.2*sin(u)",
                                      "0.7 + 0.2*cos(u)")).holds
    assert not nl.check_classical_band(mk("1.0*u + 0.5*sin(u)",
                                          "1.0 + 0.5*cos(u)")).holds
    c = nl.check_classical_band(mk("2.5*u + 1.3*sin(u)", "2.5 + 1.3*cos(u)"))
    assert c.holds and c.n_or_p == 1


@pytest.mark.parametrize("period, envelopes, u_box, n, want", [
    (T, True, (-5.0, 5.0), 1, ["NL_L1_PERIODIC_N", "NL_CLASSICAL_BAND"]),
    (T, True, (-5.0, 5.0), None, ["NL_CLASSICAL_BAND"]),
    (PI, True, (-5.0, 5.0), 1,
     ["NL_L1_PERIODIC_N", "NL_LINF_PERIODIC", "NL_CLASSICAL_BAND"]),
    (PI, True, (-5.0, 5.0), None, ["NL_LINF_PERIODIC", "NL_CLASSICAL_BAND"]),
    (PI, False, (-5.0, 5.0), 1, ["NL_CLASSICAL_BAND"]),
    (T, False, None, 1, []),
])
def test_check_all_runs_what_the_data_allow(period, envelopes, u_box, n,
                                            want):
    """The L1 certificate needs the envelopes and n, the L-infinity one
    the envelopes and period pi, the classical band a u box."""
    alpha, beta = ((cf.constant(0.1, period), cf.constant(0.2, period))
                   if envelopes else (None, None))
    p = nl.NonlinearProblem(ex.parse("0.15*u", variables=("x", "u")), period,
                            alpha_env=alpha, beta_env=beta, u_box=u_box)
    certs = nl.check_all(p, n)
    assert [c.theorem_id for c in certs] == want
    if n is not None and envelopes:
        assert certs[0].n_or_p == n


def test_solve_linear_exact():
    r = nl.solve_periodic(linear_exact_problem())
    assert r.unique
    s = r.solutions[0]
    assert s.u0 == pytest.approx(0.0, abs=1e-7)
    assert s.du0 == pytest.approx(2.0, abs=1e-7)
    # trajectory is 2 sin x
    np.testing.assert_allclose(s.u, 2 * np.sin(s.xs), atol=1e-6)


@pytest.mark.parametrize("with_fu", [True, False])
def test_variational_jacobian_matches_differences(with_fu):
    p = canonical_problem()
    if not with_fu:
        p = nl.NonlinearProblem(p.f, p.period)
    c = np.array([0.7, -1.3])
    F, J = nl._shoot(p, c, settings.current().ode)

    def F_dense(c):
        return nl._integrate(p, c).y[:, -1] - c

    np.testing.assert_allclose(F, F_dense(c), atol=1e-9)
    J_fd = np.empty((2, 2))
    for j in range(2):
        h = 1e-6 * (1.0 + abs(c[j]))
        e = np.zeros(2)
        e[j] = h
        J_fd[:, j] = (F_dense(c + e) - F_dense(c - e)) / (2 * h)
    np.testing.assert_allclose(J, J_fd, atol=1e-6)


def test_solve_canonical_unique():
    r = nl.solve_periodic(canonical_problem(), starts=16)
    assert r.unique
    assert r.n_converged_starts == 16
    assert r.solutions[0].residual < 1e-8


def recorded_integrations(monkeypatch):
    """Record (rtol, initial state, final state, right-hand-side calls) of
    every integration the nonlinear module makes."""
    calls = []
    solve_ivp = nl.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        sol = solve_ivp(fun, t_span, y0, **kwargs)
        calls.append((kwargs["rtol"], np.array(y0, dtype=float),
                      sol.y[:, -1], sol.nfev))
        return sol

    monkeypatch.setattr(nl, "solve_ivp", recording)
    return calls


@pytest.mark.parametrize("problem", [canonical_problem, linear_exact_problem])
@pytest.mark.parametrize("residual", [None, 1e-3])
def test_roots_accepted_only_from_integrations_at_ode(monkeypatch, problem,
                                                      residual):
    # at residual 1e-3 integrations at sqrt(ode) meet the test too
    calls = recorded_integrations(monkeypatch)
    newton, runs = nl._newton, []

    def recorded(*args):
        first = len(calls)
        root = newton(*args)
        runs.append((calls[first:], root))
        return root

    monkeypatch.setattr(nl, "_newton", recorded)
    with settings.use(residual=residual):
        r = nl.solve_periodic(problem(), starts=4)
        cfg = settings.current()
    accepted, stopped, confirmed = [], 0, 0
    for run, root in runs:
        # a Newton run makes only shooting integrations, which carry the
        # variational equation
        assert all(len(y0) == 6 for _, y0, *_ in run)
        shots = [(tol, y0[:2], np.linalg.norm(y[:2] - y0[:2]))
                 for tol, y0, y, _ in run]
        stops = root is not None  # unless one of its integrations accepts
        for i, (tol, c, F) in enumerate(shots):
            if F >= cfg.residual * 1e-2:
                continue
            if tol == cfg.ode:  # an acceptance ends the run with its c
                assert i == len(shots) - 1 and np.array_equal(root, c)
                accepted.append(root)
                stops = False
            else:  # integrated once more at ode before it counts
                assert shots[i + 1][0] == cfg.ode
                assert np.array_equal(shots[i + 1][1], c)
                confirmed += 1
        if stops:  # at a root an earlier start accepted
            assert any(root is a for a in accepted)
            stopped += 1
    assert len(accepted) + stopped == r.n_converged_starts == 4
    assert len(accepted) == len(r.solutions) and stopped > 0
    assert residual is None or confirmed > 0


def test_inexact_newton_saves_right_hand_side_calls(monkeypatch):
    # with every Newton integration at ode the same solve made 19 135
    # right-hand-side calls, the final dense integration included; with
    # loose integrations but every start confirming its own root, 9 425
    calls = recorded_integrations(monkeypatch)
    r = nl.solve_periodic(canonical_problem(), starts=4)
    assert r.unique and r.n_converged_starts == 4
    assert sum(nfev for *_, nfev in calls) <= 0.3 * 19135
    at_ode = [tol for tol, y0, *_ in calls
              if len(y0) == 6 and tol == settings.current().ode]
    assert len(at_ode) <= 2 * len(r.solutions)


def test_solve_canonical_unique_at_looser_ode():
    with settings.use(ode=1e-8):
        r = nl.solve_periodic(canonical_problem(), starts=4)
    assert r.unique and r.n_converged_starts == 4


def test_solve_several_periodic_solutions():
    # u'' + u^3 - u = 0 has the equilibria 0, +-1 and families of periodic
    # orbits.  With every Newton integration at ode these starts converged
    # twice, to two roots; loose first integrations alone converged once.
    p = nl.NonlinearProblem(ex.parse("u^3 - u", variables=("x", "u")), T)
    r = nl.solve_periodic(p, starts=4, seed=1)
    cfg = settings.current()
    # the roots each start found alone: sharing confirmed roots between
    # starts merges no distinct ones and moves none by a bit
    assert [(repr(s.u0), repr(s.du0)) for s in r.solutions] == [
        ("-1.6651024280362554", "9.108864410882711"),
        ("-3.2389176546091925", "6.285441901277193")]
    assert r.n_converged_starts >= 2
    assert not r.unique and len(r.solutions) >= 2
    for i, s in enumerate(r.solutions):
        assert s.residual < cfg.residual
        for t in r.solutions[:i]:
            assert math.hypot(s.u0 - t.u0, s.du0 - t.du0) >= cfg.cluster


def test_failed_integration_ends_only_its_start(monkeypatch):
    # solutions of u'' + 2u - 0.05u^3 + 0.2cos(x) = 0 from large data blow
    # up before T: those starts fail, the rest find the one solution
    p = nl.NonlinearProblem(
        ex.parse("2*u - 0.05*u^3 + 0.2*cos(x)", variables=("x", "u")), T)
    shoot, failed = nl._shoot, []

    def counted(*args):
        try:
            return shoot(*args)
        except IntegrationFailure:
            failed.append(args[1])
            raise

    monkeypatch.setattr(nl, "_shoot", counted)
    r = nl.solve_periodic(p, starts=16, seed=0)
    assert failed
    assert r.n_converged_starts == 2 and r.unique


def test_solve_resonant_no_convergence():
    p = nl.NonlinearProblem(ex.parse("u + sin(x)", variables=("x", "u")), T)
    with pytest.raises(NoConvergence):
        nl.solve_periodic(p)


def test_linear_certified_coefficient_only_trivial_solution():
    # f(x,u) = a(x) u with a == 1.1 certified by the L1 theorem: all starts
    # collapse to u == 0
    p = nl.NonlinearProblem(ex.parse("1.1*u", variables=("x", "u")), T)
    r = nl.solve_periodic(p, starts=16)
    assert r.unique
    s = r.solutions[0]
    assert abs(s.u0) < 1e-6 and abs(s.du0) < 1e-6


def test_ode_residual_small():
    p = canonical_problem()
    r = nl.solve_periodic(p, starts=4)
    assert nl.ode_residual(p, r.solutions[0]) < 1e-6


def test_solver_deterministic():
    p = canonical_problem()
    r1 = nl.solve_periodic(p, starts=6, seed=3)
    r2 = nl.solve_periodic(p, starts=6, seed=3)
    assert r1.solutions[0].u0 == r2.solutions[0].u0
    assert r1.solutions[0].du0 == r2.solutions[0].du0
