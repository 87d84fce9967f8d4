"""Print the exact eigenvalues and certificates of a fixed set of
coefficients as JSON.

Every entry is (index, repr(value), multiplicity), from `spectrum`,
`periodic_eigenvalues` and `antiperiodic_eigenvalues`, together with the
number of monodromy passes (one `floquet._propagators` pass over the
period, edge counts, discriminants and slope passes alike) each `spectrum`
call made and the right-hand-side calls of their integrations: the search
integrates most passes at sqrt(`ode`), which takes fewer calls than one
at `ode`, so the two counts together show the work.  A pass integrates all
its non-constant pieces in one call, so a right-hand-side call serves
every one of them and counts once.  A pass of the search carries several
mu, all the probes or all the Newton points its edges ask for in one
round, and counts once too, however many mu it carries.  Two coefficients
have several such pieces, a_eps(3, 2pi, 1e-3) and the Mathieu coefficient
cut into three,
and get `spectrum(3, 3)`, so that the digest covers passes that stack
pieces as well as passes of one piece.  Three coefficients
also get `certify_all(...).to_dict()`, every L-infinity diagnostic
included, and three nonlinear problems the periodic solutions
`solve_periodic` finds, with the right-hand-side calls its integrations
made.  Last come the ground-truth verdicts on the three
certified coefficients: the list `certify --verify` prints, and
`classify` at each band edge computed for the coefficient above (or in
`spectrum(3, 2)` where there is none), as (kind, index, verdict, zone,
witness, repr(discriminant)).  After them come the certificates `nonlinear
check --n 1` computes for acceptance criterion 11's enveloped problem and
for its copy of period pi, where `NL_LINF_PERIODIC` applies too, then the
zero structure of the periodic eigenfunctions of a_eps(1, 2pi, 0.35) and
a_eps(3, 2pi, 1e-3) and of the antiresonant two-step potential's
antiperiodic one, whose first zero lies inside the period, so that its
zeros are read rotated, and last `subinterval_inequality` on each of
these three, at n = 1 and at n = 3 for a_eps(3, 2pi, 1e-3).  The
last sections print trees and constants as built: the pieces of
a_eps(n, 2pi, 0.05) for n = 1..3 and of the two-step potential
two_step(1, 1), as `to_dict` gives them, and `constants_table(3, 2pi)`,
and after them the lines of the CSV `chart --points 201` writes for a
4-plateau step, the README's two-piece coefficient and the Mathieu
coefficient 1.2+0.4cos(2x), whose mu come in one array: closed-form blocks
at all of them at once on a constant piece, an integration per mu on a
smooth one.
Run it on two checkouts and diff the outputs to see whether a change moved any
eigenvalue, certificate value, root, zero, verdict, expression tree or
constant by as little as one bit:

    PYTHONPATH=src python scripts/spectrum_digest.py > digest.json

The smooth coefficients and the witness a_eps take most of the time.
"""

import dataclasses
import json
import math
import os
import random
import tempfile

from hillstab import cli
from hillstab import coeff as cf
from hillstab import constants as cn
from hillstab import expr as ex
from hillstab import floquet as fq
from hillstab import lyapunov as ly
from hillstab import nonlinear as nl
from hillstab import witness as wt
from hillstab import zeros as zr

T = 2 * math.pi
SMOOTH = {
    "1.2+0.4cos(2x), T=pi": cf.from_expression("1.2+0.4*cos(2*x)", math.pi),
    "0.5+0.3cos(x)": cf.from_expression("0.5+0.3*cos(x)", T),
    "two_step(1, 1)": wt.make_two_step(1.0, 1.0),
}
# the one coefficient here whose pieces divide and take powers
WITNESS = {"a_eps(1, 2pi, 0.35)": wt.make_a_eps(1, T, 0.35)}
# several non-constant pieces, integrated in one call per pass
STACKED = {
    "a_eps(3, 2pi, 1e-3)": wt.make_a_eps(3, T, 1e-3),
    "1.2+0.4cos(2x) in 3 pieces, T=pi": cf.PeriodicCoefficient(math.pi, tuple(
        (s, e, ex.parse("1.2+0.4*cos(2*x)"))
        for s, e in [(0.0, 0.5), (0.5, 2.0), (2.0, math.pi)])),
}
STEPS = {
    "const 0": cf.constant(0.0, T),
    "const 0.3": cf.constant(0.3, T),
    "const 16.5": cf.constant(16.5, T),
    "0 on (0,2), 2 on (2,2pi)": cf.step_function(
        T, [(0.0, 2.0, 0.0), (2.0, T, 2.0)]),
}
rng = random.Random(7)
for r in range(4):
    b = sorted(rng.uniform(0.3, T - 0.3) for _ in range(2))
    STEPS[f"random 3-plateau {r}"] = cf.step_function(
        T, [(0.0, b[0], rng.uniform(-2, 3)), (b[0], b[1], rng.uniform(-2, 3)),
            (b[1], T, rng.uniform(-2, 3))])

# two of these have T = pi, so the L-infinity certificates and their 1024
# diagnostics each are printed too
CERTIFIED = {
    "1.2+0.4cos(2x), T=pi": SMOOTH["1.2+0.4cos(2x), T=pi"],
    "tall/short step, T=pi": cf.step_function(
        math.pi, [(0.0, 0.22, 5.0), (0.22, math.pi, 0.026)]),
    "a_eps(1, 2pi, 0.35)": WITNESS["a_eps(1, 2pi, 0.35)"],
}


def problem(f, fu=None):
    return nl.NonlinearProblem(
        ex.parse(f, variables=("x", "u")), T,
        fu=ex.parse(fu, variables=("x", "u")) if fu else None)


# each with exactly one periodic solution
NONLINEAR = {
    "1.5u + 0.1sin(u) + cos(2x)": problem("1.5*u + 0.1*sin(u) + cos(2*x)",
                                          "1.5 + 0.1*cos(u)"),
    "2u - 2sin(x)": problem("2*u - 2*sin(x)"),
    "1.1u": problem("1.1*u"),
}


def enveloped(period):
    """Acceptance criterion 11's problem, with envelopes and u box."""
    return nl.NonlinearProblem(
        ex.parse("1.5*u + 0.1*sin(u) + cos(2*x)", variables=("x", "u")),
        period, fu=ex.parse("1.5 + 0.1*cos(u)", variables=("x", "u")),
        alpha_env=cf.constant(1.4, period), beta_env=cf.constant(1.6, period),
        u_box=(-20.0, 20.0))


ENVELOPED = {"criterion 11": enveloped(T), "criterion 11, T=pi":
             enveloped(math.pi)}
ZEROS = [
    ("a_eps(1, 2pi, 0.35)", WITNESS["a_eps(1, 2pi, 0.35)"], "periodic", 1),
    ("two_step(pi/4, anti_resonant_x0(pi/4)[0])", wt.make_two_step(
        math.pi / 4, wt.anti_resonant_x0(math.pi / 4)[0]), "antiperiodic",
     1),
    ("a_eps(3, 2pi, 1e-3)", STACKED["a_eps(3, 2pi, 1e-3)"], "periodic", 3),
]


# chart CSVs at 201 points over (mu_from, mu_to): constant pieces only,
# one constant and one smooth piece, one smooth piece
CHARTS = {
    "4-plateau step": (cf.step_function(T, [
        (0.0, 1.1, 1.3), (1.1, 2.5, -0.7), (2.5, 4.0, 0.0), (4.0, T, 2.2)]),
        -4.0, 60.0),
    "README two-piece": (cf.PeriodicCoefficient.from_dict({
        "period": T, "pieces": [
            {"from": 0.0, "to": 2.0, "expr": "1.5"},
            {"from": 2.0, "to": T, "expr": "0.5 + 0.3*cos(x)"}]}), -1.0, 12.0),
    "1.2+0.4cos(2x), T=pi": (SMOOTH["1.2+0.4cos(2x), T=pi"], -2.0, 40.0),
}


def chart(a, lo, hi):
    """The lines of `chart --points 201` on a over (lo, hi)."""
    with tempfile.TemporaryDirectory() as tmp:
        src, csv = os.path.join(tmp, "a.json"), os.path.join(tmp, "a.csv")
        with open(src, "w") as fh:
            json.dump(a.to_dict(), fh)
        cli.main(["chart", src, "--mu-from", repr(lo), "--mu-to", repr(hi),
                  "--points", "201", "--output", csv])
        with open(csv) as fh:
            return fh.read().splitlines()


def entries(es):
    return [[e.index, repr(e.value), e.multiplicity] for e in es]


def main():
    calls = rhs_calls = 0
    propagators, solve_ivp = fq._propagators, nl.solve_ivp

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return propagators(*args, **kwargs)

    def counted_ivp(*args, **kwargs):
        nonlocal rhs_calls
        sol = solve_ivp(*args, **kwargs)
        rhs_calls += sol.nfev
        return sol

    fq._propagators, fq.solve_ivp, nl.solve_ivp = \
        counted, counted_ivp, counted_ivp
    out, spectra, certs = {}, {}, {}
    for name, a in {**STEPS, **SMOOTH, **WITNESS, **STACKED}.items():
        if name in STACKED:
            counts = [(3, 3)]
        elif name in WITNESS:
            counts = [(3, 2)]
        elif name in SMOOTH:
            counts = [(6, 6)]
        else:
            counts = [(7, 7), (5, 4), (3, 6), (6, 2)]
        for p, q in counts:
            calls = rhs_calls = 0
            s = fq.spectrum(a, p, q)
            spectra.setdefault(name, s)
            out[f"{name}: spectrum({p}, {q})"] = {
                "periodic": entries(s.periodic),
                "antiperiodic": entries(s.antiperiodic),
                "monodromy_passes": calls,
                "rhs_calls": rhs_calls}
            out[f"{name}: periodic({p})"] = entries(
                fq.periodic_eigenvalues(a, p).periodic)
            out[f"{name}: antiperiodic({q})"] = entries(
                fq.antiperiodic_eigenvalues(a, q).antiperiodic)
    for name, a in CERTIFIED.items():
        certs[name] = ly.certify_all(a)
        out[f"{name}: certify_all"] = [c.to_dict() for c in certs[name]]

    for name, p in NONLINEAR.items():
        rhs_calls = 0
        r = nl.solve_periodic(p, starts=16)
        out[f"{name}: solve_periodic(starts=16)"] = {
            "solutions": [[repr(s.u0), repr(s.du0), repr(s.residual)]
                          for s in r.solutions],
            "unique": r.unique,
            "n_converged_starts": r.n_converged_starts,
            "rhs_calls": rhs_calls}

    for name, a in CERTIFIED.items():
        out[f"{name}: verification"] = cli._verification(a, certs[name])
        s = spectra.get(name) or fq.spectrum(a, 3, 2)
        out[f"{name}: classify at edges"] = [
            [kind, e.index, v.kind, v.zone_index, entries(v.witness or ()),
             repr(v.discriminant)]
            for kind, es in (("periodic", s.periodic),
                             ("antiperiodic", s.antiperiodic))
            for e in es for v in [fq.classify(a, e.value)]]

    for name, p in ENVELOPED.items():
        out[f"{name}: nonlinear check --n 1"] = [
            c.to_dict() for c in nl.check_all(p, 1)]
    zs = {name: (a, zr.extract_zero_structure(a, bc), n)
          for name, a, bc, n in ZEROS}
    for name, (a, z, _) in zs.items():
        out[f"{name}: zeros {z.bc}"] = z.to_dict()
    for name, (a, z, n) in zs.items():
        out[f"{name}: subinterval_inequality(n={n})"] = \
            zr.subinterval_inequality(a, z, n)
    for n in (1, 2, 3):
        out[f"a_eps({n}, 2pi, 0.05): to_dict"] = \
            wt.make_a_eps(n, T, 0.05).to_dict()
    out["two_step(1, 1): to_dict"] = wt.make_two_step(1.0, 1.0).to_dict()
    out["constants_table(3, 2pi)"] = [dataclasses.asdict(r)
                                      for r in cn.constants_table(3, T)]
    for name, (a, lo, hi) in CHARTS.items():
        out[f"{name}: chart {lo!r} {hi!r}"] = chart(a, lo, hi)
    print(json.dumps(out, indent=1, default=cli._json_default))


if __name__ == "__main__":
    main()
