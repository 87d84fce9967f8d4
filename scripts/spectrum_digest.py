"""Print the exact eigenvalues and certificates of a fixed set of
coefficients as JSON.

Every entry is (index, repr(value), multiplicity), from `spectrum`,
`periodic_eigenvalues` and `antiperiodic_eigenvalues`, together with the
number of discriminant evaluations each `spectrum` call made.  Three
coefficients also get `certify_all(...).to_dict()`, every L-infinity
diagnostic included.  Run it on two checkouts and diff the outputs to see
whether a change moved any eigenvalue or certificate value by as little as
one bit:

    PYTHONPATH=src python scripts/spectrum_digest.py > digest.json

The smooth coefficients and the witness a_eps take most of the time.
"""

import json
import math
import random

from hillstab import coeff as cf
from hillstab import floquet as fq
from hillstab import lyapunov as ly
from hillstab import witness as wt

T = 2 * math.pi
SMOOTH = {
    "1.2+0.4cos(2x), T=pi": cf.from_expression("1.2+0.4*cos(2*x)", math.pi),
    "0.5+0.3cos(x)": cf.from_expression("0.5+0.3*cos(x)", T),
    "two_step(1, 1)": wt.make_two_step(1.0, 1.0).a,
}
# the one coefficient here whose pieces divide and take powers
WITNESS = {"a_eps(1, 2pi, 0.35)": wt.make_a_eps(1, T, 0.35)}
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


def entries(es):
    return [[e.index, repr(e.value), e.multiplicity] for e in es]


def main():
    calls = 0
    discriminant = fq.discriminant

    def counted(a, mu):
        nonlocal calls
        calls += 1
        return discriminant(a, mu)

    fq.discriminant = counted
    out = {}
    for name, a in {**STEPS, **SMOOTH, **WITNESS}.items():
        if name in WITNESS:
            counts = [(3, 2)]
        elif name in SMOOTH:
            counts = [(6, 6)]
        else:
            counts = [(7, 7), (5, 4), (3, 6), (6, 2)]
        for p, q in counts:
            calls = 0
            s = fq.spectrum(a, p, q)
            out[f"{name}: spectrum({p}, {q})"] = {
                "periodic": entries(s.periodic),
                "antiperiodic": entries(s.antiperiodic),
                "discriminant_calls": calls}
            out[f"{name}: periodic({p})"] = entries(
                fq.periodic_eigenvalues(a, p).periodic)
            out[f"{name}: antiperiodic({q})"] = entries(
                fq.antiperiodic_eigenvalues(a, q).antiperiodic)
    for name, a in CERTIFIED.items():
        out[f"{name}: certify_all"] = [c.to_dict() for c in ly.certify_all(a)]
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
