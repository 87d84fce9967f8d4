"""Sweep the Floquet discriminant of a two-plateau potential and print the
band structure.

The discriminant Delta(mu) is the trace of the monodromy matrix; the
equation u'' + (mu + a(x)) u = 0 is stable exactly where |Delta| < 2.
Band edges are the periodic (Delta = 2) and antiperiodic (Delta = -2)
eigenvalues, and they interlace:

    lam_0 < alam_1 <= alam_2 < lam_1 <= lam_2 < alam_3 <= alam_4 < ...

Run:  python demos/stability_chart.py
"""

import math

import numpy as np

from hillstab import coeff, floquet

T = 2 * math.pi
a = coeff.step_function(T, [(0.0, 2.0, 0.0), (2.0, T, 2.0)])

print("coefficient: 0 on (0,2), 2 on (2,2pi)")
spec = floquet.spectrum(a, 5, 4)
print("periodic eigenvalues:   ",
      [f"{v:+.6f}" for v in spec.periodic_values()])
print("antiperiodic eigenvalues:",
      [f"{v:+.6f}" for v in spec.antiperiodic_values()])
ok, msg = floquet.check_interlacing(spec)
if not ok:
    raise RuntimeError(f"band edges do not interlace: {msg}")
print("interlacing: ok")

print("\n  mu      Delta(mu)  verdict")
mus = np.linspace(-2.0, 4.0, 31)
for mu, d in zip(mus, floquet.discriminant(a, mus).tolist()):
    verdict = "stable" if abs(d) < 2 else "unstable"
    bar = "#" * min(40, int(4 * abs(d)))
    print(f"{mu:+6.2f}  {d:+9.4f}  {verdict:8s} {bar}")
