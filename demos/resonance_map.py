"""Map the antiperiodic resonances of the two-plateau potential.

a_{alpha,x0} equals alpha^2/x0^2 on (0, x0) and alpha^2/(pi-x0)^2 on
(x0, pi).  The antiperiodic problem at mu = 0 has a nontrivial solution
exactly when x0 = pi (1 +- cos alpha) / 2 -- the closed-form determinant
vanishes there, and the monodromy confirms Delta(0) = -2.  The periodic
problem never resonates: its determinant is strictly positive.

Run:  python demos/resonance_map.py
"""

import math

import numpy as np

from hillstab import floquet, witness

alpha = math.pi / 4
lo, hi = witness.anti_resonant_x0(alpha)
print(f"alpha = pi/4: predicted resonant x0 = {lo:.6f} and {hi:.6f}\n")

print("  x0      anti-det      Delta(0)+2")
for x0 in np.linspace(0.3, math.pi - 0.3, 21):
    d = witness.anti_determinant(alpha, float(x0))
    a = witness.make_two_step(alpha, float(x0))
    gap = floquet.discriminant(a, 0.0) + 2.0
    mark = "  <-- resonance" if abs(d) < 0.02 else ""
    print(f"  {x0:.4f}  {d:+10.6f}  {gap:+12.8f}{mark}")

print("\nperiodic determinant on the same slice (never zero):")
vals = [witness.periodic_determinant(alpha, float(x0))
        for x0 in np.linspace(0.3, math.pi - 0.3, 21)]
print(f"  min = {min(vals):.6f}, max = {max(vals):.6f}")
