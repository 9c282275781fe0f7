"""Counting and heat growth laws for -d^2/dx^2 + x^2.

The eigenvalue count below lam grows like lam/2 and t * Tr e^(-tH) tends to
1/2; both prefactors come from one phase-space volume, which the script also
verifies by direct quadrature.
"""

import numpy as np

from semispec import (
    Homogeneous,
    build_hamiltonian,
    counting_box,
    counting_function,
    counting_law,
    exponent_fit,
    heat_box,
    heat_law,
    heat_trace,
    phase_space_identity_check,
    points_for_spacing,
)

pot = Homogeneous(2.0, 1, (1.0, 1.0))
counting, heat = counting_law(pot), heat_law(pot)

lam_list = [40.0, 80.0, 160.0, 320.0]
box = counting_box(pot, max(lam_list))
op = build_hamiltonian(pot, box, points_for_spacing(box, 0.01))
print(f"counting grid: box {box:.0f}, {op.points[0]} nodes\n")
print("lambda    N(lambda)   lam/2     ratio")
samples = []
for lam in lam_list:
    n = counting_function(op, lam)
    pred = counting.at(lam)
    samples.append((lam, n))
    print(f"{lam:6.0f}   {n:6d}     {pred:7.1f}   {n / pred:.4f}")
fit = exponent_fit(samples)
print(f"fitted exponent: {fit.slope:.4f} (law says 1)\n")

print("t        t*heat_trace   t*prediction")
for t in (0.5, 0.2, 0.1, 0.05):
    hb = heat_box(pot, t)
    hop = build_hamiltonian(pot, hb, points_for_spacing(hb, 0.01))
    val = heat_trace(hop, t, method="truncated")
    print(f"{t:5.2f}    {t * val:.6f}       {t * heat.at(t):.6f}")

print("\nphase-space identity (closed form vs midpoint quadrature):")
for kwargs in ({"lam": 10.0}, {"t": 0.1}):
    chk = phase_space_identity_check(pot, nodes=10**6, **kwargs)
    kind = "counting" if "lam" in kwargs else "heat"
    print(
        f"  {kind:8s}: closed {chk.closed_form:.6f}  quad {chk.quadrature:.6f}  "
        f"rel err {chk.rel_error:.2e}"
    )
