"""The partially semiclassical regime: V(x, y) = |x| y^2.

This potential vanishes on both axes, so the plain phase-space volume is
infinite; the eigenvalue count still grows like a power of lam, but its
prefactor involves the transverse operators -d^2/dy^2 + y^2 attached to the
two longitudinal directions.  The script computes their zeta traces, the
resulting law N(lam) ~ (2 pi / 15) lam^(5/2), and compares it against exact
counting of a 2d discretization.
"""

import numpy as np

from semispec import (
    QuadrantProfile,
    SeparatelyHomogeneous,
    build_hamiltonian,
    channel_boxes,
    counting_function,
    exponent_fit,
    points_for_spacing,
    transverse_zetas,
    zeta_power,
)
from semispec.asymptotics import divergence_classifier, partial_counting_law

pot = SeparatelyHomogeneous(1.0, 2.0, QuadrantProfile(1.0, 1.0, 1.0, 1.0))

print("naive phase-space volume:", divergence_classifier(1, 1, pot.alpha, pot.beta))

zetas = transverse_zetas(pot, zeta_power(pot), 12.0, 2399)
for omega, z in zetas.items():
    print(f"transverse zeta at omega={omega:+d}: {z:.6f}  (pi^2/8 = {np.pi**2 / 8:.6f})")
law = partial_counting_law(pot, zetas)

lam_top = 6.0
lx, ly = channel_boxes(pot, lam_top)
points = (points_for_spacing(lx, 0.22), points_for_spacing(ly, 0.13))
op = build_hamiltonian(pot, (lx, ly), points)
print(f"\nbox ({lx:.1f}, {ly:.1f}), {points[0]} x {points[1]} nodes")
print("\nlambda   N(lambda)   prediction   ratio")
samples = []
for lam in (3.0, 4.0, 5.0, 6.0):
    n = counting_function(op, lam)
    pred = law.at(lam)
    samples.append((lam, n))
    print(f"{lam:5.1f}    {n:6d}     {pred:9.2f}   {n / pred:.3f}")
fit = exponent_fit(samples)
print(f"\nfitted exponent {fit.slope:.3f}; the law says {law.exponent:.1f}")
