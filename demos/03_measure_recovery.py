"""The bijection run backwards: from Cartan data to the spectral measure.

A covariant KMS state restricted to the Cartan subalgebra is a vacuum mass
plus overlapping geometric ladders.  Peeling recovers the ladder bases from
the atoms; a matrix-pencil + constrained least-squares fit recovers them
from samples of the characteristic functional.  Data that is not of this
form is rejected rather than approximated.
"""

import math

import numpy as np

from swnkms import (
    CartanMeasure,
    NotExtendable,
    SpectralMeasure,
    StateSpec,
    cartan_restriction,
    chi_closed_form,
    chi_fit,
    ladder_peel,
)

beta = 1.0
truth = SpectralMeasure(0.3, ((1.2, 0.4), (3.2, 0.2), (6.9, 0.1)))
state = StateSpec.mixture(truth, beta)
print("true measure: m1 =", truth.m1, " atoms =", truth.atoms)

print()
print("== route 1: peel the restricted measure ==")
restriction = cartan_restriction(state)
print(f"restriction has {len(restriction.atoms)} atoms; first five:")
for x, mass in restriction.atoms[:5]:
    print(f"   x={x:7.4f}  mass={mass:.6f}")
peeled = ladder_peel(restriction, beta)
print("recovered m1 =", peeled.measure.m1)
for lam, w in peeled.measure.atoms:
    print(f"   lambda={lam:.12f}  w={w:.12f}")
print("leftover mass:", peeled.residual)

print()
print("== route 2: fit sampled chi(t) ==")
ts = np.linspace(-10.0, 10.0, 201)
samples = list(zip(ts, chi_closed_form(state, ts)))
fitted = chi_fit(samples, beta, max_atoms=5)
print("recovered m1 =", round(fitted.measure.m1, 12))
for lam, w in fitted.measure.atoms:
    print(f"   lambda={lam:.12f}  w={w:.12f}")
print("rms residual :", fitted.residual)

print()
print("== the routes agree ==")
gap = max(
    abs(a - b)
    for pa, pb in zip(peeled.measure.atoms, fitted.measure.atoms)
    for a, b in zip(pa, pb)
)
print("max atom/weight gap between routes:", gap)

print()
print("== tampered data is refused ==")
single = cartan_restriction(StateSpec.gibbs(1.5, beta))
atoms = list(single.atoms)
atoms[1] = (atoms[1][0], atoms[1][1] - 0.05)  # breaks the geometric ratio
atoms.append((99.5, 0.05))  # keep total mass 1
try:
    ladder_peel(CartanMeasure(atoms=tuple(atoms)), beta)
except NotExtendable as err:
    print("perturbed ladder ->", err)

# On this uniform grid chi/g of any fit with at most 5 atoms is a sum of at
# most 7 exponentials (the atoms and m1's nodes at 0 and 2), so its Hankel
# matrix has rank 7 at most.  The 8th singular value of the Gaussian's Hankel
# matrix then bounds the rms residual of every such fit from below, whatever
# its weights, and the rejection needs no fit at all.
gaussian = [(float(t), complex(math.exp(-t * t))) for t in ts]
try:
    chi_fit(gaussian, beta, max_atoms=5)
except NotExtendable as err:
    print("Gaussian chi     ->", err)
