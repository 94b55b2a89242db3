"""Factoring a random circuit into site-local couplings and pulse trains.

Any M-mode unitary becomes a fixed rectangular mesh: M layers alternating
between even and odd adjacent mode pairs, M(M-1)/2 couplings in total, and
one final layer of output phases.  Each coupling then maps onto a composite
microwave/phase-imprint pulse sequence.
"""

import numpy as np

from atomsampler import (
    clements_decompose,
    composite_pulse,
    coupling_matrix,
    haar_random_unitary,
    mesh_layers,
    reconstruct,
)

m = 6
u = haar_random_unitary(m, seed=5)
plan = clements_decompose(u)
layers = mesh_layers(m)

print(f"decomposed a Haar-random {m}x{m} unitary:")
print(f"  depth {plan.depth} layers, {plan.coupling_count} couplings "
      f"(maximum {m * (m - 1) // 2})")
slot = 0
for idx, layer in enumerate(layers):
    desc = ", ".join(
        f"({k},{k + 1}) theta={plan.theta[slot + i]:.3f} phi={plan.phi[slot + i]:.3f}"
        for i, k in enumerate(layer)
    )
    slot += len(layer)
    print(f"  layer {idx}: {desc}")
print(f"  output phases: {np.round(plan.output_phases, 3)}")

err = np.linalg.norm(reconstruct(plan) - u)
print(f"\nreconstruction Frobenius error: {err:.2e}")

# one coupling as the hardware would run it: the first slot, pair (0, 1) of layer 0
theta, phi = plan.theta[0], plan.phi[0]
seq = composite_pulse(theta, phi)
print(f"\npulse train for the first coupling (theta={theta:.3f}, phi={phi:.3f}):")
for label, factor in seq.factors():
    print(f"  {label:16s} {np.round(factor, 3).tolist()}")
gap = np.abs(seq.as_matrix() - coupling_matrix(theta, phi)).max()
print(f"pulse product deviation from the coupling: {gap:.2e}")
