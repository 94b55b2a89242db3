"""Exact boson-sampling distributions and seeded sampling from them.

Builds a Haar-random four-mode circuit, computes every outcome probability
through matrix permanents, post-selects the collision-free sector, and
checks drawn samples against the exact law.
"""

import numpy as np

from atomsampler import (
    FockState,
    collision_free_mass,
    draw_samples,
    haar_random_unitary,
    is_collision_free,
    output_distribution,
)

u = haar_random_unitary(4, seed=20)
atoms_in = FockState((1, 0, 1, 0))  # one atom per lattice site, internal plus mode

full = output_distribution(u, atoms_in)
print(f"all {len(full.outcomes)} outcomes of two atoms in four modes (sum = {full.total_mass:.12f}):")
for state, p in full.outcomes:
    tag = "collision-free" if is_collision_free(state) else ""
    print(f"  {state.occupations}  {p:.6f}  {tag}")

restricted = output_distribution(u, atoms_in, collision_free_only=True)
print(f"\ncollision-free sector keeps {restricted.total_mass:.4f} of the probability")
print(f"uniform-mixture estimate at these sizes: {collision_free_mass(2, 4):.4f}")

# sampling is reproducible: the seed fixes every draw
shots = draw_samples(restricted, shots=20000, seed=77)
counts = {}
for row in map(tuple, shots.tolist()):  # one occupation row per shot
    counts[row] = counts.get(row, 0) + 1
print("\nempirical frequencies vs conditional probabilities:")
for state, p in restricted.outcomes:
    freq = counts.get(state.occupations, 0) / len(shots)
    print(f"  {state.occupations}  drawn {freq:.4f}  exact {p / restricted.total_mass:.4f}")
