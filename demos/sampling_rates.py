"""Sampling-rate scaling of atomic, photonic, and classical machines.

Evaluates the rate models over a range of atom numbers under the shipped
parameter presets, prints the quantum-advantage crossover, and writes the
curves to sampling_rates.csv in the working directory.
"""

import csv
import math
from pathlib import Path

from atomsampler import crossover, n_threshold, r_classical, r_ideal, r_nisq, r_photonic
from atomsampler.scenarios import load_bundle

sota = load_bundle("state-of-the-art")
conservative = load_bundle("conservative")

print("loss-mechanism threshold (two-body dominates below):")
print(f"  state of the art: N < {n_threshold(sota.loss):.0f}")
print(f"  conservative:     N < {n_threshold(conservative.loss):.0f}")

print("\n   N    ideal        atomic       photonic     classical")
for n in (2, 5, 10, 20, 30, 34, 37, 40, 50):
    print(
        f"  {n:3d}  {r_ideal(sota.loss, n):.3e}   {r_nisq(sota.loss, n):.3e}"
        f"   {r_photonic(sota.photonic, n):.3e}   {r_classical(sota.classical, n):.3e}"
    )

star = crossover(sota.loss, sota.classical)
print(f"\nstate-of-the-art machine overtakes the supercomputer at N* = {star}")
star_cons = crossover(conservative.loss, conservative.classical)
print(f"conservative machine crossover: {star_cons if star_cons else 'not within N <= 200'}")

out = Path.cwd() / "sampling_rates.csv"
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["N", "r_atomic", "r_photonic", "r_classical"])
    for n in range(2, 61):
        writer.writerow(
            [n, r_nisq(sota.loss, n), r_photonic(sota.photonic, n), r_classical(sota.classical, n)]
        )
print(f"\nwrote {out.name}; the atomic/classical gap at N*: "
      f"{r_nisq(sota.loss, star) / r_classical(sota.classical, star):.2f}x")
