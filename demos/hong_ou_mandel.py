"""Two-atom interference on a balanced coupler, end to end.

Walks through the exact two-mode calculation, the forward Monte Carlo of the
full experimental sequence (one multinomial draw of the trial outcomes), and
the closed-form least-squares extraction of the bunching probability from
simulated counts.
"""

import numpy as np

from atomsampler import (
    FockState,
    HomParams,
    bunching_from_p2,
    coupling_matrix,
    fit_bunching,
    hom_analytic,
    hom_monte_carlo,
    outcome_probability,
    purity_from_bunching,
)

# --- the ideal effect: two identical bosons never exit on different modes ---

splitter = coupling_matrix(np.pi / 2, 0.0)
one_each = FockState((1, 1))
print("balanced coupler, both atoms in distinct modes:")
for out in [(1, 1), (2, 0), (0, 2)]:
    p = outcome_probability(splitter, one_each, FockState(out))
    print(f"  P{out} = {p:.12f}")

# --- a realistic sequence: finite survival, light-induced pair loss -------

params = HomParams(
    survival_s=0.84,   # per-atom survival through cooling and transport
    p_lic0=0.71,       # bunched pair leaves zero atoms after imaging
    gamma=0.462,       # indistinguishability from motional ground-state prep
    p_addr=0.95,       # spin-addressing success (post-selected)
    p_rec=0.99,        # position reconstruction success (post-selected)
)
print(f"\nbunching probability implied by purity: {params.p_bunch:.3f}")

analytic = hom_analytic(params)
simulated = hom_monte_carlo(params, trials=10**6, seed=42)
print("outcome      analytic   monte carlo")
for label, a, b in [
    ("zero atoms", analytic.p0, simulated.p0),
    ("one atom  ", analytic.p1, simulated.p1),
    ("two atoms ", analytic.p2, simulated.p2),
]:
    print(f"  {label}  {a:.4f}     {b:.4f}")

# --- recovering the bunching probability from the counts ------------------

fit = fit_bunching(simulated, survival_s=0.84, p_lic0=0.71, seed=7)
print(f"\nleast-squares fit:   P_bunch = {fit.p_bunch:.3f} +- {fit.sigma:.3f}")
print(f"two-atom inversion:  P_bunch = {bunching_from_p2(analytic.p2, 0.84):.3f}")
print(f"inferred purity:     gamma   = {purity_from_bunching(fit.p_bunch):.3f}")
sigma_from_half = (fit.p_bunch - 0.5) / fit.sigma
print(f"deviation from distinguishable statistics: {sigma_from_half:.1f} sigma")
