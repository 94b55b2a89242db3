"""Seed-independent output checks.

Every function takes outputs already parsed into plain values and returns a
list of failure messages; an empty list means the output passed.  The checks
hold for every seed: they test invariants and statistical bounds, never
stored values.
"""

import math

import numpy as np

#: Sample mode means must lie this many standard errors from the exact mean.
MEAN_SIGMAS = 5.0
#: Criterion 07: per-step gap to the step model, and survival lower bound slack.
STEP_GAP = 0.01
SURVIVAL_SLACK = 0.01
#: Relative agreement of perm(A) and perm(A^T), through the probabilities.
TRANSPOSE_RTOL = 1e-9
#: Criterion 09: quantum-advantage crossover of the state-of-the-art preset.
CROSSOVER_RANGE = (33, 41)
#: Criterion 10: Monte Carlo outcome triple against the analytic one.
HOM_GAP = 0.002


def read_csv(path):
    """Rows of a package CSV as lists of strings, plus its `#` lines."""
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                rows.append(line.split(","))
    return comments, rows


def default_input(n, m):
    """Input occupations the `sample` command documents for (n, m)."""
    occ = np.zeros(m, dtype=int)
    if n > 0 and 2 * (n - 1) < m:
        occ[0 : 2 * n : 2] = 1
    else:
        occ[:n] = 1
    return occ


def check_sample(rows, n, m, shots, u):
    """Shot table of `sample`: shape, atom number, per-mode means and bunching.

    `rows` is the (shots, m) occupation table; `u` the unitary the command
    wrote.  The mean occupation of output mode j is sum_i |U_ji|^2 q_i for
    any bosonic input q, whatever the interference.  For the collision-free
    input q, the mean of sum_j n_j (n_j - 1) is
    2 sum_j sum_{i != k} |U_ji|^2 |U_jk|^2 q_i q_k, twice its value for
    distinguishable particles, so it tests the interference the means miss.
    """
    rows = np.asarray(rows)
    failures = []
    if rows.ndim != 2 or rows.shape[1:] != (m,):
        return [f"sample table has shape {rows.shape}, expected (*, {m})"]
    if rows.shape[0] != shots:
        failures.append(f"{rows.shape[0]} sample rows, expected {shots}")
    if (rows < 0).any():
        failures.append("negative occupation in a sample row")
    bad = np.flatnonzero(rows.sum(axis=1) != n)
    if bad.size:
        failures.append(f"{bad.size} sample rows do not hold {n} atoms (first: row {bad[0]})")
    if rows.shape[0] < 2:
        return failures
    q = default_input(n, m)
    weights = np.abs(np.asarray(u)) ** 2
    expected = weights @ q
    means = rows.mean(axis=0)
    se = np.maximum(rows.std(axis=0, ddof=1), 1.0 / rows.shape[0]) / math.sqrt(rows.shape[0])
    off = np.abs(means - expected) / se
    worst = int(np.argmax(off))
    if off[worst] > MEAN_SIGMAS:
        failures.append(
            f"mode {worst} mean {means[worst]:.5f} is {off[worst]:.1f} standard errors "
            f"from the exact {expected[worst]:.5f}"
        )
    w = weights[:, q == 1]
    pairs = 2.0 * float((w.sum(axis=1) ** 2 - (w**2).sum(axis=1)).sum())
    bunching = (rows * (rows - 1)).sum(axis=1)
    se = max(bunching.std(ddof=1), 1.0 / rows.shape[0]) / math.sqrt(rows.shape[0])
    off = abs(bunching.mean() - pairs) / se
    if off > MEAN_SIGMAS:
        failures.append(
            f"mean of sum_j n_j(n_j - 1) {bunching.mean():.5f} is {off:.1f} standard errors "
            f"from the bosonic {pairs:.5f}"
        )
    return failures


def check_exactsim(p_j, summary, realizations):
    """Survival table and summary of `exactsim` against criterion 07's bounds."""
    p_j = np.asarray(p_j, dtype=float)
    failures = []
    if p_j.ndim != 2 or p_j.shape[0] != realizations or p_j.shape[1] < 1:
        return [f"survival table has shape {p_j.shape}, expected ({realizations}, steps)"]
    if not ((p_j >= 0.0) & (p_j <= 1.0)).all():
        failures.append(f"a step survival lies outside [0, 1]: range [{p_j.min()}, {p_j.max()}]")
    step = float(summary["model_p_step"])
    gap = float(np.abs(p_j.mean(axis=0) - step).max())
    if not gap < STEP_GAP:
        failures.append(f"per-step gap to the step model is {gap:.4f}, bound {STEP_GAP}")
    floor = float(summary["model_p_step_pow_M"]) - SURVIVAL_SLACK
    mean_total = float(summary["mean_p_total"])
    if not mean_total >= floor:
        failures.append(f"mean total survival {mean_total:.4f} is below {floor:.4f}")
    if not math.isclose(mean_total, float(np.prod(p_j, axis=1).mean()), rel_tol=1e-9):
        failures.append("mean_p_total does not match the product of the step survivals")
    return failures


def check_probability(p):
    """One scored outcome probability."""
    if not (isinstance(p, float) and 0.0 <= p <= 1.0):
        return [f"outcome probability {p!r} is not a float in [0, 1]"]
    return []


def check_transpose(p, p_transposed):
    """|perm(A)|^2 and |perm(A^T)|^2, with the same norms, must agree."""
    if not abs(p - p_transposed) <= TRANSPOSE_RTOL * abs(p):
        return [f"perm(A) and perm(A^T) disagree: {p!r} vs {p_transposed!r}"]
    return []


def check_rates(rows, crossover_n):
    """Rate table of `rates`: positive finite rates and criterion 09's crossover."""
    failures = []
    if not rows:
        failures.append("rate table is empty")
    for row in rows:
        for value in row[1:]:
            rate = float(value)
            if not (math.isfinite(rate) and rate > 0.0):
                failures.append(f"rate {value} at N={row[0]} is not finite and positive")
                break
    lo, hi = CROSSOVER_RANGE
    if crossover_n is None or not lo <= crossover_n <= hi:
        failures.append(f"crossover N* = {crossover_n}, expected within [{lo}, {hi}]")
    return failures


def check_hom_sim(payload, analytic):
    """Monte Carlo outcome triple of `hom-sim` against the analytic triple."""
    triple = np.array([payload["p0"], payload["p1"], payload["p2"]], dtype=float)
    failures = []
    if not ((triple >= 0.0) & (triple <= 1.0)).all():
        failures.append(f"outcome triple {triple} leaves [0, 1]")
    gap = float(np.abs(triple - np.asarray(analytic, dtype=float)).max())
    if not gap < HOM_GAP:
        failures.append(f"Monte Carlo triple is {gap:.4f} from the analytic one, bound {HOM_GAP}")
    return failures


def check_hom_fit(payload):
    """Fitted bunching probability of `hom-fit`."""
    failures = []
    p_bunch, sigma = float(payload["p_bunch"]), float(payload["sigma"])
    if not 0.5 <= p_bunch <= 1.0:
        failures.append(f"p_bunch = {p_bunch} outside [0.5, 1]")
    if not (math.isfinite(sigma) and sigma > 0.0):
        failures.append(f"sigma = {sigma} is not positive")
    return failures
