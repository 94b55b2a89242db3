"""In-domain properties of the functions that return a survival.

`tests/test_domains.py` sweeps each numeric kind with values outside its
domain; here values are drawn from inside it, edges and extremes included,
and each survival must lie in [0, 1] and must not grow with the time it
decays over.  Examples are derandomized with a stated count, so every run
sees the same inputs; the module takes about a second.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atomsampler.exactsim import run_circuit, uniform_state
from atomsampler.interferometer import clements_decompose, haar_random_unitary
from atomsampler.lossmodel import p_step_background, p_step_twobody, p_step_twobody_closed

EXTREMES = [5e-324, 1e-310, 1e-12, 1.0, 1e12, 1e300, 1.7976931348623157e308]

#: In-domain values of the numeric kinds of `tests/test_domains.py`: edges,
#: extremes, values near 1 (where survivals change with t) and the full range.
KINDS = {
    "time": st.sampled_from([0.0, *EXTREMES]) | st.floats(0.0, 10.0)
    | st.floats(0.0, allow_infinity=False),
    "lifetime": st.sampled_from([math.inf, *EXTREMES]) | st.floats(0.1, 10.0) | st.floats(5e-324),
    "positive": st.sampled_from(EXTREMES) | st.floats(0.1, 10.0)
    | st.floats(5e-324, allow_infinity=False),
    "count": st.integers(0, 100) | st.integers(0, 10**6),
}
TIMES = st.lists(KINDS["time"], min_size=2, max_size=2).map(sorted)

PROPERTIES = settings(max_examples=100, derandomize=True, database=None, deadline=None)


def _is_survival_curve(survivals):
    """Each survival in [0, 1], and none larger than the one at an earlier time."""
    return all(0.0 <= p <= 1.0 for p in survivals) and survivals[0] >= survivals[1]


@PROPERTIES
@given(n=KINDS["count"], times=TIMES, tau_bg=KINDS["lifetime"])
def test_background_survival(n, times, tau_bg):
    assert _is_survival_curve([p_step_background(n, t, tau_bg) for t in times])


@PROPERTIES
@given(c=KINDS["positive"], times=TIMES, tau_tb=KINDS["lifetime"])
def test_closed_two_body_survival(c, times, tau_tb):
    assert _is_survival_curve([p_step_twobody_closed(c, t, tau_tb) for t in times])


@st.composite
def geometries(draw):
    """N <= 40 atoms on an even M <= 1600 modes with room for three atoms a site."""
    n = draw(st.integers(0, 40))
    sites = draw(st.integers(max(1, -(-n // 3)), 800))
    return n, 2 * sites


@PROPERTIES
@given(geometry=geometries(), times=TIMES, tau_tb=KINDS["lifetime"])
def test_finite_two_body_survival(geometry, times, tau_tb):
    n, m = geometry
    assert _is_survival_curve([p_step_twobody(n, m, t, tau_tb) for t in times])


PLANS = {m: clements_decompose(haar_random_unitary(m, seed=m)) for m in range(1, 6)}


@st.composite
def circuits(draw):
    """(amps, n, plan, rates) of up to 3 atoms on up to 5 modes, each rate >= 0 or inf."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 3))
    amps = uniform_state(n, m)
    rate = st.sampled_from([0.0, math.inf, *EXTREMES]) | st.floats(0.0)
    rates = draw(st.lists(rate, min_size=len(amps), max_size=len(amps)))
    return amps, n, PLANS[m], np.array(rates)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(circuit=circuits(), t_step=KINDS["time"])
def test_circuit_step_survivals_are_probabilities(circuit, t_step):
    _, p_j = run_circuit(*circuit, t_step)
    assert ((0.0 <= p_j) & (p_j <= 1.0)).all(), p_j
