"""In-domain properties of the functions that return a survival or a probability.

`tests/test_domains.py` sweeps each numeric kind with values outside its
domain; here values are drawn from inside it, edges and extremes included,
and each survival must lie in [0, 1] and must not grow with the time it
decays over.  The closed two-body survival must match its small-t limit,
and an output distribution must sum to one.  Examples are derandomized
with a stated count, so every run sees the same inputs; the module takes
about a second and a half.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atomsampler.exactsim import run_circuit, uniform_state
from atomsampler.fock import FockState
from atomsampler.interferometer import clements_decompose, haar_random_unitary
from atomsampler.lossmodel import p_step_background, p_step_twobody, p_step_twobody_closed
from atomsampler.sampling import output_distribution

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
#: for draws that each run a circuit or a distribution
FEWER_PROPERTIES = settings(PROPERTIES, max_examples=50)


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


@PROPERTIES
@given(c=st.floats(1e-3, 1e3), ratio=st.sampled_from([0.0, 5e-324, 1e-300, 1e-3])
       | st.floats(0.0, 1e-3), tau_tb=st.sampled_from([1.0, 1e-300, 1e300]) | st.floats(1e-3, 1e3))
def test_closed_two_body_survival_at_short_times(c, ratio, tau_tb):
    # exp[(1.5 / c) expm1(-x)] against exp(-1.5 x / c), x = t / tau: the next term of expm1,
    # x^2 / 2, gives a relative gap of about 0.75 x^2 / c; stated bound x^2 / c + 1e-13
    t = ratio * tau_tb
    x = t / tau_tb
    limit = math.exp(-1.5 * x / c)
    gap = abs(p_step_twobody_closed(c, t, tau_tb) - limit) / limit
    assert gap <= x * x / c + 1e-13, (gap, x, c)


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


@FEWER_PROPERTIES
@given(circuit=circuits())
def test_circuit_step_survivals_are_probabilities(circuit):
    _, p_j = run_circuit(*circuit)
    assert ((0.0 <= p_j) & (p_j <= 1.0)).all(), p_j


@st.composite
def haar_inputs(draw):
    """(U, input state) of a Haar M x M unitary, M <= 8, and N <= 4 atoms anywhere."""
    m = draw(st.integers(1, 8))
    modes = draw(st.lists(st.integers(0, m - 1), max_size=4))
    u = haar_random_unitary(m, seed=draw(st.integers(0, 2**32 - 1)))
    return u, FockState(tuple(np.bincount(modes, minlength=m).tolist()))


@FEWER_PROPERTIES
@given(inputs=haar_inputs())
def test_output_distribution_is_a_distribution(inputs):
    full = output_distribution(*inputs)
    # stated bound: the mass of at most 330 outcomes lies within 1e-12 of 1
    assert abs(full.total_mass - 1.0) <= 1e-12, full.total_mass
    assert ((0.0 <= full.probs) & (full.probs <= 1.0)).all()
    # with N <= 1 every outcome is collision free, and its mass rounds as the full one does
    kept = output_distribution(*inputs, collision_free_only=True).total_mass
    assert 0.0 <= kept <= 1.0 + 1e-12 and kept <= full.total_mass
