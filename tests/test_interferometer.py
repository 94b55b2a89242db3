import json

import numpy as np
import pytest

from atomsampler.errors import ValidationError
from atomsampler.interferometer import (
    CircuitPlan,
    LocalCoupling,
    clements_decompose,
    composite_pulse,
    coupling_matrix,
    haar_random_unitary,
    plan_from_json,
    plan_to_json,
    reconstruct,
    unitarity_defect,
    unitary_from_json,
    unitary_to_json,
)


def _couplings(plan):
    return [c for layer in plan.layers for c in layer]


def test_coupling_matrix_examples():
    assert np.allclose(coupling_matrix(0.0, 0.0), np.eye(2))
    assert np.allclose(coupling_matrix(np.pi, 0.0), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    root2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(
        coupling_matrix(np.pi / 2.0, 0.0), [[root2, -root2], [root2, root2]]
    )


def test_coupling_matrix_determinant_and_unitarity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        t = coupling_matrix(theta, phi)
        assert unitarity_defect(t) < 1e-12
        det = np.linalg.det(t)
        assert abs(det - np.exp(-1j * phi)) < 1e-12
        assert abs(abs(det) - 1.0) < 1e-12


def test_composite_pulse_identity_cases():
    for phi in (0.0, 0.7, np.pi, 5.1):
        seq = composite_pulse(0.0, phi)
        assert np.allclose(seq.as_matrix(), np.diag([np.exp(-1j * phi), 1.0]), atol=1e-12)
        assert np.allclose(seq.as_matrix(), coupling_matrix(0.0, phi), atol=1e-12)
    assert np.allclose(
        composite_pulse(np.pi, 0.0).as_matrix(), [[0.0, -1.0], [1.0, 0.0]], atol=1e-12
    )


def test_composite_pulse_random_angles():
    rng = np.random.default_rng(77)
    for _ in range(200):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        gap = np.abs(composite_pulse(theta, phi).as_matrix() - coupling_matrix(theta, phi))
        assert gap.max() < 1e-12


def test_composite_pulse_train_structure():
    seq = composite_pulse(np.pi / 2.0, np.pi / 3.0)
    labels = [label for label, _ in seq.factors()]
    assert labels == [
        "phase_imprint",
        "hadamard",
        "phase_imprint",
        "hadamard_dagger",
        "global_phase",
    ]
    assert seq.global_phase == pytest.approx(-np.pi / 6.0)


def test_haar_determinism_and_unitarity():
    u1 = haar_random_unitary(8, seed=42)
    u2 = haar_random_unitary(8, seed=42)
    assert np.array_equal(u1, u2)
    assert unitarity_defect(u1) < 1e-12
    single = haar_random_unitary(1, seed=0)
    assert abs(abs(single[0, 0]) - 1.0) < 1e-12


def test_haar_eigenangles_uniform():
    from scipy import stats

    angles = []
    for seed in range(2000):
        u = haar_random_unitary(4, seed=seed)
        angles.extend(np.angle(np.linalg.eigvals(u)))
    counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_decompose_identity_canonical():
    plan = clements_decompose(np.eye(4, dtype=complex))
    assert plan.depth <= 4
    assert all(c.theta == 0.0 and c.phi == 0.0 for c in _couplings(plan))
    assert np.allclose(plan.output_phases, 0.0)
    assert plan.coupling_count == 6  # fixed mesh shape retains identity couplings


def test_decompose_diagonal_canonical():
    alpha = np.array([0.3, -1.2, 2.0, 0.7])
    plan = clements_decompose(np.diag(np.exp(1j * alpha)))
    assert all(c.theta == 0.0 for c in _couplings(plan))
    assert np.allclose(plan.output_phases, alpha, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16])
def test_decompose_round_trip(m):
    u = haar_random_unitary(m, seed=7)
    plan = clements_decompose(u)
    assert plan.depth <= m
    assert plan.coupling_count <= m * (m - 1) // 2
    err = np.linalg.norm(reconstruct(plan) - u)
    assert err < 1e-10
    assert unitarity_defect(reconstruct(plan)) < 1e-12


def test_decompose_depth_stays_within_m_layers():
    # the mesh schedule depends on M only: every kind of unitary gets the same
    # layers, and there are never more than M of them
    for m in range(1, 65):
        shuffle = np.random.default_rng(m).permutation(m)
        layouts = set()
        for u in (haar_random_unitary(m, seed=m), np.eye(m), np.eye(m)[shuffle]):
            plan = clements_decompose(u)
            assert plan.depth <= m
            layouts.add(tuple(tuple(c.pair for c in layer) for layer in plan.layers))
        assert len(layouts) == 1


def test_layer_structure_alternates_parity():
    plan = clements_decompose(haar_random_unitary(7, seed=19))
    for idx, layer in enumerate(plan.layers):
        for coupling in layer:
            assert coupling.layer == idx
            assert coupling.pair[0] % 2 == idx % 2
        modes = [m for c in layer for m in c.pair]
        assert len(modes) == len(set(modes))


def test_decompose_angle_ranges():
    plan = clements_decompose(haar_random_unitary(9, seed=3))
    for c in _couplings(plan):
        assert 0.0 <= c.theta <= np.pi
        assert 0.0 <= c.phi < 2.0 * np.pi


def test_decompose_reconstruct_idempotent_on_plans():
    for m in (3, 5, 8):
        plan = clements_decompose(haar_random_unitary(m, seed=m))
        again = clements_decompose(reconstruct(plan))
        assert plan.depth == again.depth
        for c1, c2 in zip(_couplings(plan), _couplings(again)):
            assert c1.pair == c2.pair
            assert c1.theta == pytest.approx(c2.theta, abs=1e-9)
            delta = np.angle(np.exp(1j * (c1.phi - c2.phi)))
            assert abs(delta) < 1e-9
        phase_gap = np.angle(np.exp(1j * (plan.output_phases - again.output_phases)))
        assert np.max(np.abs(phase_gap)) < 1e-9


def test_decompose_permutation_matrices():
    import itertools

    for m in (2, 3, 4):
        for perm in itertools.permutations(range(m)):
            p = np.eye(m, dtype=complex)[list(perm)]
            plan = clements_decompose(p)
            assert np.linalg.norm(reconstruct(plan) - p) < 1e-12


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValidationError, match="defect"):
        clements_decompose(np.full((3, 3), 0.5))
    with pytest.raises(ValidationError):
        clements_decompose(np.ones((2, 3)))


def test_reconstruct_empty_plan():
    plan = CircuitPlan(m=3, layers=(), output_phases=np.zeros(3))
    assert np.allclose(reconstruct(plan), np.eye(3))


def test_reconstruct_single_coupling():
    coupling = LocalCoupling(layer=0, pair=(0, 1), theta=np.pi / 2.0, phi=0.0)
    plan = CircuitPlan(m=2, layers=((coupling,),), output_phases=np.zeros(2))
    assert np.allclose(reconstruct(plan), coupling_matrix(np.pi / 2.0, 0.0))


def test_reconstruct_rejects_overlapping_couplings():
    # and every other broken pair: negative, not adjacent, past the last mode
    first = LocalCoupling(layer=0, pair=(0, 1), theta=0.3, phi=0.0)
    for pair, message in (((1, 2), "overlap"), ((-1, 0), "invalid"), ((1, 3), "invalid"),
                          ((2, 3), "invalid")):
        layer = (first, LocalCoupling(layer=0, pair=pair, theta=0.4, phi=0.0))
        plan = CircuitPlan(m=3, layers=(layer,), output_phases=np.zeros(3))
        with pytest.raises(ValidationError, match=message):
            reconstruct(plan)


def test_plan_json_round_trip():
    plan = clements_decompose(haar_random_unitary(5, seed=1))
    payload = json.dumps(plan_to_json(plan))
    revived = plan_from_json(json.loads(payload))
    assert np.allclose(reconstruct(revived), reconstruct(plan), atol=1e-12)


def test_unitary_json_round_trip():
    u = haar_random_unitary(4, seed=2)
    payload = json.dumps(unitary_to_json(u))
    revived = unitary_from_json(json.loads(payload))
    assert np.allclose(revived, u)
    with pytest.raises(ValidationError):
        unitary_from_json({"m": 3, "re": [[1.0]], "im": [[0.0]]})
