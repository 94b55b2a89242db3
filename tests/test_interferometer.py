import json

import numpy as np
import pytest

from atomsampler.errors import ValidationError
from atomsampler.interferometer import (
    CircuitPlan,
    clements_decompose,
    composite_pulse,
    coupling_matrix,
    haar_random_unitary,
    mesh_layers,
    plan_from_json,
    plan_to_json,
    reconstruct,
    unitarity_defect,
    unitary_from_json,
    unitary_to_json,
)


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
    # a stack of angles gives each scalar call's matrix bit for bit
    theta = rng.uniform(0.0, np.pi, size=(3, 5))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=5)
    stack = coupling_matrix(theta, phi)
    assert stack.shape == (3, 5, 2, 2)
    for i, j in np.ndindex(3, 5):
        assert np.array_equal(stack[i, j], coupling_matrix(theta[i, j], phi[j]))


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
    assert np.all(plan.theta == 0.0) and np.all(plan.phi == 0.0)
    assert np.allclose(plan.output_phases, 0.0)
    assert plan.coupling_count == 6  # fixed mesh shape retains identity couplings


def test_decompose_diagonal_canonical():
    alpha = np.array([0.3, -1.2, 2.0, 0.7])
    plan = clements_decompose(np.diag(np.exp(1j * alpha)))
    assert np.all(plan.theta == 0.0)
    assert np.allclose(plan.output_phases, alpha, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16])
def test_decompose_round_trip(m):
    u = haar_random_unitary(m, seed=7)
    plan = clements_decompose(u)
    assert plan.depth <= m
    assert plan.coupling_count == m * (m - 1) // 2
    err = np.linalg.norm(reconstruct(plan) - u)
    assert err < 1e-10
    assert unitarity_defect(reconstruct(plan)) < 1e-12


def test_decompose_round_trip_on_every_size_up_to_64():
    # every coupling sits in its slot: a misplaced one changes the layer-by-layer product
    for m in range(1, 65):
        shuffle = np.random.default_rng(m).permutation(m)
        for u in (haar_random_unitary(m, seed=m), np.eye(m), np.eye(m)[shuffle]):
            plan = clements_decompose(u)
            assert plan.depth <= m
            assert np.linalg.norm(reconstruct(plan) - u) < 1e-10


def test_layer_structure_alternates_parity():
    for m in range(1, 20):
        layers = mesh_layers(m)
        assert len(layers) == (m if m > 2 else m - 1)
        for idx, layer in enumerate(layers):
            assert all(k % 2 == idx % 2 and 0 <= k and k + 1 < m for k in layer)
            modes = [mode for k in layer for mode in (k, k + 1)]
            assert len(modes) == len(set(modes))
        assert sum(map(len, layers)) == m * (m - 1) // 2


def test_decompose_angle_ranges():
    plan = clements_decompose(haar_random_unitary(9, seed=3))
    assert np.all((0.0 <= plan.theta) & (plan.theta <= np.pi))
    assert np.all((0.0 <= plan.phi) & (plan.phi < 2.0 * np.pi))


def test_decompose_reconstruct_idempotent_on_plans():
    for m in (3, 5, 8):
        plan = clements_decompose(haar_random_unitary(m, seed=m))
        again = clements_decompose(reconstruct(plan))
        assert np.max(np.abs(plan.theta - again.theta)) < 1e-9
        delta = np.angle(np.exp(1j * (plan.phi - again.phi)))
        assert np.max(np.abs(delta)) < 1e-9
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
    assert np.allclose(reconstruct(CircuitPlan(1, [], [], np.zeros(1))), np.eye(1))
    idle = CircuitPlan(m=3, theta=np.zeros(3), phi=np.zeros(3), output_phases=np.zeros(3))
    assert np.allclose(reconstruct(idle), np.eye(3))


def test_reconstruct_single_coupling():
    plan = CircuitPlan(m=2, theta=[np.pi / 2.0], phi=[0.0], output_phases=np.zeros(2))
    assert np.allclose(reconstruct(plan), coupling_matrix(np.pi / 2.0, 0.0))


def _dense_reconstruct(plan):
    # reference: one dense M x M product per layer
    u, slot = np.eye(plan.m, dtype=complex), 0
    for layer in mesh_layers(plan.m):
        step = np.eye(plan.m, dtype=complex)
        for k in layer:
            step[k : k + 2, k : k + 2] = coupling_matrix(plan.theta[slot], plan.phi[slot])
            slot += 1
        u = step @ u
    return np.exp(1j * plan.output_phases)[:, None] * u


@pytest.mark.parametrize("m", [1, 2, 3, 8, 17])
def test_reconstruct_matches_dense_layer_products(m):
    plan = clements_decompose(haar_random_unitary(m, seed=m))
    assert np.max(np.abs(reconstruct(plan) - _dense_reconstruct(plan))) < 1e-13


def test_reconstruct_drift_bound():
    # the bound stated in `reconstruct`: Frobenius error below 0.1 M^3 eps
    m = 256
    u = haar_random_unitary(m, seed=7)
    err = np.linalg.norm(reconstruct(clements_decompose(u)) - u)
    assert err < 0.1 * m**3 * np.finfo(float).eps


def test_circuit_plan_rejects_angle_arrays_of_the_wrong_length():
    for theta, phi in (([0.1] * 2, [0.2] * 3), ([0.1] * 3, [0.2] * 4), ([[0.1] * 3], [0.2] * 3)):
        with pytest.raises(ValidationError, match="the mesh on 3 modes has 3 slots"):
            CircuitPlan(m=3, theta=theta, phi=phi, output_phases=np.zeros(3))
    plan = CircuitPlan(m=3, theta=[0.1] * 3, phi=[0.2] * 3, output_phases=np.zeros(3))
    assert not plan.theta.flags.writeable and not plan.phi.flags.writeable


def test_circuit_plans_compare_by_identity():
    # plans of different unitaries on the same M share only m; their angles differ
    first, second = (clements_decompose(haar_random_unitary(6, seed=s)) for s in (1, 2))
    assert first == first and first != second
    assert len({first, second}) == 2


def test_plan_json_round_trip():
    plan = clements_decompose(haar_random_unitary(5, seed=1))
    payload = json.dumps(plan_to_json(plan))
    revived = plan_from_json(json.loads(payload))
    assert np.array_equal(revived.theta, plan.theta)
    assert np.array_equal(revived.phi, plan.phi)
    assert np.allclose(reconstruct(revived), reconstruct(plan), atol=1e-12)


def _moved_pair(layers, pair):
    # the last coupling of the last layer moves to `pair`
    layers[-1][-1]["pair"] = list(pair)


@pytest.mark.parametrize(
    "edit",
    [
        lambda layers: _moved_pair(layers, (2, 3)),
        lambda layers: _moved_pair(layers, (3, 5)),
        lambda layers: _moved_pair(layers, (5, 6)),
        lambda layers: _moved_pair(layers, (-1, 0)),
        lambda layers: layers.insert(0, layers.pop(1)),  # odd pairs come first
        lambda layers: layers.append(layers[-2]),
        lambda layers: layers.pop(),
    ],
    ids=["overlap", "gapped", "past-the-end", "negative", "wrong-parity", "extra-layer",
         "missing-layer"],
)
def test_plan_from_json_rejects_pairs_off_the_mesh(edit):
    payload = plan_to_json(clements_decompose(haar_random_unitary(6, seed=3)))
    edit(payload["layers"])
    with pytest.raises(ValidationError, match="do not follow the mesh on 6 modes"):
        plan_from_json(payload)


IDLE_COUPLING = {"pair": [0, 1], "theta": 0.0, "phi": 0.0}


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"layers": []}, "needs numeric output_phases"),
        ({"output_phases": [0, 0], "layers": [[{"pair": [0, 1], "phi": 0.0}]]}, "theta"),
        ([], "needs numeric output_phases"),
        ({"output_phases": [0, 0], "layers": [["coupling"]]}, "needs numeric output_phases"),
        ({"output_phases": ["north", 0], "layers": []}, "needs numeric output_phases"),
        (
            {"output_phases": [0, 0], "layers": [[{"pair": [0, 1], "theta": "x", "phi": 0}]]},
            "needs numeric output_phases",
        ),
        ({"output_phases": 0, "layers": []}, "flat list"),
        ({"output_phases": [[0, 0]], "layers": []}, "flat list"),
        (
            {"output_phases": [0, 0], "layers": [[{"pair": [0, 1], "theta": None, "phi": 0}]]},
            "theta must be finite",
        ),
        (
            {"output_phases": [0, 0], "layers": [[{"pair": [0, 1], "theta": 1, "phi": np.nan}]]},
            "phi must be finite",
        ),
        ({"output_phases": [0, np.inf], "layers": [[IDLE_COUPLING]]}, "phases must be finite"),
        ({"output_phases": [-np.inf, 0], "layers": [[IDLE_COUPLING]]}, "phases must be finite"),
    ],
    ids=["no-phases", "no-theta", "list-payload", "string-coupling", "text-phase", "text-theta",
         "scalar-phases", "nested-phases", "null-theta", "nan-phi", "inf-phase", "minus-inf-phase"],
)
def test_plan_from_json_rejects_malformed_payloads(payload, message):
    with pytest.raises(ValidationError, match=message):
        plan_from_json(payload)


def test_circuit_plan_rejects_non_finite_entries():
    good = {"theta": [0.1] * 3, "phi": [0.2] * 3, "output_phases": np.zeros(3)}
    for name, values in (("theta", [0.1, np.nan, 0.1]), ("phi", [0.2, 0.2, -np.inf]),
                         ("output_phases", [0.0, np.inf, 0.0])):
        with pytest.raises(ValidationError, match=f"every entry of {name} must be finite"):
            CircuitPlan(m=3, **{**good, name: values})
    with pytest.raises(ValidationError, match="the mesh on 3 modes has 3 modes"):
        CircuitPlan(m=3, **{**good, "output_phases": np.zeros(4)})
    plan = CircuitPlan(m=3, **good)
    assert not plan.output_phases.flags.writeable


def test_unitary_json_round_trip():
    u = haar_random_unitary(4, seed=2)
    payload = json.dumps(unitary_to_json(u))
    revived = unitary_from_json(json.loads(payload))
    assert np.allclose(revived, u)
    with pytest.raises(ValidationError):
        unitary_from_json({"m": 3, "re": [[1.0]], "im": [[0.0]]})
