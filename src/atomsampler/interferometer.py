"""Mode unitaries, their mesh decomposition, and composite pulse synthesis.

The elementary two-mode coupling acting on the internal states of one lattice
site is

    T(theta, phi) = [[exp(-i phi) cos(theta/2), -sin(theta/2)],
                     [exp(-i phi) sin(theta/2),  cos(theta/2)]]

with theta in [0, pi] and phi in [0, 2 pi).  Any M x M unitary factors into a
rectangular mesh of such couplings on adjacent mode pairs, at most M layers
deep with M(M-1)/2 couplings in total, followed by one diagonal layer of
output phases.  Layers alternate between even pairs (0,1), (2,3), ... and odd
pairs (1,2), (3,4), ...; couplings that come out as the identity (theta = 0)
are kept in place so every plan has the same fixed mesh shape.
`check_layer` owns the rule a mesh layer obeys, for every consumer of plans.

Hardware-wise a coupling is a composite pulse: a site-resolved phase imprint
A(phi), a global Hadamard H = exp(-i sigma_x pi/4), a second imprint A(theta),
the inverse Hadamard, and a residual common-mode phase of -phi/2.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fock import check_size_cap

TWO_PI = 2.0 * np.pi

#: Largest max-abs defect of U†U from the identity `clements_decompose` accepts.
UNITARITY_TOL = 1e-10

_HADAMARD = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def coupling_matrix(theta, phi):
    """Two-mode coupling T(theta, phi); unitary with determinant exp(-i phi)."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    ph = np.exp(-1j * phi)
    return np.array([[ph * c, -s], [ph * s, c]], dtype=complex)


def phase_imprint(angle):
    """Differential phase A(angle) = exp(-i sigma_z angle / 2)."""
    return np.array(
        [[np.exp(-1j * angle / 2.0), 0.0], [0.0, np.exp(1j * angle / 2.0)]],
        dtype=complex,
    )


@dataclass(frozen=True)
class PulseSequence:
    """Composite pulse realizing one coupling, in application order.

    The train is A(phi_imprint), Hadamard, A(theta_imprint), inverse
    Hadamard, then a global phase factor exp(i global_phase).
    """

    phi_imprint: float
    theta_imprint: float
    global_phase: float

    def factors(self):
        """Ordered (label, matrix) factors, first applied first."""
        return [
            ("phase_imprint", phase_imprint(self.phi_imprint)),
            ("hadamard", _HADAMARD),
            ("phase_imprint", phase_imprint(self.theta_imprint)),
            ("hadamard_dagger", _HADAMARD.conj().T),
            ("global_phase", np.exp(1j * self.global_phase) * np.eye(2)),
        ]

    def as_matrix(self):
        """Product of the pulse train; equals coupling_matrix of its angles."""
        out = np.eye(2, dtype=complex)
        for _, factor in self.factors():
            out = factor @ out
        return out


def composite_pulse(theta, phi):
    """Pulse train whose product reproduces coupling_matrix(theta, phi)."""
    return PulseSequence(phi_imprint=phi, theta_imprint=theta, global_phase=-phi / 2.0)


@dataclass(frozen=True)
class LocalCoupling:
    """One mesh slot: a coupling on adjacent modes (pair, pair + 1)."""

    layer: int
    pair: tuple
    theta: float
    phi: float


@dataclass(frozen=True)
class CircuitPlan:
    """Layered mesh of local couplings plus output phases."""

    m: int
    layers: tuple
    output_phases: np.ndarray = field(compare=False)

    @property
    def depth(self):
        return len(self.layers)

    @property
    def coupling_count(self):
        return sum(len(layer) for layer in self.layers)


def unitarity_defect(u):
    """Max-abs deviation of U†U from the identity."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def haar_random_unitary(m, seed):
    """Haar-distributed M x M unitary, deterministic for a fixed seed.

    Orthonormalizes a complex Ginibre matrix and fixes the phases so the
    triangular factor of the QR factorization has a positive real diagonal.
    """
    if m < 1:
        raise ValidationError(f"mode count must be >= 1, got {m}")
    check_size_cap(m * m, f"unitary entries for m={m}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _wrap_phi(phi):
    return float(np.mod(phi, TWO_PI))


def _null_by_columns(work, row, col):
    """Right-multiply by T(theta, phi)^-1 on columns (col, col+1) so that
    work[row, col] becomes zero; returns the coupling angles."""
    a = work[row, col]
    b = work[row, col + 1]
    if abs(a) == 0.0:
        return 0.0, 0.0
    theta = 2.0 * np.arctan2(abs(a), abs(b))
    phi = _wrap_phi(np.angle(b) - np.angle(a))
    t_inv = coupling_matrix(theta, phi).conj().T
    work[:, col : col + 2] = work[:, col : col + 2] @ t_inv
    return float(theta), phi


def _null_by_rows(work, row, col):
    """Left-multiply by T(theta, phi) on rows (row-1, row) so that
    work[row, col] becomes zero; returns the coupling angles."""
    a = work[row - 1, col]
    b = work[row, col]
    if abs(b) == 0.0:
        return 0.0, 0.0
    theta = 2.0 * np.arctan2(abs(b), abs(a))
    phi = _wrap_phi(np.angle(a) - np.angle(b) - np.pi)
    t = coupling_matrix(theta, phi)
    work[row - 1 : row + 1, :] = t @ work[row - 1 : row + 1, :]
    return float(theta), phi


def _push_through_diagonal(mode, theta, phi, phases):
    """Rewrite T(theta, phi)^-1 . diag(phases) as diag(phases') . T(theta, phi').

    Exact identity: with psi1, psi2 the phases on the coupled pair,
    phi' = psi2 - psi1 - pi and the new pair phases are
    (phi + psi2 + pi, psi2).  For theta = 0 the coupling is dropped into the
    diagonal entirely.
    """
    psi1 = phases[mode]
    psi2 = phases[mode + 1]
    if theta == 0.0:
        phases[mode] = psi1 + phi
        return 0.0, 0.0
    phases[mode] = phi + psi2 + np.pi
    return theta, _wrap_phi(psi2 - psi1 - np.pi)


def _schedule_mesh(m, ordered):
    """Greedy layering of couplings given in application order.

    Placement honors the alternating parity rule (pair index even <-> layer
    index even), which the nulling order guarantees to tile the rectangular
    mesh without holes.  The layers depend on the pairs' order alone, which
    `clements_decompose` fixes from M, never on the angles; for every M they
    fill at most M layers (an invariant, tested for M = 1..64 with Haar,
    identity and permutation unitaries), so no depth check is needed here.
    """
    last_layer = [-1] * m
    layered = {}
    for mode, theta, phi in ordered:
        layer = max(last_layer[mode], last_layer[mode + 1]) + 1
        if layer % 2 != mode % 2:
            layer += 1
        layered.setdefault(layer, []).append((mode, theta, phi))
        last_layer[mode] = layer
        last_layer[mode + 1] = layer
    depth = max(layered) + 1 if layered else 0
    layers = []
    for idx in range(depth):
        row = sorted(layered.get(idx, []))
        layers.append(
            tuple(
                LocalCoupling(layer=idx, pair=(mode, mode + 1), theta=theta, phi=phi)
                for mode, theta, phi in row
            )
        )
    return tuple(layers)


def clements_decompose(u):
    """Factor a unitary into the canonical rectangular coupling mesh.

    Returns a CircuitPlan such that `reconstruct(plan)` equals `u` to within
    numerical precision.  Nulling sweeps alternate between column operations
    (absorbed directly into the mesh) and row operations (pushed through the
    residual diagonal), following the rectangular-mesh construction of
    Clements et al.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:  # NaN entries give a NaN defect
        raise ValidationError(
            f"matrix is not unitary: max-abs defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    m = u.shape[0]
    work = u.copy()
    right_ops = []  # application order, first applied first
    left_ops = []  # recorded order of left multiplications
    for diag in range(1, m):
        if diag % 2 == 1:
            for j in range(diag):
                row = m - 1 - j
                col = diag - 1 - j
                theta, phi = _null_by_columns(work, row, col)
                right_ops.append((col, theta, phi))
        else:
            for j in range(1, diag + 1):
                row = m + j - diag - 1
                col = j - 1
                theta, phi = _null_by_rows(work, row, col)
                left_ops.append((row - 1, theta, phi))
    phases = list(np.angle(np.diagonal(work)))
    converted = []
    for mode, theta, phi in reversed(left_ops):
        theta2, phi2 = _push_through_diagonal(mode, theta, phi, phases)
        converted.append((mode, theta2, phi2))
    layers = _schedule_mesh(m, right_ops + converted)
    output_phases = np.angle(np.exp(1j * np.asarray(phases, dtype=float)))
    return CircuitPlan(m=m, layers=layers, output_phases=output_phases)


def check_layer(layer, m):
    """Check one mesh layer on M modes.

    Every coupling must sit on an adjacent pair (lo, lo + 1) with
    0 <= lo and lo + 1 < M, and no two couplings may share a mode.
    """
    seen = set()
    for coupling in layer:
        lo, hi = coupling.pair
        if hi != lo + 1 or lo < 0 or hi >= m:
            raise ValidationError(f"coupling pair {coupling.pair} is invalid for m={m}")
        if lo in seen or hi in seen:
            raise ValidationError(f"overlapping couplings on mode pair {coupling.pair}")
        seen.update((lo, hi))


def reconstruct(plan):
    """Multiply out a plan: layers in order, then the output phases."""
    u = np.eye(plan.m, dtype=complex)
    for layer in plan.layers:
        check_layer(layer, plan.m)
        step = np.eye(plan.m, dtype=complex)
        for coupling in layer:
            lo = coupling.pair[0]
            step[lo : lo + 2, lo : lo + 2] = coupling_matrix(coupling.theta, coupling.phi)
        u = step @ u
    return np.exp(1j * plan.output_phases)[:, None] * u


def plan_to_json(plan):
    """JSON payload with per-layer coupling angles and the output phases."""
    return {
        "layers": [
            [
                {"pair": [c.pair[0], c.pair[1]], "theta": c.theta, "phi": c.phi}
                for c in layer
            ]
            for layer in plan.layers
        ],
        "output_phases": [float(p) for p in plan.output_phases],
    }


def plan_from_json(data):
    phases = np.asarray(data["output_phases"], dtype=float)
    m = len(phases)
    layers = tuple(
        tuple(
            LocalCoupling(
                layer=idx,
                pair=(int(c["pair"][0]), int(c["pair"][1])),
                theta=float(c["theta"]),
                phi=float(c["phi"]),
            )
            for c in layer
        )
        for idx, layer in enumerate(data["layers"])
    )
    return CircuitPlan(m=m, layers=layers, output_phases=phases)


def unitary_to_json(u):
    """JSON payload {"m", "re", "im"} in row-major order."""
    u = np.asarray(u, dtype=complex)
    return {"m": u.shape[0], "re": u.real.tolist(), "im": u.imag.tolist()}


def unitary_from_json(data):
    try:
        m = data["m"]
        u = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"unitary payload needs m, numeric re and im: {exc}") from exc
    if u.shape != (m, m):
        raise ValidationError(f"unitary payload shape {u.shape} does not match m={m}")
    return u
