"""Mode unitaries, their mesh decomposition, and composite pulse synthesis.

The elementary two-mode coupling acting on the internal states of one lattice
site is

    T(theta, phi) = [[exp(-i phi) cos(theta/2), -sin(theta/2)],
                     [exp(-i phi) sin(theta/2),  cos(theta/2)]]

with theta in [0, pi] and phi in [0, 2 pi).  Any M x M unitary factors into a
rectangular mesh of such couplings on adjacent mode pairs followed by one
diagonal layer of output phases.  The mesh's slots depend on M alone and
`mesh_layers` owns them: layers alternate between even pairs (0,1), (2,3), ...
and odd pairs (1,2), (3,4), ..., at most M layers with M(M-1)/2 slots in all,
which `fock.check_size_cap` is asked for first.  A `CircuitPlan` holds one
theta and one phi per slot; couplings that come out as the identity
(theta = 0) keep their slot.  A caller's unitary, plan arrays and JSON
payloads convert through `errors.as_array`, and the angles of a single
coupling, imprint or pulse go to numpy under `errors.in_range`, so an entry
past the float range is a ValidationError.

A coupling acts on a pair of vectors, the columns or rows of a pair of
modes, by one rule, `_rotate`: x, y <- t00 x + t01 y, t10 x + t11 y,
elementwise.  Both sweeps of `clements_decompose` and every layer of
`reconstruct` use it, and the sweep's angles come from `math.atan2` and
`cmath.phase` on the scalars it reads.  No BLAS call touches a plan, so its
bits do not depend on the BLAS kernel or thread count.  They still depend
on numpy's SIMD loops: `coupling_matrix` evaluates its cosine, sine and
exponential with numpy.

Hardware-wise a coupling is a composite pulse: a site-resolved phase imprint
A(phi), a global Hadamard H = exp(-i sigma_x pi/4), a second imprint A(theta),
the inverse Hadamard, and a residual common-mode phase of -phi/2.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ValidationError, as_array, check_count, in_range
from .fock import check_size_cap

TWO_PI = 2.0 * np.pi

#: Largest max-abs defect of U†U from the identity `clements_decompose` accepts.
UNITARITY_TOL = 1e-10

_ANGLE_RULE = "every angle must fit float64"

_HADAMARD = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def coupling_matrix(theta, phi):
    """Two-mode couplings T(theta, phi) of shape (..., 2, 2) for broadcast
    angle arrays; each is unitary with determinant exp(-i phi)."""
    with in_range(_ANGLE_RULE):
        c = np.cos(theta / 2.0)
        s = np.sin(theta / 2.0)
        ph = np.exp(-1j * phi)
    top, bottom = ph * c, ph * s
    out = np.empty(top.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = top
    out[..., 0, 1] = -s
    out[..., 1, 0] = bottom
    out[..., 1, 1] = c
    return out


def _rotate(x, y, t):
    """Set x, y <- t00 x + t01 y, t10 x + t11 y in place, for a (..., 2, 2)
    coupling stack `t` broadcast against the vectors: the mesh's one
    rotation rule, elementwise, so no BLAS kernel touches it."""
    top = t[..., 0, 0] * x + t[..., 0, 1] * y
    y[...] = t[..., 1, 0] * x + t[..., 1, 1] * y
    x[...] = top


def phase_imprint(angle):
    """Differential phase A(angle) = exp(-i sigma_z angle / 2)."""
    with in_range(_ANGLE_RULE):
        return np.array(
            [[np.exp(-1j * angle / 2.0), 0.0], [0.0, np.exp(1j * angle / 2.0)]],
            dtype=complex,
        )


@dataclass(frozen=True)
class PulseSequence:
    """Composite pulse realizing one coupling, in application order.

    The train is A(phi_imprint), Hadamard, A(theta_imprint), inverse
    Hadamard, then a global phase factor exp(i global_phase).  Both angles
    are stored as floats.
    """

    phi_imprint: float
    theta_imprint: float

    def __post_init__(self):
        with in_range(_ANGLE_RULE):
            object.__setattr__(self, "phi_imprint", float(self.phi_imprint))
            object.__setattr__(self, "theta_imprint", float(self.theta_imprint))

    @property
    def global_phase(self):
        """The residual common-mode phase, -phi_imprint / 2."""
        return -self.phi_imprint / 2.0

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
    return PulseSequence(phi_imprint=phi, theta_imprint=theta)


def mesh_layers(m):
    """First modes of each layer of the rectangular mesh on M modes.

    Layer l couples the pairs (k, k + 1) for k = l mod 2, l mod 2 + 2, ...
    < M - 1.  There are M layers for M >= 3, one for M = 2 and none for
    M = 1; a plan's slots are these pairs, layer by layer.
    """
    check_count("mode count", m, 0)
    check_size_cap(m * (m - 1) // 2, f"mesh slots for m={m}")
    layers = (range(idx % 2, m - 1, 2) for idx in range(m))
    return tuple(layer for layer in layers if layer)


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """Angles of the mesh couplings on M modes, plus output phases.

    `theta` and `phi` are read-only float arrays with one entry per slot of
    `mesh_layers(m)`, layer by layer and modes ascending within a layer;
    `output_phases` is a read-only (m,) float array.  Every entry is finite.
    """

    m: int
    theta: np.ndarray
    phi: np.ndarray
    output_phases: np.ndarray

    def __post_init__(self):
        slots = sum(map(len, mesh_layers(self.m)))
        for name, size, unit in (("theta", slots, "slots"), ("phi", slots, "slots"),
                                 ("output_phases", self.m, "modes")):
            values = as_array(getattr(self, name), float, name).copy()
            if values.shape != (size,):
                raise ValidationError(
                    f"{name} has shape {values.shape}; the mesh on {self.m} modes has {size} {unit}"
                )
            if not np.isfinite(values).all():
                raise ValidationError(f"every entry of {name} must be finite")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def depth(self):
        return len(mesh_layers(self.m))

    @property
    def coupling_count(self):
        return self.theta.size


def unitarity_defect(u):
    """Max-abs deviation of U†U from the identity for an (M, K) matrix U; zero if K = 0."""
    u = as_array(u, complex, "U")
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1])), initial=0.0))


def haar_random_unitary(m, seed):
    """Haar-distributed M x M unitary, deterministic for a fixed seed.

    Orthonormalizes a complex Ginibre matrix and fixes the phases so the
    triangular factor of the QR factorization has a positive real diagonal.
    """
    check_count("mode count", m, 1)
    check_size_cap(m * m, f"unitary entries for m={m}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def clements_decompose(u):
    """Factor a unitary into the canonical rectangular coupling mesh.

    Returns a CircuitPlan such that `reconstruct(plan)` equals `u` to within
    numerical precision.  One pass of nulling sweeps, following the
    rectangular-mesh construction of Clements et al., alternates between
    column couplings (right multiplications, absorbed directly into the
    mesh) and row couplings (left multiplications).  The i-th coupling
    applied on pair (k, k + 1) takes that pair's slot in layer
    k mod 2 + 2 i: each column coupling is placed as it nulls its entry; the
    row couplings are pushed, last made first, through the residual
    diagonal and then placed after every column coupling on their pair.
    The nulling order fills every slot of `mesh_layers(M)` this way.
    """
    u = as_array(u, complex, "U")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:  # NaN entries give a NaN defect
        raise ValidationError(
            f"matrix is not unitary: max-abs defect {defect:.3e} exceeds {UNITARITY_TOL:.1e}"
        )
    m = u.shape[0]
    work = u.copy()
    layer_start = [0, *accumulate(map(len, mesh_layers(m)))]
    placed = [0] * m  # couplings placed so far on each pair
    theta, phi = np.zeros(layer_start[-1]), np.zeros(layer_start[-1])

    def place(mode, t, p):
        slot = layer_start[mode % 2 + 2 * placed[mode]] + mode // 2
        placed[mode] += 1
        theta[slot], phi[slot] = t, p

    row_ops = []  # (mode, theta, phi) of the left multiplications, in the order made
    for diag in range(1, m):
        if diag % 2 == 1:
            for j in range(diag):
                # T(t, p)^-1 on columns (col, col + 1) nulls work[row, col]
                row, col = m - 1 - j, diag - 1 - j
                a, b = work[row, col], work[row, col + 1]
                t = p = 0.0  # an entry that is zero already keeps the identity coupling
                if abs(a) != 0.0:
                    t = 2.0 * math.atan2(abs(a), abs(b))
                    p = (cmath.phase(b) - cmath.phase(a)) % TWO_PI
                    _rotate(work[:, col], work[:, col + 1], coupling_matrix(t, p).conj())
                place(col, t, p)
        else:
            for j in range(1, diag + 1):
                # T(t, p) on rows (row - 1, row) nulls work[row, col]
                row, col = m + j - diag - 1, j - 1
                a, b = work[row - 1, col], work[row, col]
                t = p = 0.0
                if abs(b) != 0.0:
                    t = 2.0 * math.atan2(abs(b), abs(a))
                    p = (cmath.phase(a) - cmath.phase(b) - math.pi) % TWO_PI
                    _rotate(work[row - 1], work[row], coupling_matrix(t, p))
                row_ops.append((row - 1, t, p))
    phases = list(np.angle(np.diagonal(work)))
    for mode, t, p in reversed(row_ops):
        # exactly T(t, p)^-1 diag(phases) = diag(phases') T(t, p'): with psi1, psi2
        # the pair's phases, p' = psi2 - psi1 - pi and the pair's new phases are
        # (p + psi2 + pi, psi2); for t = 0 the coupling drops into the diagonal
        psi1, psi2 = phases[mode], phases[mode + 1]
        if t == 0.0:
            phases[mode] = psi1 + p
            place(mode, 0.0, 0.0)
        else:
            phases[mode] = p + psi2 + np.pi
            place(mode, t, (psi2 - psi1 - np.pi) % TWO_PI)
    output_phases = np.angle(np.exp(1j * np.asarray(phases, dtype=float)))
    return CircuitPlan(m=m, theta=theta, phi=phi, output_phases=output_phases)


def reconstruct(plan):
    """Multiply out a plan: the mesh layers in order, then the output phases.

    A layer's couplings act on disjoint adjacent row pairs, which `_rotate`
    updates in place, the same rule the decomposition's sweeps use: O(M^2)
    per layer, O(M^3) in all, and no BLAS call.  The Frobenius error of a
    round trip through `clements_decompose` stays below 0.1 M^3 eps (eps the
    float64 machine epsilon): Haar unitaries with seeds 1, 2 and 7 gave 8e-3
    to 4e-2 M^3 eps at M = 16, 64, 128 and 256, falling with M.
    """
    u = np.eye(plan.m, dtype=complex)
    # one (1, 2, 2) coupling per slot, broadcast along its row pair
    t = coupling_matrix(plan.theta, plan.phi)[:, None]
    start = 0
    for layer in mesh_layers(plan.m):
        # the layer's pairs tile rows first .. first + 2K - 1 without a gap
        rows = u[layer.start : layer.start + 2 * len(layer)].reshape(len(layer), 2, plan.m)
        block = t[start : start + len(layer)]
        start += len(layer)
        _rotate(rows[:, 0], rows[:, 1], block)
    return np.exp(1j * plan.output_phases)[:, None] * u


def plan_to_json(plan):
    """JSON payload with per-layer coupling angles and the output phases."""
    angles = zip(plan.theta.tolist(), plan.phi.tolist())  # each layer takes its slots' share
    layers = [
        [{"pair": [k, k + 1], "theta": t, "phi": p} for k, (t, p) in zip(layer, angles)]
        for layer in mesh_layers(plan.m)
    ]
    return {"layers": layers, "output_phases": [float(p) for p in plan.output_phases]}


def plan_from_json(data):
    """CircuitPlan of a `plan_to_json` payload whose pairs follow `mesh_layers`."""
    try:
        phases = as_array(data["output_phases"], float, "output_phases")
        pairs = [[c["pair"] for c in layer] for layer in data["layers"]]
        couplings = [c for layer in data["layers"] for c in layer]
        theta = as_array([c["theta"] for c in couplings], float, "theta")
        phi = as_array([c["phi"] for c in couplings], float, "phi")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"plan payload needs numeric output_phases and layers of pair, theta, phi: {exc!r}"
        ) from exc
    if phases.ndim != 1:
        raise ValidationError(f"output_phases must be a flat list, got shape {phases.shape}")
    m = len(phases)
    if pairs != [[[k, k + 1] for k in layer] for layer in mesh_layers(m)]:
        raise ValidationError(f"plan pairs do not follow the mesh on {m} modes")
    return CircuitPlan(m=m, theta=theta, phi=phi, output_phases=phases)


def unitary_to_json(u):
    """JSON payload {"m", "re", "im"} in row-major order."""
    u = np.asarray(u, dtype=complex)
    return {"m": u.shape[0], "re": u.real.tolist(), "im": u.imag.tolist()}


def unitary_from_json(data):
    """The unitary of a `unitary_to_json` payload; `re` and `im` are each m x m."""
    try:
        m = data["m"]
        re, im = as_array(data["re"], float, "re"), as_array(data["im"], float, "im")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"unitary payload needs m, numeric re and im: {exc}") from exc
    check_count("unitary payload m", m, 1)
    if re.shape != (m, m) or im.shape != (m, m):
        raise ValidationError(f"unitary payload re {re.shape} and im {im.shape} are not {m} x {m}")
    return re + 1j * im
