"""Boson sampling with trapped atoms: circuits, exact distributions, loss models.

The package splits into small, composable layers:

- `fock`: N-particle occupation bases over M lattice modes, ranking, site
  occupancy (each lattice site hosts two internal-state modes).
- `interferometer`: Haar unitaries, the rectangular coupling-mesh
  decomposition, composite pulse synthesis for single couplings.
- `permanent` / `sampling`: permanent kernels and exact output
  distributions with collision-free post-selection and seeded sampling.
- `lossmodel`: pair/trio occupancy combinatorics, per-step and total
  survival, sampling rates of atomic, photonic, and classical machines.
- `exactsim`: exact lossy state-vector simulation of the stepped circuit.
- `hom`: two-atom interference forward models and the bunching fit.
- `cli`: batch front end over all of the above.
"""

from .errors import DegenerateSampleError, SizeCapError, ValidationError
from .fock import (
    FockState,
    basis_rank,
    enumerate_basis,
    is_collision_free,
    multiset_dimension,
    site_occupancy,
    state_rank,
)
from .interferometer import (
    CircuitPlan,
    PulseSequence,
    clements_decompose,
    composite_pulse,
    coupling_matrix,
    haar_random_unitary,
    mesh_layers,
    reconstruct,
)
from .permanent import permanent_glynn, permanent_naive, permanents_of_rows
from .sampling import (
    OutputDistribution,
    collision_free_mass,
    draw_samples,
    outcome_probability,
    output_distribution,
)
from .lossmodel import (
    ClassicalScenario,
    LossScenario,
    PhotonicScenario,
    crossover,
    n_threshold,
    p_pairs_trios,
    p_step_background,
    p_step_twobody,
    p_survival,
    poisson_pair_limit,
    r_classical,
    r_ideal,
    r_nisq,
    r_photonic,
)
from .hom import (
    BunchingFit,
    HomOutcomes,
    HomParams,
    bunching_from_p2,
    fit_bunching,
    hom_analytic,
    hom_monte_carlo,
    purity_from_bunching,
)
from .exactsim import (
    benchmark_vs_model,
    build_decay_diagonal,
    run_circuit,
    uniform_state,
)

__version__ = "0.1.0"
