"""Two-qubit time-dependent quantum marginal problems.

Kinematics: test whether a joint density-matrix trajectory can evolve
unitarily, and whether prescribed single-qubit marginal trajectories
admit a unitarily evolving joint trajectory.
Dynamics: reconstruct the unitary (Hamiltonian) or dissipative (GKSL)
generator realizing a given joint trajectory, certify complete
positivity, and verify round trips by re-integration.
"""

from .qcore import (
    SIGMA,
    Trajectory,
    cholesky_psd,
    partial_trace,
    rk4_integrate,
    spectrum,
    trace_power,
    validate_state,
)
from .bloch import (
    CoherenceVector,
    invariants_series,
    pauli_decompose,
    to_coherence,
)
from .kinematics import (
    MarginalPair,
    isospectral_test,
    scenario_example1,
    scenario_example2,
    scenario_example3,
    unitarity_test,
    unitary_window,
)
from .unitary_recon import (
    EvolutionSequence,
    eigenframe_decompose,
    hamiltonian_from_evolution,
    reconstruct_evolution,
)
from .dissipative_recon import (
    AffineGenerator,
    KossakowskiMatrix,
    candidate_diagonals,
    cp_check,
    d_from_k,
    fit_diagonal_unital,
    hamiltonian_action,
    integrated_cp_check,
    k_from_d,
    roundtrip_verify,
)
from .measures import negativity, partial_transpose, purity

__version__ = "0.1.0"
