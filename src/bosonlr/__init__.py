"""bosonlr: a desk-scale laboratory for finite-lattice boson dynamics.

Builds truncated Fock spaces over finite graphs, assembles lattice-boson
Hamiltonians, propagates states with dense-spectral or sparse
(``expm_multiply``) engines, constructs thermal states with certified
sector truncation, and verifies
moment-growth, occupation-cutoff, light-cone, and equilibrium certificates
against exact finite-volume computations.
"""

from .bounds import (
    BoundInputs,
    cutoff_bound,
    gronwall_rate,
    lr_bound,
    lr_kappa,
    lrb_decay_exponent,
)
from .config import ExperimentConfig, config_for_experiment, from_dict, from_preset, parse_config
from .dynamics import (
    SpectralDecomposition,
    StateVector,
    basis_vector,
    binomial_inverse_moment,
    condensate_nonlocality_expectation,
    correlations,
    eigendecompose,
    evolve_state,
    free_particle_amplitude,
    heisenberg_expectation,
    heisenberg_operator,
)
from .errors import (
    BosonLRError,
    BoundaryContaminationError,
    ConfigError,
    DivergingPartitionFunctionError,
    InvalidArgumentError,
    NotInBasisError,
    ResourceLimitError,
    TruncationError,
)
from .experiments import RUNNERS, ExperimentReport, write_report
from .fock import FockBasis, dimension, enumerate_basis, enumerate_sectors, index_of
from .lattice import (
    LatticeGraph,
    Region,
    SurfaceEstimate,
    boundary,
    build_chain,
    build_from_edges,
    build_grid,
    enlargement,
    full_region,
    region,
    surface_parameter,
)
from .operators import (
    ModelParams,
    SparseOperator,
    assemble_hamiltonian,
    assemble_hopping,
    assemble_interaction,
    commutator,
    conserves_number,
    cutoff_projection,
    hop_term,
    identity_operator,
    local_observable,
    number_moment,
    number_operator,
    operator_norm,
    sandwich,
    total_number,
)
from .thermal import (
    GibbsState,
    GreenFunction,
    evolved_two_points,
    expectation,
    fixed_sector_gibbs,
    gibbs_state,
    invariance_residual,
    kms_residual,
    moment_sup,
    two_point,
)

__version__ = "0.1.0"
