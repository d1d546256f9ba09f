"""The public API, decided once: the names ``bosonlr`` exports, and the
single-point twins of the batch kernels, the second strip build and read
paths, and the arguments no caller set, which are gone."""

import dataclasses
import inspect

import numpy as np
import pytest

import bosonlr
from bosonlr import (
    GibbsState,
    InvalidArgumentError,
    ModelParams,
    assemble_hamiltonian,
    build_chain,
    enumerate_sectors,
    fixed_sector_gibbs,
    full_region,
    gibbs_state,
)
from bosonlr import dynamics, experiments, fock, operators, thermal
from bosonlr.config import from_preset
from bosonlr.experiments import build_scene

EXPORTED = {
    "BosonLRError", "BoundInputs", "BoundaryContaminationError", "ConfigError",
    "DivergingPartitionFunctionError", "ExperimentConfig", "ExperimentReport", "FockBasis", "GibbsState",
    "GreenFunction", "InvalidArgumentError", "LatticeGraph", "ModelParams", "NotInBasisError", "RUNNERS",
    "Region", "ResourceLimitError", "SparseOperator", "SpectralDecomposition", "StateVector",
    "SurfaceEstimate", "TruncationError", "assemble_hamiltonian", "assemble_hopping", "assemble_interaction",
    "basis_vector", "binomial_inverse_moment", "boundary", "build_chain", "build_from_edges", "build_grid",
    "commutator", "condensate_nonlocality_expectation", "config_for_experiment", "conserves_number",
    "correlations", "cutoff_bound", "cutoff_projection", "eigendecompose", "enlargement", "enumerate_basis",
    "enumerate_sectors", "evolve_state", "evolved_two_points", "expectation", "fixed_sector_gibbs",
    "free_particle_amplitude", "from_dict", "from_preset", "full_region", "gibbs_state", "gronwall_rate",
    "heisenberg_blocks", "heisenberg_expectation", "hop_term", "identity_operator", "local_observable",
    "lr_bound", "lr_kappa", "lrb_decay_exponent", "moment_sup", "number_moment", "number_operator",
    "operator_norm", "parse_config", "region", "sandwich", "surface_parameter", "total_number", "write_report",
}

DELETED = [
    (thermal, "two_point"),
    (thermal, "kms_residual"),
    (thermal, "invariance_residual"),
    (dynamics, "heisenberg_operator"),
    (experiments, "load_summary"),
    (fock, "dimension"),
    (fock, "index_of"),
    (operators, "hermitian_norm_bound"),
    (thermal, "MERGE_ROWS_MAX"),
    (dynamics.SpectralDecomposition, "rotate_lower"),
    (thermal.GreenFunction, "_sum"),
    (thermal.GreenFunction, "_real_points"),
]


def test_public_names():
    public = {name for name, value in vars(bosonlr).items() if not name.startswith("_")}
    public -= {name for name, value in vars(bosonlr).items() if inspect.ismodule(value)}
    assert public == EXPORTED


def test_deleted_names_and_arguments_are_gone():
    for owner, name in DELETED:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert not hasattr(bosonlr, name), name
    assert "v_table" not in inspect.signature(operators.assemble_interaction).parameters
    assert list(inspect.signature(dynamics.eigendecompose).parameters) == ["H"]


def assert_same_state(a: GibbsState, b: GibbsState):
    """Field for field, bit for bit."""
    for f in dataclasses.fields(GibbsState):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        assert x is y or np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name


def test_fixed_sector_gibbs_is_the_canonical_gibbs_state():
    cfg = from_preset("chain-6")  # one sector, 3 particles
    scene = build_scene(cfg)
    H, d, beta = scene.H, scene.decomp, cfg.thermal["beta"]
    canonical = fixed_sector_gibbs(H, beta, d)
    assert canonical.mu == 0.0 and canonical.n_max == 3 and canonical.tail_estimate == 0.0
    # the bits of the closed canonical formula, one Boltzmann sum over the sector
    boltzmann = np.exp(-beta * (d.energies - d.energies.min()))
    assert np.array_equal(canonical.weights, boltzmann / boltzmann.sum())
    assert canonical.z_scaled == float(boltzmann.sum())
    assert_same_state(canonical, gibbs_state(H, beta, decomposition=d))
    # on one sector mu and n_max are not read: a mu that diverges on a
    # grand-canonical basis, an n_max below the sector and a tail tolerance
    # nothing meets give the same state
    assert_same_state(canonical, gibbs_state(H, beta, 5.0, 1, tail_tol=1e-300, decomposition=d))


def test_a_multi_sector_state_needs_n_max():
    g = build_chain(2)
    reg = full_region(g)
    H = assemble_hamiltonian(g, reg, enumerate_sectors(reg, 3), ModelParams(hopping=0.2, onsite=1.0))
    with pytest.raises(InvalidArgumentError, match="n_max"):
        gibbs_state(H, 1.0, -1.0)
    with pytest.raises(InvalidArgumentError, match="n_max"):
        fixed_sector_gibbs(H, 1.0)
