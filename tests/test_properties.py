"""Property tests over random small lattices, couplings and sectors."""

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonlr import (
    GreenFunction,
    ModelParams,
    SparseOperator,
    assemble_hamiltonian,
    build_chain,
    build_grid,
    eigendecompose,
    enumerate_basis,
    fixed_sector_gibbs,
    full_region,
    local_observable,
    number_operator,
    two_point,
)

lattices = st.one_of(
    st.builds(build_chain, st.integers(2, 5)),
    st.builds(build_grid, st.sampled_from([(2, 2), (2, 3)])),
)


@settings(max_examples=25, deadline=None)
@given(
    g=lattices,
    n=st.integers(1, 3),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gauge_transform_keeps_spectrum_and_number_diagonal_correlations(g, n, J, U, beta, seed):
    """H' = W H W^* with W = exp(i sum_x theta_x n_x) has complex hopping
    entries but the spectrum of H, and W commutes with number-diagonal
    observables, so their thermal correlations agree; H runs the real
    eigenvector path and H' the complex one."""
    basis = enumerate_basis(full_region(g), sector=n)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, g.n_vertices)
    W = sp.diags(np.exp(1j * (basis.occupations @ theta)))
    H_gauge = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    assume(H_gauge.matrix.data.imag.any())

    d, d_gauge = eigendecompose(H), eigendecompose(H_gauge)
    assert d.vectors.dtype == np.float64
    assert d_gauge.vectors.dtype == np.complex128
    scale = max(1.0, float(np.abs(d.energies).max()))
    assert np.abs(d.energies - d_gauge.energies).max() <= 1e-12 * scale

    a, b = (int(x) for x in rng.integers(g.n_vertices, size=2))
    A = number_operator(basis, a)
    B = local_observable(basis, {"kind": "number_function", "site": b, "fn": "inv_one_plus_n"})
    gam = fixed_sector_gibbs(H, beta, d)
    gam_gauge = fixed_sector_gibbs(H_gauge, beta, d_gauge)
    gf, gf_gauge = GreenFunction(gam, A, B), GreenFunction(gam_gauge, A, B)
    for z in (0.0, 0.7, complex(0.7, -0.5 * beta), complex(-1.3, -beta)):
        assert abs(gf(z) - gf_gauge(z)) <= 1e-10
    for order in ("AB", "BA"):
        value = two_point(gam, A, B, 0.9, order, engine="dense")
        value_gauge = two_point(gam_gauge, A, B, 0.9, order, engine="dense")
        assert abs(value - value_gauge) <= 1e-10
