import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.blas import dsymv

from bosonlr import (
    DivergingPartitionFunctionError,
    GreenFunction,
    InvalidArgumentError,
    ModelParams,
    TruncationError,
    assemble_hamiltonian,
    assemble_hopping,
    assemble_interaction,
    build_chain,
    correlations,
    cutoff_projection,
    eigendecompose,
    enumerate_basis,
    enumerate_sectors,
    evolved_two_points,
    expectation,
    fixed_sector_gibbs,
    full_region,
    gibbs_state,
    hop_term,
    identity_operator,
    local_observable,
    moment_sup,
    number_operator,
    operator_norm,
    sandwich,
)
from bosonlr import dynamics, thermal
from bosonlr.dynamics import PROPAGATE_CHUNK, SpectralDecomposition, StateVector, _krylov_evolve, _real_matmul
from bosonlr.operators import SparseOperator, same_matrix


def single_site_free(n_max=40, mu=-1.0, beta=1.0, U=0.0):
    g = build_chain(1)
    reg = full_region(g)
    basis = enumerate_sectors(reg, n_max)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=0.0, onsite=U))
    return basis, H, gibbs_state(H, beta, mu, n_max, tail_tol=1e-8)


def two_site_model(n_max=6, J=0.2, U=1.0, beta=1.0, mu=-1.0, tail_tol=1e-9):
    g = build_chain(2)
    reg = full_region(g)
    basis = enumerate_sectors(reg, n_max)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=J, onsite=U))
    return basis, H, gibbs_state(H, beta, mu, n_max, tail_tol=tail_tol)


def test_geometric_series_partition_function():
    basis, H, gam = single_site_free()
    closed = 1.0 / (1.0 - math.exp(-1.0))
    # the vacuum has the least exponent, 0, so its weight is 1 / Z
    assert 1.0 / gam.weights[0] == pytest.approx(closed, rel=1e-12)
    # truncated tail estimate is exact for a geometric series
    q = math.exp(-1.0)
    exact_tail = (q**41 / (1 - q)) / (closed - q**41 / (1 - q))
    assert gam.tail_estimate == pytest.approx(exact_tail, rel=1e-6)


def test_interacting_single_site_partition_sum():
    # direct scalar sum oracle: Z = sum_n exp(-n(n-1))
    basis, H, gam = single_site_free(n_max=12, mu=0.0, U=1.0)
    direct = sum(math.exp(-n * (n - 1)) for n in range(13))
    assert 1.0 / gam.weights[0] == pytest.approx(direct, rel=1e-12)


def test_low_temperature_concentrates_on_ground_sector():
    basis, H, gam = two_site_model(beta=40.0, tail_tol=1e-6)
    # ground sector is the vacuum at this chemical potential
    vac = basis.index_of((0, 0))
    assert gam.weights[vac] == pytest.approx(1.0, abs=1e-6)
    N0 = number_operator(basis, 0)
    assert abs(expectation(gam, N0)) < 1e-6


def test_expectation_identities():
    basis, H, gam = two_site_model()
    assert expectation(gam, identity_operator(basis)) == pytest.approx(1.0)
    # sector indicator expectation equals the sector weight sum
    for n in (0, 1, 2):
        diag = (basis.totals == n).astype(float)
        op = SparseOperator(sp.diags(diag, 0, format="csr").astype(complex), basis, True, diagonal=True)
        sl = [j for j, s in enumerate(basis.totals) if s == n]
        assert expectation(gam, op).real == pytest.approx(gam.weights[sl].sum())


def test_free_site_occupation_matches_geometric_distribution():
    basis, H, gam = single_site_free()
    q = math.exp(-1.0)
    mean = q / (1 - q)
    assert expectation(gam, number_operator(basis, 0)).real == pytest.approx(mean, rel=1e-10)


def test_moment_sup_properties():
    basis, H, gam = two_site_model()
    m1 = moment_sup(gam, 1.0)
    N0 = number_operator(basis, 0)
    N1 = number_operator(basis, 1)
    mean = max(expectation(gam, N0).real, expectation(gam, N1).real)
    assert m1 == pytest.approx(1.0 + mean, rel=1e-12)
    assert moment_sup(gam, 2.0) >= m1
    assert moment_sup(gam, 4.0) >= moment_sup(gam, 2.0)
    # vacuum-concentrated state
    _, _, cold = two_site_model(beta=40.0, tail_tol=1e-6)
    assert moment_sup(cold, 3.0) == pytest.approx(1.0, abs=1e-5)


def test_moment_sup_reflection_symmetry():
    g = build_chain(6)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 3, cap=2)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=1.0))
    gam = gibbs_state(H, 1.0, -3.0, 3, tail_tol=0.2)
    V = gam.decomp.vectors
    probs = (np.abs(V) ** 2) @ gam.weights
    occ = basis.occupations
    per_site = [float(np.dot(probs, (1.0 + occ[:, c]) ** 2.0)) for c in range(6)]
    for x in range(3):
        assert per_site[x] == pytest.approx(per_site[5 - x], abs=1e-10)


def test_green_function_identity_pair():
    basis, H, gam = two_site_model()
    ident = identity_operator(basis)
    for z in (0.0, 0.3 - 0.2j, 1.0 - 1.0j):
        assert GreenFunction(gam, ident, ident)(z) == pytest.approx(1.0)


def test_green_function_boundary_values_match_direct_evolution():
    basis, H, gam = two_site_model()
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "normalized_hop", "sites": [0, 1]})
    gf = GreenFunction(gam, A, B)
    for t in (0.0, 0.4, 1.1):
        (ab,), (ba,) = evolved_two_points(gam, [(A, B)], [t], want=("ab", "ba"))
        assert abs(gf(complex(t, 0.0)) - ab[0]) < 1e-9
        assert abs(gf(complex(t, -gam.beta)) - ba[0]) < 1e-9


def test_strip_values_against_dense_matrix_exponential():
    # independent oracle: evaluate the strip function by brute-force
    # complex-time conjugation with dense matrix exponentials.  A real
    # hermitian pair reads the lower triangle of a real block, a complex
    # hermitian generator that of a complex block; the raw hop a_0^* a_1
    # reads the whole block, also when it is wrongly flagged hermitian
    from scipy.linalg import expm

    basis, H, gam = two_site_model(n_max=4, tail_tol=1e-4)
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "normalized_hop", "sites": [0, 1]})
    hop = hop_term(basis, 0, 1)
    twisted = SparseOperator(H.matrix + 0.3j * (hop.matrix - hop.matrix.conj().T), basis, True)
    gam_twisted = gibbs_state(twisted, gam.beta, gam.mu, 4, tail_tol=1e-4)
    assert np.iscomplexobj(gam_twisted.decomp.vectors)
    flagged = SparseOperator(hop.matrix, basis, True)
    Nd = np.diag(basis.totals.astype(float))
    cases = [
        (gam, B, True),
        (gam_twisted, B, True),
        (gam, hop, False),
        (gam, flagged, False),
    ]
    for state, B_, triangle in cases:
        gf = GreenFunction(state, A, B_)
        assert gf._hermitian is triangle
        Hd = state.hamiltonian.to_dense()
        rho = expm(-state.beta * (Hd - state.mu * Nd))
        rho /= np.trace(rho).real
        for z in (0.2 - 0.3j, -0.7 - 1.0j, 0.5 - 0.05j):
            W = expm(1j * z * Hd)
            Winv = expm(-1j * z * Hd)
            brute = np.trace(rho @ W @ A.to_dense() @ Winv @ B_.to_dense())
            assert gf(z) == pytest.approx(complex(brute), abs=1e-10)


def test_kms_residuals():
    """The strip's boundary values F(t) and F(t - i beta) against the
    independently evolved gamma(tau_t(A) B) and gamma(B tau_t(A)), as the
    ``kms`` runner compares them."""
    basis, H, gam = two_site_model(n_max=3, tail_tol=1e-2)
    ident = identity_operator(basis)
    A = local_observable(basis, {"kind": "indicator", "site": 0, "level": 1})
    B = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    times = [0.0, 0.5, 0.9, 1.0]
    for A_, B_, tol in ((ident, ident, 1e-12), (A, B, 1e-9)):
        gf = GreenFunction(gam, A_, B_)
        (ab,), (ba,) = evolved_two_points(gam, [(A_, B_)], times, want=("ab", "ba"))
        assert np.abs(gf.values([complex(t, 0.0) for t in times]) - ab).max() < tol
        assert np.abs(gf.values([complex(t, -gam.beta) for t in times]) - ba).max() < tol
    # t = 0 specialization: second residual compares F(-i beta) to gamma(B A)
    gf = GreenFunction(gam, A, B)
    ba0 = expectation(gam, B @ A)
    assert abs(gf(complex(0.0, -gam.beta)) - ba0) < 1e-10


def test_commutator_of_diagonal_observables_vanishes_at_t0():
    basis, H, gam = two_site_model()
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    ab, ba = evolved_two_points(gam, [(A, B)], [0.0], want=("ab", "ba"))
    assert abs(ab[0, 0] - ba[0, 0]) < 1e-14


def test_invariance_residuals():
    """|gamma(tau_t(A)) - gamma(A)|: the thermal state is stationary."""
    basis, H, gam = two_site_model()
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    P = local_observable(basis, {"kind": "indicator", "site": 0, "level": 1})
    for op, t, tol in ((identity_operator(basis), 1.3, 1e-12), (A, 0.8, 1e-9), (P, 0.8, 1e-9)):
        (evolved,) = evolved_two_points(gam, [(op, None)], [t], want=("plain",))
        assert abs(evolved[0, 0] - expectation(gam, op)) < tol


def test_strip_maximum_principle():
    basis, H, gam = two_site_model()
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "indicator", "site": 1, "level": 0})
    gf = GreenFunction(gam, A, B)
    limit = operator_norm(A) * operator_norm(B)
    vals = [
        abs(gf(complex(t, -s)))
        for t in np.linspace(-1.5, 1.5, 11)
        for s in np.linspace(0.0, gam.beta, 11)
    ]
    assert max(vals) <= limit * (1 + 1e-9)


def test_strip_domain_enforced():
    basis, H, gam = two_site_model()
    ident = identity_operator(basis)
    gf = GreenFunction(gam, ident, ident)
    with pytest.raises(InvalidArgumentError):
        gf(complex(0.0, 0.5))
    with pytest.raises(InvalidArgumentError):
        gf(complex(0.0, -2.0 * gam.beta))
    # roundoff on the strip edges is clamped, not rejected
    assert gf(complex(0.3, 1e-13)) == pytest.approx(1.0)
    assert gf(complex(0.3, -gam.beta - 1e-13)) == pytest.approx(1.0)


def test_number_conservation_required():
    basis, H, gam = two_site_model(n_max=2, tail_tol=1e-1)
    # deliberately sector-mixing operator
    mat = sp.lil_matrix((basis.dimension, basis.dimension), dtype=complex)
    mat[basis.index_of((0, 0)), basis.index_of((1, 0))] = 1.0
    bad = SparseOperator(mat.tocsr(), basis, False)
    with pytest.raises(InvalidArgumentError):
        GreenFunction(gam, bad, identity_operator(basis))


def test_degenerate_relabeling_invariance():
    # assemble the Hamiltonian with two different summation orders; all
    # reported scalars must agree despite possibly different eigenvector
    # choices inside degenerate blocks
    g = build_chain(3)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 3)
    params = ModelParams(hopping=1.0, onsite=1.0)
    T = assemble_hopping(g, reg, basis, J=params.hopping)
    V = assemble_interaction(g, reg, basis, params)
    H1 = SparseOperator((T.matrix + V.matrix).tocsr(), basis, True)
    H2 = SparseOperator((V.matrix + T.matrix).tocsr(), basis, True)
    gam1 = gibbs_state(H1, 1.0, -2.0, 3, tail_tol=1e-1)
    gam2 = gibbs_state(H2, 1.0, -2.0, 3, tail_tol=1e-1)
    assert gam1.z_scaled == pytest.approx(gam2.z_scaled, rel=1e-12)
    A = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "normalized_hop", "sites": [0, 1]})
    assert expectation(gam1, A) == pytest.approx(expectation(gam2, A), rel=1e-10)
    z = complex(0.4, -0.3)
    assert GreenFunction(gam1, A, B)(z) == pytest.approx(GreenFunction(gam2, A, B)(z), abs=1e-10)


def test_diverging_partition_function():
    g = build_chain(1)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 10)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=0.0, onsite=0.0))
    with pytest.raises(DivergingPartitionFunctionError):
        gibbs_state(H, 1.0, 0.5, 10)  # weights grow with n


def test_truncation_tolerance_enforced():
    g = build_chain(1)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 5)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=0.0, onsite=0.0))
    with pytest.raises(TruncationError):
        gibbs_state(H, 1.0, -1.0, 5, tail_tol=1e-12)


def test_fixed_sector_state():
    g = build_chain(3)
    reg = full_region(g)
    from bosonlr import enumerate_basis

    basis = enumerate_basis(reg, sector=2)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=1.0))
    gam = fixed_sector_gibbs(H, 2.0)
    assert gam.weights.sum() == pytest.approx(1.0)
    assert gam.tail_estimate == 0.0
    d = eigendecompose(H)
    direct = np.exp(-2.0 * (d.energies - d.energies.min()))
    assert np.allclose(gam.weights, direct / direct.sum())


def reference_two_point(state, A, B, t, order, decomp):
    """One eigenvector of the state at a time, each propagated through the
    full (not sector-blocked) eigenbasis of the generator."""
    V, E = decomp.vectors, decomp.energies

    def propagate(v):
        return V @ (np.exp(-1j * E * t) * (V.conj().T @ v))

    total = 0.0 + 0.0j
    for j, w in enumerate(state.weights):
        if w == 0.0:
            continue
        psi = state.decomp.vectors[:, j]
        bra = B.matrix.conj().T @ psi if B is not None and order == "BA" else psi
        ket = B.matrix @ psi if B is not None and order == "AB" else psi
        total += w * np.vdot(propagate(bra), A.matrix @ propagate(ket))
    return complex(total)


def truncated_chain_state():
    # four sites, sectors 0..5 in the basis but only 0..4 in the state:
    # sector 5 carries exactly zero weight, and the 70 weighted columns
    # span more than one propagation chunk
    g = build_chain(4)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 5)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=1.0))
    gam = gibbs_state(H, 1.0, -1.0, 4, tail_tol=0.5)
    assert np.all(gam.weights[basis.totals == 5] == 0.0)
    assert np.count_nonzero(gam.weights) > PROPAGATE_CHUNK
    A = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "normalized_hop", "sites": [2, 3]})
    return basis, reg, H, gam, A, B


def test_batched_two_point_matches_eigenvector_loop():
    basis, reg, H, gam, A, B = truncated_chain_state()
    for order, B_ in (("AB", B), ("BA", B), ("AB", None)):
        for t in (0.0, 0.7, 2.3):
            (got,) = correlations(H, gam, [(A, B_)], [t], gam.decomp, "dense", want=(order.lower(),))
            assert abs(got[0, 0] - reference_two_point(gam, A, B_, t, order, gam.decomp)) <= 1e-12


def test_batched_two_point_with_cutoff_generator():
    basis, reg, H, gam, A, B = truncated_chain_state()
    G = sandwich(cutoff_projection(basis, reg, 2), H)
    assert not same_matrix(G, H)
    Gd = eigendecompose(G)
    for order in ("AB", "BA"):
        ref = reference_two_point(gam, A, B, 0.9, order, Gd)
        (got,) = correlations(G, gam, [(A, B)], [0.9], Gd, "dense", want=(order.lower(),))
        assert abs(got[0, 0] - ref) <= 1e-12
        # the decomposition of a foreign generator is built on demand
        (got,) = correlations(G, gam, [(A, B)], [0.9], engine="dense", want=(order.lower(),))
        assert abs(got[0, 0] - ref) <= 1e-12


def test_batched_two_point_with_sector_mixing_observable():
    # B moves particles between sectors, so B psi_j spreads over several
    # sector blocks of the propagator
    basis, reg, H, gam, A, _ = truncated_chain_state()
    rng = np.random.default_rng(3)
    mixing = sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng)
    mixing = (mixing + 1j * sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng)).tocsr()
    B = SparseOperator(mixing, basis, False)
    totals = basis.totals
    coo = mixing.tocoo()
    assert np.any(totals[coo.row] != totals[coo.col])
    for order in ("AB", "BA"):
        ref = reference_two_point(gam, A, B, 1.4, order, gam.decomp)
        (got,) = correlations(H, gam, [(A, B)], [1.4], gam.decomp, "dense", want=(order.lower(),))
        assert abs(got[0, 0] - ref) <= 1e-12


def test_moment_sup_matches_site_loop():
    basis, reg, H, gam, A, B = truncated_chain_state()
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = StateVector(basis, amps)
    occ = basis.occupations
    for state, probs in (
        (gam, (np.abs(gam.decomp.vectors) ** 2) @ gam.weights),
        (psi, np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)),
    ):
        for p in (1.0, 2.5, 6.0):
            loop = max(float(np.dot(probs, (1.0 + occ[:, c]) ** p)) for c in range(occ.shape[1]))
            assert moment_sup(state, p) == pytest.approx(loop, rel=1e-14)


def test_dense_two_point_propagates_once_without_operators(monkeypatch):
    # a thermal state on the dense route is one spectral sum and propagates
    # nothing; a StateVector propagates its one column (and B psi) once per
    # time.  In one call the identity pair gives the same bits as the plain
    # pair: its Gram block Z Y^* is Y Y^*, formed by the same GEMM
    basis, reg, H, gam, A, _ = truncated_chain_state()
    ident = identity_operator(basis)
    calls = []
    propagate_block = SpectralDecomposition.propagate_block

    def counted(self, X, t):
        calls.append(X.shape[1])
        return propagate_block(self, X, t)

    monkeypatch.setattr(SpectralDecomposition, "propagate_block", counted)
    (shared,) = correlations(H, gam, [(A, None)], [0.8], gam.decomp, "dense", want=("ab",))
    ab, ba, plain = correlations(H, gam, [(A, None), (A, ident)], [0.8, 1.1], engine="dense")
    assert calls == []
    assert np.array_equal(ab[1], plain[0]) and np.array_equal(ba[1], plain[0])
    assert np.array_equal(ab[0], plain[0]) and np.array_equal(ba[0], plain[0])
    # a wider phase block may round differently in the last bit
    assert abs(plain[0, 0] - shared[0, 0]) <= 1e-15
    psi = StateVector(basis, gam.decomp.vectors[:, 0])
    correlations(H, psi, [(A, None)], [0.8, 1.1, 1.4], engine="dense")
    assert calls == [1, 1, 1]
    calls.clear()
    correlations(H, psi, [(A, None), (A, ident)], [0.8, 1.1], engine="dense")
    assert calls == [2, 2]


def column_loop_reference(columns, weights, pairs, times, evolve):
    """The column loop of ``correlations``, operation for operation:
    PROPAGATE_CHUNK weighted columns psi at a time, the block
    [psi | B psi ...] and then the block [B^* psi ...] of the non-hermitian
    B, each evolved by ``evolve(X)`` over the grid, and the weighted inner
    products accumulated chunk by chunk."""
    ab, ba, plain = np.zeros((3, len(pairs), len(times)), dtype=np.complex128)
    kept = np.flatnonzero(weights)
    for start in range(0, kept.size, PROPAGATE_CHUNK):
        cols = kept[start : start + PROPAGATE_CHUNK]
        psi = columns[:, cols]
        kets = [psi] + [_real_matmul(B.matrix, psi) for _, B in pairs if B is not None]
        bras = [_real_matmul(B.matrix.conj().T, psi) for _, B in pairs if B is not None and not B.hermitian]
        k, w = len(cols), weights[cols]
        grids = [evolve(np.hstack(X)) for X in (kets, bras) if X]
        for i, parts in enumerate(zip(*grids)):
            blocks = [part[:, b * k : (b + 1) * k] for part in parts for b in range(part.shape[1] // k)]
            ket, bra = 0, len(kets) - 1
            for p, (A, B) in enumerate(pairs):
                a_psi = A.matrix @ blocks[0]
                ket_t = bra_t = blocks[0]
                if B is not None:
                    ket += 1
                    ket_t = bra_t = blocks[ket]
                    if not B.hermitian:
                        bra += 1
                        bra_t = blocks[bra]
                a_ket = a_psi if B is None else A.matrix @ ket_t
                plain[p, i] += np.einsum("ij,ij->j", blocks[0].conj(), a_psi) @ w
                ab[p, i] += np.einsum("ij,ij->j", blocks[0].conj(), a_ket) @ w
                ba[p, i] += np.einsum("ij,ij->j", bra_t.conj(), a_psi) @ w
    return ab, ba, plain


def test_state_vector_and_sparse_routes_keep_the_column_loop_bits():
    # the dense StateVector route and the sparse route propagate columns;
    # the thermal dense route is the only one that sums spectrally.  Both
    # keep the bits of the column loop, on a hermitian, a sector-mixing and
    # no second observable, with two chunks on the sparse thermal route
    basis, reg, H, gam, A, B = truncated_chain_state()
    rng = np.random.default_rng(17)
    mixing = sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng)
    B_mixing = SparseOperator((mixing + 1j * mixing.T).tocsr(), basis, False)
    pairs = [(A, B), (A, B_mixing), (B, None)]
    times = [0.0, 0.7, 2.3]
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    got = correlations(H, psi, pairs, times, gam.decomp, "dense")
    want = column_loop_reference(
        psi.amplitudes[:, None], np.ones(1), pairs, times, lambda X: (gam.decomp.propagate_block(X, t) for t in times)
    )
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for state, columns, weights in ((psi, psi.amplitudes[:, None], np.ones(1)), (gam, gam.decomp.vectors, gam.weights)):
        got = correlations(H, state, pairs, times, engine="krylov")
        want = column_loop_reference(columns, weights, pairs, times, lambda X: _krylov_evolve(H.matrix, X, times))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_green_values_match_pointwise_calls(monkeypatch):
    # more points than one chunk, both strip edges, a repeated point, and a
    # real hermitian pair (lower triangle, ``dsymm``; every block through
    # the SYRK route), a non-hermitian pair (a complex B makes C complex)
    # and a hermitian pair under a gauge-complex generator
    basis, reg, H, gam, A, B = truncated_chain_state()
    rng = np.random.default_rng(11)
    n = PROPAGATE_CHUNK + 37
    points = [complex(t, -s) for t, s in zip(rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, gam.beta, n))]
    points += [complex(0.3, 0.0), complex(-0.4, -gam.beta), 0.0, points[5]]
    B_complex = SparseOperator((1j * B.matrix).tocsr(), basis, False)
    W = sp.diags(np.exp(1j * (basis.occupations @ rng.uniform(0.0, 2.0 * np.pi, 4))))
    H_gauge = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    gam_gauge = gibbs_state(H_gauge, 1.0, -1.0, 4, tail_tol=0.5)
    monkeypatch.setattr(dynamics, "SYRK_ROWS_MIN", 1)
    for state, B_, real in ((gam, B, True), (gam, B_complex, False), (gam_gauge, B, False)):
        got = GreenFunction(state, A, B_).values(points)
        assert got.shape == (len(points),) and got.dtype == np.complex128
        pointwise = GreenFunction(state, A, B_)
        assert pointwise._real == real
        assert max(abs(v - pointwise(z)) for v, z in zip(got, points)) <= 1e-14
    gf = GreenFunction(gam, A, B)
    with pytest.raises(InvalidArgumentError):
        gf.values(points[:3] + [complex(0.1, 0.5)])
    # the whole call is rejected: no point of it was evaluated
    assert not gf._cache
    first = gf.values(points[:3])
    assert np.array_equal(gf.values(points[2::-1]), first[::-1])


def test_green_values_evaluate_one_column_per_exact_mirror_pair(monkeypatch):
    """For a real hermitian pair, F(-t - i s) = conj F(t - i s), so
    ``values`` evaluates one point of each exact mirror pair: a 9 x 5 grid
    on t in [-2, 2] (every t mirrored exactly, t = 0 its own mirror) plus
    one point whose mirror is not asked for takes 5 + 4 x 5 + 1 = 26
    points, two ``dsymm`` columns [b c | b n] each per block.  Every value
    matches a pointwise call within 1e-14, and each mirror is cached as
    the exact conjugate."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    grid = [complex(t, -s) for t in np.linspace(-2.0, 2.0, 9) for s in np.linspace(0.0, gam.beta, 5)]
    grid.append(complex(0.3, -0.2))
    columns, dsymm = [], thermal.blas.dsymm

    def spy(alpha, a, b, **kwargs):
        columns.append(b.shape[1])
        return dsymm(alpha, a, b, **kwargs)

    monkeypatch.setattr(thermal.blas, "dsymm", spy)
    gf = GreenFunction(gam, A, B)
    got = gf.values(grid)
    assert gf._real
    assert columns == [2 * 26] * len(gf._blocks)
    pointwise = GreenFunction(gam, A, B)
    assert max(abs(v - pointwise(z)) for v, z in zip(got, grid)) <= 1e-14
    for z in grid:
        assert gf._cache[complex(-z.real, z.imag)] == gf._cache[z].conjugate()


def test_complex_pairs_are_never_folded(monkeypatch):
    """Under a gauge-complex generator a hermitian pair has no time
    mirror: F(-t) is not conj F(t), and both points are evaluated, one
    ``_sum`` each, point by point and through ``values``."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    W = sp.diags(np.exp(1j * (basis.occupations @ np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 4))))
    H_gauge = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    gam_gauge = gibbs_state(H_gauge, 1.0, -1.0, 4, tail_tol=0.5)
    calls, evaluate = [], GreenFunction._sum

    def spy(self, t, s):
        calls.append(np.size(t))
        return evaluate(self, t, s)

    monkeypatch.setattr(GreenFunction, "_sum", spy)
    z, mirror = complex(0.9, -0.3), complex(-0.9, -0.3)
    gf = GreenFunction(gam_gauge, A, B)
    assert gf._hermitian and not gf._real
    value = gf(z)
    assert mirror not in gf._cache
    assert abs(gf(mirror) - value.conjugate()) > 1e-3
    assert calls == [1, 1]
    calls.clear()
    got = GreenFunction(gam_gauge, A, B).values([z, mirror])
    assert np.abs(got - [value, gf(mirror)]).max() <= 1e-14
    assert calls == [2]


def lone_real_point(gf, t, s):
    """F(t - i s) of a real hermitian pair by the lone-point formula,
    written out: [cos Et; sin Et] and both decay factors stacked, their
    products, then two ``dsymv`` calls (one at t = 0) and four dot
    products per block."""
    E, g = gf.state.decomp.energies[: gf._stop], gf.state.shifted[: gf._stop]
    phase = np.multiply.outer(E, t)
    phases = np.stack([np.cos(phase), np.sin(phase)])
    bra, ket = np.exp(-np.stack([np.multiply.outer(g, gf.beta - s), np.multiply.outer(g, s)]))
    bras, kets = phases * bra, phases * ket
    re = im = 0.0
    for rows, C in gf._blocks:
        u = dsymv(1.0, C, kets[0, rows], lower=1)
        if t == 0.0:
            re += bras[0, rows] @ u
            continue
        v = dsymv(1.0, C, kets[1, rows], lower=1)
        ac, an = bras[0, rows], bras[1, rows]
        re += ac @ u + an @ v
        im += an @ u - ac @ v
    return complex(re, im) / gf.state.z_scaled


def bits(values):
    return np.array(values, dtype=np.complex128).view(np.int64)


def row_free_shuffle(n_t, n_s, seed):
    """A random read order of an n_t x n_s t-major grid in which no two
    consecutive reads share a t, so no read continues a row: the depths
    in a random order and, per depth, the ts in a random order, reversed
    where the first would repeat the t read last."""
    rng = np.random.default_rng(seed)
    order = []
    for j in rng.permutation(n_s):
        ts = rng.permutation(n_t)
        if order and ts[0] == order[-1] // n_s:
            ts = ts[::-1]
        order += [int(i) * n_s + int(j) for i in ts]
    return order


def test_strip_points_keep_their_bits_in_any_order():
    """A point evaluated alone has the bits of the lone-point formula
    whatever was read before it: an s-major read and a shuffled read in
    which no two consecutive points share a t (neither forms a row) give
    the bits of ``lone_real_point`` at every point, folded mirrors
    included.  A t-major read evaluates its rows through ``values``,
    whose ``dsymm`` bits may differ from a lone point's in the last
    places: a repeat on a fresh ``GreenFunction`` gives the same bits, and
    the values agree with the lone formula and with ``values`` within
    1e-14 of max |F|.  At t = 0 the imaginary part is exactly +0.0, alone
    and in a row."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    n_t, n_s = 9, 7
    grid = [complex(t, -s) for t in np.linspace(-2.0, 2.0, n_t) for s in np.linspace(0.0, gam.beta, n_s)]
    lone = GreenFunction(gam, B, A)
    assert lone._real
    want = [lone_real_point(lone, z.real, lone._depth(z)) for z in grid]
    s_major = [i * n_s + j for j in range(n_s) for i in range(n_t)]
    for order in (s_major, row_free_shuffle(n_t, n_s, 2)):
        assert sorted(order) == list(range(len(grid)))
        assert all(grid[a].real != grid[b].real for a, b in zip(order, order[1:]))
        gf = GreenFunction(gam, B, A)
        got = {k: gf(grid[k]) for k in order}
        assert np.array_equal(bits(want), bits([got[k] for k in range(len(grid))]))
    first, again = ([gf(z) for z in grid] for gf in (GreenFunction(gam, B, A), GreenFunction(gam, B, A)))
    assert np.array_equal(bits(first), bits(again))
    scale = np.abs(want).max()
    assert np.abs(np.array(first) - want).max() <= 1e-14 * scale
    assert np.abs(np.array(first) - GreenFunction(gam, B, A).values(grid)).max() <= 1e-14 * scale
    for values in (want, first):
        for z, value in zip(grid, values):
            if z.real == 0.0:
                assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0


def spy(monkeypatch, owner, name, log, size):
    """Replace ``owner.name`` by a wrapper that appends ``size(*args)`` to
    ``log`` before each call."""
    wrapped = getattr(owner, name)

    def call(*args, **kwargs):
        log.append(size(*args))
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)


def test_a_t_major_grid_is_read_one_row_per_dsymm(monkeypatch):
    """The benchmark's 21 x 21 strip grid (t on linspace(-2, 2, 21), s on
    linspace(0, beta, 21)) read t-major: row t = -2 takes 21 lone points,
    two ``dsymv`` calls each per block; every later row whose t is not an
    exact mirror of a row before it (17 rows; t = 1.0, 1.6 and 2.0 are)
    is one ``values`` call, one ``dsymm`` on 42 columns per block.  The
    same grid read s-major or in a shuffled order without two consecutive
    reads at one t makes no ``dsymm`` call: its 441 - 63 = 378 points are
    evaluated alone, 21 of them at t = 0 on one ``dsymv``."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    n = 21
    grid = [complex(t, -s) for t in np.linspace(-2.0, 2.0, n) for s in np.linspace(0.0, gam.beta, n)]
    dsymm_cols, dsymv_calls = [], []
    spy(monkeypatch, thermal.blas, "dsymm", dsymm_cols, lambda alpha, a, b: b.shape[1])
    spy(monkeypatch, thermal.blas, "dsymv", dsymv_calls, lambda alpha, a, x: len(x))
    gf = GreenFunction(gam, A, B)
    assert gf._real
    blocks = len(gf._blocks)
    [gf(z) for z in grid]
    assert dsymm_cols == [2 * n] * (17 * blocks)
    assert len(dsymv_calls) == 2 * n * blocks
    s_major = [i * n + j for j in range(n) for i in range(n)]
    for order in (s_major, row_free_shuffle(n, n, 3)):
        dsymm_cols.clear()
        dsymv_calls.clear()
        gf = GreenFunction(gam, A, B)
        [gf(grid[k]) for k in order]
        assert dsymm_cols == []
        assert len(dsymv_calls) == (2 * (378 - n) + n) * blocks


def test_leaving_a_row_evaluates_at_most_one_row_once(monkeypatch):
    """After k = 4 depths at one t, a read at a new t and one of those
    depths evaluates the new row, 4 points (3 beyond the one asked for),
    once; a read at a new t and a new depth, and every read after a t
    read at one depth only, is evaluated alone."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    points = []
    spy(monkeypatch, GreenFunction, "_real_points", points, lambda self, t, s: np.size(t))
    gf = GreenFunction(gam, A, B)
    depths = [0.1, 0.5, 0.3, 0.9]
    for s in depths:
        gf(complex(0.7, -s))
    gf(complex(0.7, -0.5))
    gf(complex(0.2, -0.45))
    for s in depths:
        gf(complex(-0.6, -s))
    gf(complex(1.3, -0.5))
    assert all(complex(1.3, -s) in gf._cache for s in depths)
    for z in (complex(-1.1, -0.1), complex(0.9, -0.3), complex(1.5, -0.1)):
        gf(z)
    assert points == [1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 1, 1]


def test_a_complex_pair_reads_rows_through_sum(monkeypatch):
    """A hermitian pair under a gauge-complex generator has no time mirror
    and no symmetric C: a t-major grid reads its first row point by point
    and every later row in one ``_sum`` call on all its depths, and the
    values agree with ``values`` within 1e-14."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    W = sp.diags(np.exp(1j * (basis.occupations @ np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 4))))
    H_gauge = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    gam_gauge = gibbs_state(H_gauge, 1.0, -1.0, 4, tail_tol=0.5)
    grid = [complex(t, -s) for t in (-0.5, 0.2, 0.5) for s in (0.0, 0.3, 0.6, 1.0)]
    calls = []
    spy(monkeypatch, GreenFunction, "_sum", calls, lambda self, t, s: np.size(t))
    gf = GreenFunction(gam_gauge, A, B)
    assert gf._hermitian and not gf._real
    got = [gf(z) for z in grid]
    assert calls == [1, 1, 1, 1, 4, 4]
    assert np.abs(np.array(got) - GreenFunction(gam_gauge, A, B).values(grid)).max() <= 1e-14


def test_thermal_expectation_and_moments_keep_their_formula_and_memory():
    """``expectation`` and ``moment_sup`` of a real decomposition keep the
    bits of sum_j w_j (V^* A V)_jj and (|V|^2) w, and at D = 462 neither
    holds more than a quarter of a D x D array (tracemalloc peak): V is
    read in column chunks for the trace and in row chunks for |V|^2, a
    real V is never copied for its conjugate, and |V| is squared in
    place."""
    g = build_chain(6)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 5)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=0.2, onsite=1.0))
    gam = gibbs_state(H, 1.0, -3.0, 5, tail_tol=1e-6)
    V = gam.decomp.vectors
    assert V.dtype == np.float64
    A = local_observable(basis, {"kind": "normalized_hop", "sites": [2, 3]})
    want = complex(np.dot(gam.weights, np.einsum("ij,ij->j", V.conj(), _real_matmul(A.matrix, V))))
    probs = (np.abs(V) ** 2) @ gam.weights
    moment = float(np.max(((1.0 + basis.occupations) ** 2.0).T @ probs))
    one = V.nbytes
    for run, expected in ((lambda: expectation(gam, A), want), (lambda: moment_sup(gam, 2.0), moment)):
        tracemalloc.start()
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got == expected
        assert peak <= 0.25 * one


@pytest.mark.parametrize("length, syrk", [(9, True), (8, False)])
def test_green_function_builds_its_block_in_one_and_a_half_d_squared(length, syrk, monkeypatch):
    """With the eigenvectors allocated, ``GreenFunction.__init__`` peaks
    (tracemalloc) at 1.5 D^2 doubles, the kept C included: A~ is formed
    first and B~ is multiplied into it one column panel at a time, so B~
    is never held whole.  On the 9-site, 5-particle chain (D = 1,287) both
    observables take the SYRK route: A~'s factor is summed by ``dsyrk``
    in batches and never held whole, B~'s panels come from its whole
    factor (495 of 1,287 rows); on the 8-site, 5-particle chain (D = 792,
    below ``SYRK_ROWS_MIN``) both take panels of V^T (M V).  C's lower
    triangle agrees with that of A~ o B~ from two whole rotations within
    1e-14 ||A|| ||B||."""
    g = build_chain(length)
    basis = enumerate_basis(full_region(g), sector=5)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=1.0, onsite=1.0))
    gam = fixed_sector_gibbs(H, 1.0)
    A = local_observable(basis, {"kind": "normalized_hop", "sites": [3, 4]})
    B = local_observable(basis, {"kind": "number_function", "site": length - 3, "fn": "inv_one_plus_n"})
    D = basis.dimension
    assert (D >= dynamics.SYRK_ROWS_MIN) == syrk
    calls = []
    spy(monkeypatch, dynamics.blas, "dsyrk", calls, lambda alpha, a, **kwargs: a.shape[1])
    tracemalloc.start()
    try:
        gf = GreenFunction(gam, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * D * D * 8
    # only A's factor (the 825 active rows of the hop) goes through dsyrk
    assert sum(calls) == (825 if syrk else 0)
    ((rows, C),) = gf._blocks
    d = gam.decomp
    want = d.rotate(A.matrix, rows) * d.rotate(B.matrix, rows)
    assert np.abs(np.tril(C - want)).max() <= 1e-14 * operator_norm(A) * operator_norm(B)


def test_evolved_two_points_match_per_pair_two_point(monkeypatch):
    # 70 weighted columns (two chunks); a hermitian B, a non-hermitian B
    # that moves particles between sectors, and a plain pair (B = None)
    import bosonlr.dynamics as dynamics

    basis, reg, H, gam, A, B = truncated_chain_state()
    rng = np.random.default_rng(3)
    mixing = sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng)
    mixing = (mixing + 1j * sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng)).tocsr()
    B_mixing = SparseOperator(mixing, basis, False)
    P = local_observable(basis, {"kind": "indicator", "site": 0, "level": 1})
    pairs = [(A, B), (P, B_mixing), (A, None)]
    widths = []
    krylov_evolve = dynamics._krylov_evolve

    def counted(H_, X, times):
        widths.append(X.shape[1])
        return krylov_evolve(H_, X, times)

    monkeypatch.setattr(dynamics, "_krylov_evolve", counted)
    weighted = np.count_nonzero(gam.weights)
    for times in ([0.0, 0.7, 1.4], [0.0, 0.7, 2.3]):
        widths.clear()
        ab, ba, plain = evolved_two_points(gam, pairs, times)
        # per chunk: psi, B psi and B_mixing psi in one block, then
        # B_mixing^* psi in its own
        rest = weighted - PROPAGATE_CHUNK
        assert widths == [3 * PROPAGATE_CHUNK, PROPAGATE_CHUNK, 3 * rest, rest]
        for p, (A_, B_) in enumerate(pairs):
            for i, t in enumerate(times):
                # the per-pair sparse route costs a parameter selection per
                # call, so it is read at the longest time only
                engines = ("dense", "krylov") if t == 2.3 else ("dense",)
                for got, name, B_order in ((ab, "ab", B_), (ba, "ba", B_), (plain, "ab", None)):
                    for engine in engines:
                        decomp = gam.decomp if engine == "dense" else None
                        (ref,) = correlations(H, gam, [(A_, B_order)], [t], decomp, engine, want=(name,))
                        assert abs(got[p, i] - ref[0, 0]) <= 1e-12


def test_oracle_never_reads_the_spectral_propagator(monkeypatch):
    # the strip sum is built from the decomposition; the values it is
    # checked against must not be: evolved_two_points runs, and the KMS
    # boundary and stationarity residuals are taken from it, with the dense
    # propagator and the rotation into the eigenbasis disabled
    basis, reg, H, gam, A, B = truncated_chain_state()
    (want,) = correlations(H, gam, [(A, B)], [0.6], gam.decomp, "dense", want=("ab",))
    gf = GreenFunction(gam, A, B)

    def forbidden(name):
        def method(self, *args):
            raise AssertionError(f"the oracle called SpectralDecomposition.{name}")

        return method

    for name in ("propagate_block", "rotate"):
        monkeypatch.setattr(SpectralDecomposition, name, forbidden(name))
    ab, ba, plain = evolved_two_points(gam, [(A, B), (A, None)], [0.0, 0.3, 0.6])
    assert abs(ab[0, 2] - want[0, 0]) <= 1e-12
    assert abs(gf(complex(0.6, 0.0)) - ab[0, 2]) < 1e-9
    assert abs(gf(complex(0.6, -gam.beta)) - ba[0, 2]) < 1e-9
    assert abs(plain[1, 2] - expectation(gam, A)) < 1e-9
    # the controls: both dense routes trip the guard
    with pytest.raises(AssertionError, match="rotate"):
        correlations(H, gam, [(A, B)], [0.6], gam.decomp, "dense", want=("ab",))
    psi = StateVector(basis, gam.decomp.vectors[:, 0])
    with pytest.raises(AssertionError, match="propagate_block"):
        correlations(H, psi, [(A, B)], [0.6], gam.decomp, "dense")


def test_correlations_propagates_no_adjoint_image_unless_ba_is_read(monkeypatch):
    # a non-hermitian B: its B^* psi columns are propagated, in a block of
    # their own, only when "ba" is requested; on the sparse route (a thermal
    # state, two chunks) and on the dense route of a pure state
    basis, reg, H, gam, A, B = truncated_chain_state()
    rng = np.random.default_rng(5)
    mixing = sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng)
    B_mixing = SparseOperator((mixing + 1j * mixing).tocsr(), basis, False)
    pairs = [(A, B), (A, B_mixing)]
    times = [0.0, 0.7]
    widths = []
    krylov_evolve, propagate_block = dynamics._krylov_evolve, SpectralDecomposition.propagate_block

    def krylov_spy(H_, X, times_):
        widths.append(X.shape[1])
        return krylov_evolve(H_, X, times_)

    def dense_spy(self, X, t):
        widths.append(X.shape[1])
        return propagate_block(self, X, t)

    monkeypatch.setattr(dynamics, "_krylov_evolve", krylov_spy)
    monkeypatch.setattr(SpectralDecomposition, "propagate_block", dense_spy)
    weighted = np.count_nonzero(gam.weights)
    chunks = [PROPAGATE_CHUNK, weighted - PROPAGATE_CHUNK]
    psi = StateVector(basis, gam.decomp.vectors[:, 0])
    for want in [("ab",), ("plain",), ("plain", "ab"), ("ba",), ("ab", "ba", "plain")]:
        adjoint = "ba" in want
        widths.clear()
        correlations(H, gam, pairs, times, engine="krylov", want=want)
        # per chunk: [psi | B psi | B_mixing psi], then [B_mixing^* psi]
        assert widths == [w for k in chunks for w in ([3 * k, k] if adjoint else [3 * k])]
        widths.clear()
        correlations(H, psi, pairs, times, gam.decomp, "dense", want=want)
        assert widths == [w for _ in times for w in ([3, 1] if adjoint else [3])]
