import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

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
    enumerate_sectors,
    evolved_two_points,
    expectation,
    fixed_sector_gibbs,
    full_region,
    gibbs_state,
    hop_term,
    identity_operator,
    invariance_residual,
    kms_residual,
    local_observable,
    moment_sup,
    number_operator,
    operator_norm,
    sandwich,
    two_point,
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
    assert math.exp(gam.log_z) == pytest.approx(closed, rel=1e-12)
    # truncated tail estimate is exact for a geometric series
    q = math.exp(-1.0)
    exact_tail = (q**41 / (1 - q)) / (closed - q**41 / (1 - q))
    assert gam.tail_estimate == pytest.approx(exact_tail, rel=1e-6)


def test_interacting_single_site_partition_sum():
    # direct scalar sum oracle: Z = sum_n exp(-n(n-1))
    basis, H, gam = single_site_free(n_max=12, mu=0.0, U=1.0)
    direct = sum(math.exp(-n * (n - 1)) for n in range(13))
    assert math.exp(gam.log_z) == pytest.approx(direct, rel=1e-12)


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
        ab = two_point(gam, A, B, t, "AB", engine="krylov")
        ba = two_point(gam, A, B, t, "BA", engine="krylov")
        assert abs(gf(complex(t, 0.0)) - ab) < 1e-9
        assert abs(gf(complex(t, -gam.beta)) - ba) < 1e-9


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
    basis, H, gam = two_site_model(n_max=3, tail_tol=1e-2)
    ident = identity_operator(basis)
    r1, r2 = kms_residual(gam, ident, ident, 0.9)
    assert r1 < 1e-12 and r2 < 1e-12
    A = local_observable(basis, {"kind": "indicator", "site": 0, "level": 1})
    B = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    for t in (0.0, 0.5, 1.0):
        r1, r2 = kms_residual(gam, A, B, t)
        assert r1 < 1e-9 and r2 < 1e-9
    # t = 0 specialization: second residual compares F(-i beta) to gamma(B A)
    gf = GreenFunction(gam, A, B)
    ba0 = expectation(gam, B @ A)
    assert abs(gf(complex(0.0, -gam.beta)) - ba0) < 1e-10


def test_commutator_of_diagonal_observables_vanishes_at_t0():
    basis, H, gam = two_site_model()
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    B = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    ab = two_point(gam, A, B, 0.0, "AB", engine="krylov")
    ba = two_point(gam, A, B, 0.0, "BA", engine="krylov")
    assert abs(ab - ba) < 1e-14


def test_invariance_residuals():
    basis, H, gam = two_site_model()
    assert invariance_residual(gam, identity_operator(basis), 1.3) < 1e-12
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    P = local_observable(basis, {"kind": "indicator", "site": 0, "level": 1})
    for op in (A, P):
        assert invariance_residual(gam, op, 0.8) < 1e-9


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
    assert gam1.log_z == pytest.approx(gam2.log_z, rel=1e-12)
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
            got = two_point(gam, A, B_, t, order, engine="dense")
            assert abs(got - reference_two_point(gam, A, B_, t, order, gam.decomp)) <= 1e-12


def test_batched_two_point_with_cutoff_generator():
    basis, reg, H, gam, A, B = truncated_chain_state()
    G = sandwich(cutoff_projection(basis, reg, 2), H)
    assert not same_matrix(G, H)
    Gd = eigendecompose(G)
    for order in ("AB", "BA"):
        ref = reference_two_point(gam, A, B, 0.9, order, Gd)
        assert abs(two_point(gam, A, B, 0.9, order, G, Gd, engine="dense") - ref) <= 1e-12
        # the decomposition of a foreign generator is built on demand
        assert abs(two_point(gam, A, B, 0.9, order, G, engine="dense") - ref) <= 1e-12


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
        assert abs(two_point(gam, A, B, 1.4, order, engine="dense") - ref) <= 1e-12


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
    shared = two_point(gam, A, None, 0.8, engine="dense")
    ab, ba, plain = correlations(H, gam, [(A, None), (A, ident)], [0.8, 1.1], engine="dense")
    assert calls == []
    assert np.array_equal(ab[1], plain[0]) and np.array_equal(ba[1], plain[0])
    assert np.array_equal(ab[0], plain[0]) and np.array_equal(ba[0], plain[0])
    # a wider phase block may round differently in the last bit
    assert abs(plain[0, 0] - shared) <= 1e-15
    psi = StateVector(basis, gam.decomp.vectors[:, 0])
    correlations(H, psi, [(A, None)], [0.8, 1.1, 1.4], engine="dense")
    assert calls == [1, 1, 1]
    calls.clear()
    correlations(H, psi, [(A, None), (A, ident)], [0.8, 1.1], engine="dense")
    assert calls == [2, 2]


def column_loop_reference(columns, weights, pairs, times, evolve):
    """The column loop of ``correlations``, operation for operation:
    PROPAGATE_CHUNK weighted columns psi at a time, the block
    [psi | B psi | B^* psi ...] evolved by ``evolve(X)`` over the grid, and
    the weighted inner products accumulated chunk by chunk."""
    ab, ba, plain = np.zeros((3, len(pairs), len(times)), dtype=np.complex128)
    kept = np.flatnonzero(weights)
    for start in range(0, kept.size, PROPAGATE_CHUNK):
        cols = kept[start : start + PROPAGATE_CHUNK]
        psi = columns[:, cols]
        blocks, where = [psi], []
        for _, B in pairs:
            if B is None:
                where.append((0, 0))
                continue
            ket = len(blocks)
            blocks.append(_real_matmul(B.matrix, psi))
            if not B.hermitian:
                blocks.append(_real_matmul(B.matrix.conj().T, psi))
            where.append((ket, len(blocks) - 1))
        k, w = len(cols), weights[cols]
        for i, U in enumerate(evolve(np.hstack(blocks))):
            evolved = [U[:, b * k : (b + 1) * k] for b in range(len(blocks))]
            for p, (A, _) in enumerate(pairs):
                ket, bra = where[p]
                a_psi = A.matrix @ evolved[0]
                a_ket = a_psi if ket == 0 else A.matrix @ evolved[ket]
                plain[p, i] += np.einsum("ij,ij->j", evolved[0].conj(), a_psi) @ w
                ab[p, i] += np.einsum("ij,ij->j", evolved[0].conj(), a_ket) @ w
                ba[p, i] += np.einsum("ij,ij->j", evolved[bra].conj(), a_psi) @ w
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


def test_merged_sector_blocks_stay_within_the_merge_bound(monkeypatch):
    """Adjacent sector blocks share one block-diagonal block while it
    stays within ``MERGE_ROWS_MAX`` rows, and a sector above the bound
    stays alone: 6 sites to n = 5 (sectors of 1, 6, 21, 56, 126 and 252
    states) hold [210 | 252] rows at the shipped bound of 256, and
    [28 | 56 | 126 | 252] at a bound of 30.  Entries between two merged
    sectors are exactly zero, and the strip values of both layouts agree
    with one block per sector."""
    g = build_chain(6)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 5)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=0.2, onsite=1.0))
    gam = gibbs_state(H, 1.0, -3.0, 5, tail_tol=1e-6)
    A = local_observable(basis, {"kind": "normalized_hop", "sites": [2, 3]})
    B = local_observable(basis, {"kind": "number_function", "site": 4, "fn": "inv_one_plus_n"})
    points = [complex(t, -s) for t in (-1.5, 0.0, 0.7) for s in (0.0, 0.4, 1.0)]
    spans, shipped = {}, thermal.MERGE_ROWS_MAX
    for bound in (0, shipped, 30):
        monkeypatch.setattr(thermal, "MERGE_ROWS_MAX", bound)
        gf = GreenFunction(gam, A, B)
        spans[bound] = [(rows.start, rows.stop) for rows, _ in gf._blocks]
        for rows, C in gf._blocks:
            assert C.shape == (rows.stop - rows.start,) * 2 and C.flags.f_contiguous
            sectors = basis.totals[rows]
            assert not C[sectors[:, None] != sectors[None, :]].any()
        values = gf.values(points)
        if bound:
            assert np.abs(values - reference).max() <= 1e-14 * np.abs(reference).max()
        else:
            reference = values
    assert spans[shipped] == [(0, 210), (210, 462)]
    assert spans[30] == [(0, 28), (28, 84), (84, 210), (210, 462)]
    assert spans[0] == [(sl.start, sl.stop) for _, sl in basis.sector_slices()]


def test_strip_points_keep_their_bits_in_any_order(monkeypatch):
    """The factors cached per t and per depth s make no point depend on
    the points before it: a t-major grid, the same grid shuffled, and the
    shuffled grid with room for three factors per cache (evicting on
    almost every point) give the same bits.  A point at t = 0 takes one
    ``dsymv`` per block and has an imaginary part of exactly 0.0."""
    basis, reg, H, gam, A, B = truncated_chain_state()
    grid = [complex(t, -s) for t in np.linspace(-2.0, 2.0, 9) for s in np.linspace(0.0, gam.beta, 7)]
    order = np.random.default_rng(2).permutation(len(grid))
    t_major = GreenFunction(gam, B, A)
    assert t_major._real
    want = [t_major(z) for z in grid]
    shuffled = GreenFunction(gam, B, A)
    got = {k: shuffled(grid[k]) for k in order}
    monkeypatch.setattr(thermal, "FACTOR_CACHE_MAX", 3)
    small = GreenFunction(gam, B, A)
    got_small = {k: small(grid[k]) for k in order}
    assert len(small._phases) == len(small._decays) == 3
    bits = np.array(want).view(np.int64)
    assert np.array_equal(bits, np.array([got[k] for k in range(len(grid))]).view(np.int64))
    assert np.array_equal(bits, np.array([got_small[k] for k in range(len(grid))]).view(np.int64))
    for k, value in enumerate(want):
        if grid[k].real == 0.0:
            assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0


def test_thermal_expectation_and_moments_keep_their_formula_and_memory():
    """``expectation`` and ``moment_sup`` of a real decomposition keep the
    bits of sum_j w_j (V^* A V)_jj and (|V|^2) w, and at D = 462 neither
    holds more than one D x D temporary (tracemalloc peak): a real V is
    never copied for its conjugate, and |V| is squared in place."""
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
        assert peak <= 1.1 * one


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
        # psi, B psi, and B_mixing psi with B_mixing^* psi: four blocks
        assert widths == [4 * PROPAGATE_CHUNK, 4 * (weighted - PROPAGATE_CHUNK)]
        for p, (A_, B_) in enumerate(pairs):
            for i, t in enumerate(times):
                # the per-pair sparse route costs a parameter selection per
                # call, so it is read at the longest time only
                engines = ("dense", "krylov") if t == 2.3 else ("dense",)
                for got, order, B_order in ((ab, "AB", B_), (ba, "BA", B_), (plain, "AB", None)):
                    for engine in engines:
                        want = two_point(gam, A_, B_order, t, order, engine=engine)
                        assert abs(got[p, i] - want) <= 1e-12


def test_oracle_never_reads_the_spectral_propagator(monkeypatch):
    # the strip sum is built from the decomposition; the values it is
    # checked against must not be: evolved_two_points, kms_residual and
    # invariance_residual run with the dense propagator and the rotation
    # into the eigenbasis disabled
    basis, reg, H, gam, A, B = truncated_chain_state()
    want = two_point(gam, A, B, 0.6, engine="dense")
    gf = GreenFunction(gam, A, B)

    def forbidden(name):
        def method(self, *args):
            raise AssertionError(f"the oracle called SpectralDecomposition.{name}")

        return method

    for name in ("propagate_block", "rotate"):
        monkeypatch.setattr(SpectralDecomposition, name, forbidden(name))
    ab, _, _ = evolved_two_points(gam, [(A, B), (A, None)], [0.0, 0.3, 0.6])
    assert abs(ab[0, 2] - want) <= 1e-12
    assert max(kms_residual(gam, A, B, 0.6, gf)) < 1e-9
    assert invariance_residual(gam, A, 0.6) < 1e-9
    # the controls: both dense routes trip the guard
    with pytest.raises(AssertionError, match="rotate"):
        two_point(gam, A, B, 0.6, engine="dense")
    psi = StateVector(basis, gam.decomp.vectors[:, 0])
    with pytest.raises(AssertionError, match="propagate_block"):
        correlations(H, psi, [(A, B)], [0.6], gam.decomp, "dense")
