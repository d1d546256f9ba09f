import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from bosonlr import (
    GreenFunction,
    InvalidArgumentError,
    ModelParams,
    ResourceLimitError,
    assemble_hamiltonian,
    basis_vector,
    binomial_inverse_moment,
    build_chain,
    build_from_edges,
    condensate_nonlocality_expectation,
    eigendecompose,
    enumerate_basis,
    enumerate_sectors,
    enlargement,
    evolve_state,
    fixed_sector_gibbs,
    gibbs_state,
    free_particle_amplitude,
    full_region,
    heisenberg_blocks,
    heisenberg_expectation,
    hop_term,
    identity_operator,
    local_observable,
    number_operator,
    operator_norm,
    region,
)
from bosonlr import dynamics
from bosonlr.dynamics import (
    SpectralDecomposition,
    StateVector,
    _active_rows,
    _fix_phases,
    _krylov_evolve,
    _mirror_layout,
    _real_matmul,
    inverse_moment_upper_bound,
)
from bosonlr.operators import SparseOperator


def chain_model(L, sector=None, n_max=None, cap=None, J=1.0, U=0.0):
    g = build_chain(L)
    reg = full_region(g)
    if sector is not None:
        basis = enumerate_basis(reg, sector=sector, cap=cap)
    else:
        basis = enumerate_sectors(reg, n_max, cap=cap)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=J, onsite=U))
    return g, reg, basis, H


def test_eigendecompose_tiny():
    _, _, basis, H = chain_model(1, sector=0)
    d = eigendecompose(H)
    assert d.energies == pytest.approx([0.0])
    _, _, _, H2 = chain_model(2, sector=1)
    d2 = eigendecompose(H2)
    assert d2.energies == pytest.approx([-1.0, 1.0])
    _, _, _, H3 = chain_model(1, sector=2, U=1.0)
    assert eigendecompose(H3).energies == pytest.approx([2.0])


def test_eigendecompose_residuals_and_unitarity():
    _, _, basis, H = chain_model(4, n_max=3, cap=2, U=0.8)
    d = eigendecompose(H)
    Hd = H.to_dense()
    norm_h = operator_norm(H)
    for j in range(d.dimension):
        r = np.linalg.norm(Hd @ d.vectors[:, j] - d.energies[j] * d.vectors[:, j])
        assert r <= 1e-10 * norm_h
    gram = d.vectors.conj().T @ d.vectors
    assert np.abs(gram - np.eye(d.dimension)).max() < 1e-10
    # block ordering: (sector, energy)
    for n, sl in d.sector_slices():
        assert np.all(basis.totals[sl] == n)
        assert np.all(np.diff(d.energies[sl]) >= 0.0)


def plain_eigendecompose(H):
    """``eigendecompose`` without the mirror split: one eigh per sector
    block, then ``_fix_phases``."""
    real = not H.matrix.data.imag.any()
    matrix = H.matrix.real if real else H.matrix
    dim = H.basis.dimension
    energies = np.empty(dim)
    vectors = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    for _, sl in H.basis.sector_slices():
        energies[sl], evecs = np.linalg.eigh(matrix[sl, sl].toarray())
        vectors[sl, sl] = _fix_phases(evecs)
    return SpectralDecomposition(H.basis, energies, vectors)


def split_eigendecompose(H):
    """``eigendecompose`` with the mirror split as first written: the dense
    block permuted by two ``take`` calls, both halves' eigenvectors copied
    into a zero-filled block, the columns gathered into merged order, then
    ``_fix_phases`` on the whole block.  Sectors that do not split take
    one eigh, as in ``plain_eigendecompose``."""
    ref = plain_eigendecompose(H)
    matrix = H.matrix.real if ref.vectors.dtype == np.float64 else H.matrix
    layout = _mirror_layout(matrix, H.basis) or [None] * len(H.basis.sector_slices())
    for (_, sl), halves in zip(H.basis.sector_slices(), layout):
        if halves is None:
            continue
        q, a, b = halves
        m = matrix[sl, sl].toarray().take(q, 0).take(q, 1)
        lo, fx, hi = slice(0, a), slice(a, b), slice(b, None)
        if not (
            np.array_equal(m[hi, hi], m[lo, lo])
            and np.array_equal(m[hi, lo], m[lo, hi])
            and np.array_equal(m[hi, fx], m[lo, fx])
            and np.array_equal(m[fx, hi], m[fx, lo])
        ):
            continue
        odd = m[lo, lo] - m[lo, hi]
        even = m[:b, :b]
        even[lo, lo] += m[lo, hi]
        even[lo, fx] *= math.sqrt(2.0)
        even[fx, lo] *= math.sqrt(2.0)
        e_even, w_even = np.linalg.eigh(even)
        e_odd, w_odd = np.linalg.eigh(odd)
        w_even[lo] *= math.sqrt(0.5)
        w_odd *= math.sqrt(0.5)
        vecs = np.zeros_like(m)
        vecs[q[:b], :b] = w_even
        vecs[q[b:], :b] = w_even[lo]
        vecs[q[:a], b:] = w_odd
        vecs[q[b:], b:] = -w_odd
        energies = np.concatenate([e_even, e_odd])
        merged = np.argsort(energies, kind="stable")
        ref.energies[sl] = energies[merged]
        ref.vectors[sl, sl] = _fix_phases(vecs[:, merged])
    return ref


def assert_same_bits(d, ref):
    assert np.array_equal(d.energies, ref.energies)
    assert np.array_equal(d.vectors, ref.vectors)


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The order of every np.linalg.eigh call made during the test."""
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_mirror_symmetric_sectors_split_in_two(eigh_sizes):
    # 8 sites: no palindrome holds 3 particles, so the 120 states pair up;
    # sectors below MIRROR_MIN (1, 8 and 36 states) keep one eigh
    _, _, basis, H = chain_model(8, n_max=3, U=0.7)
    d = eigendecompose(H)
    assert eigh_sizes == [1, 8, 36, 60, 60]
    assert_same_bits(d, split_eigendecompose(H))
    ref = plain_eigendecompose(H)
    scale = float(np.abs(ref.energies).max())
    assert np.abs(d.energies - ref.energies).max() <= 1e-12 * scale
    assert np.abs(H.to_dense() @ d.vectors - d.vectors * d.energies).max() <= 1e-12 * scale
    # 7 sites, 3 particles: the 4 palindromes sit in the even half
    _, _, _, H7 = chain_model(7, sector=3, U=0.7)
    eigh_sizes.clear()
    eigendecompose(H7)
    assert eigh_sizes == [(84 + 4) // 2, (84 - 4) // 2]


def test_asymmetric_operators_keep_one_eigh_bit_for_bit(eigh_sizes):
    g, _, basis, H = chain_model(8, sector=3, U=0.7)
    params = ModelParams(hopping=1.0, onsite=0.7)
    # interactions and hops only near site 1, as the local-approximation
    # check builds H_in from an off-centre enlargement
    off_centre = assemble_hamiltonian(g, enlargement(g, region(g, [1]), 2), basis, params)
    potential = SparseOperator(H.matrix + 0.3 * number_operator(basis, 2).matrix, basis, True)
    # a path 0-1-...-7 with one chord, which no site reversal maps to itself
    edges = build_from_edges(8, [(k, k + 1) for k in range(7)] + [(0, 2)])
    graph_basis = enumerate_basis(full_region(edges), sector=3)
    on_edges = assemble_hamiltonian(edges, full_region(edges), graph_basis, params)
    for op in (off_centre, potential, on_edges):
        eigh_sizes.clear()
        d = eigendecompose(op)
        assert eigh_sizes == [120]
        ref = plain_eigendecompose(op)
        assert np.array_equal(d.energies, ref.energies)
        assert np.array_equal(d.vectors, ref.vectors)


def test_mirror_split_is_deterministic():
    # eigenvectors of the halves tie in magnitude at a row and its mirror
    # image; _fix_phases must settle each tie the same way every call
    _, _, _, H = chain_model(7, n_max=4, cap=3, U=0.4)
    first, second = eigendecompose(H), eigendecompose(H)
    assert np.array_equal(first.vectors, second.vectors)
    assert np.array_equal(first.energies, second.energies)


def test_mirror_split_matches_plain_eigh_at_1287_states(eigh_sizes):
    # the 9-site, 5-particle chain of the thermal benchmark
    _, _, basis, H = chain_model(9, sector=5, U=1.0)
    d = eigendecompose(H)
    assert sorted(eigh_sizes) == [(1287 - 15) // 2, (1287 + 15) // 2]  # 15 palindromes
    assert_same_bits(d, split_eigendecompose(H))
    ref = plain_eigendecompose(H)
    scale = float(np.abs(ref.energies).max())
    assert np.abs(d.energies - ref.energies).max() <= 1e-12 * scale
    V = d.vectors
    assert np.abs(H.matrix @ V - V * d.energies).max() <= 1e-12 * scale
    assert np.abs(V.T @ V - np.eye(basis.dimension)).max() <= 1e-12
    A = local_observable(basis, {"kind": "normalized_hop", "sites": [3, 4]})
    B = local_observable(basis, {"kind": "number_function", "site": 6, "fn": "inv_one_plus_n"})
    # the hop acts on the 1287 - C(11, 5) states with a particle on site 3
    # or 4, 1/(1+n_6) (mostly 1) on the 1287 - C(12, 5) with one on site 6
    for op, rows, shift in ((A, 825, 0.0), (B, 495, 1.0)):
        active, c = _active_rows(op.matrix.tocsr())
        assert (active.size, c) == (rows, shift)
        got = d.rotate(op.matrix)
        want = V.T @ (op.matrix.real @ V)
        assert np.abs(got - want).max() <= 1e-13 * operator_norm(op)
    points = [0.0, 1.5, complex(-0.7, -0.4), complex(2.0, -1.0)]
    got = GreenFunction(fixed_sector_gibbs(H, 1.0, d), A, B).values(points)
    want = GreenFunction(fixed_sector_gibbs(H, 1.0, ref), A, B).values(points)
    assert np.abs(got - want).max() <= 1e-12


def test_split_sector_allocates_at_most_three_blocks(eigh_sizes):
    # 8 sites, 5 particles: one 792-state sector, split in two.  Past the
    # result, the split holds at most both halves' eigenvectors and one
    # half's magnitudes for its phases: about 0.94 D^2 doubles, where a
    # dense permuted copy of the block took about 1.8 D^2, and a
    # zero-filled and a merged-column copy of the eigenvectors 4.7 D^2
    _, _, basis, H = chain_model(8, sector=5, U=1.0)
    D = basis.dimension
    assert D >= 700
    tracemalloc.start()
    try:
        d = eigendecompose(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(eigh_sizes) == 2
    result = d.energies.nbytes + d.vectors.nbytes
    assert peak - result <= D * D * 8
    assert_same_bits(d, split_eigendecompose(H))


def test_eigendecompose_dense_cap(monkeypatch):
    _, _, _, H = chain_model(3, sector=2)
    monkeypatch.setattr(dynamics, "DENSE_CAP", 4)
    with pytest.raises(ResourceLimitError, match="above the dense cap 4"):
        eigendecompose(H)


def test_evolve_identity_cases():
    _, _, basis, H = chain_model(3, sector=2, U=0.5)
    psi = basis_vector(basis, (1, 1, 0))
    out = evolve_state(H, psi, 0.0)
    assert np.allclose(out.amplitudes, psi.amplitudes)
    # diagonal generator: pure phase on an occupation eigenstate
    _, _, b1, H0 = chain_model(2, sector=2, J=0.0, U=1.0)
    phi = basis_vector(b1, (2, 0))
    out = evolve_state(H0, phi, 0.7)
    k = b1.index_of((2, 0))
    assert out.amplitudes[k] == pytest.approx(np.exp(-1j * 2.0 * 0.7))


def test_free_spreading_matches_bessel_series():
    g, reg, basis, H = chain_model(41, sector=1)
    occ = [0] * 41
    occ[20] = 1
    psi = basis_vector(basis, occ)
    d = eigendecompose(H)
    for t in (0.5, 1.0):
        out = evolve_state(H, psi, t, decomposition=d)
        for x in range(-6, 7):
            occ_x = [0] * 41
            occ_x[20 + x] = 1
            amp = out.amplitudes[basis.index_of(occ_x)]
            assert abs(amp - free_particle_amplitude(x, t)) < 1e-8


def test_unitarity_group_law_energy():
    _, _, basis, H = chain_model(5, sector=2, U=1.0)
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    amps /= np.linalg.norm(amps)
    psi = StateVector(basis, amps)
    d = eigendecompose(H)
    for engine, dec in (("dense", d), ("krylov", None)):
        out = evolve_state(H, psi, 1.3, decomposition=dec, engine=engine)
        assert abs(out.norm - 1.0) < 1e-10
        step = evolve_state(
            H, evolve_state(H, psi, 0.4, dec, engine), 0.9, dec, engine
        )
        assert np.abs(step.amplitudes - out.amplitudes).max() < 1e-9
        e0 = np.vdot(psi.amplitudes, H.matrix @ psi.amplitudes).real
        et = np.vdot(out.amplitudes, H.matrix @ out.amplitudes).real
        assert abs(et - e0) < 1e-9 * operator_norm(H)


def test_engine_agreement():
    for L, kw in ((5, dict(sector=3, U=1.0)), (6, dict(n_max=2, cap=2, U=0.3))):
        _, _, basis, H = chain_model(L, **kw)
        d = eigendecompose(H)
        rng = np.random.default_rng(L)
        amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        amps /= np.linalg.norm(amps)
        psi = StateVector(basis, amps)
        for t in (0.5, 2.0):
            dense = evolve_state(H, psi, t, decomposition=d)
            krylov = evolve_state(H, psi, t, engine="krylov")
            assert np.abs(dense.amplitudes - krylov.amplitudes).max() < 1e-9


@pytest.mark.parametrize(
    "times, calls",
    [
        ([0.0, 0.5, 1.0], 1),  # a uniform grid from t = 0: one grid call
        # a uniform grid from t0 != 0: one call to t0, then the grid; scipy's
        # grid call alone is off by 2e-10 on [-1, -0.75] (|t0| > span)
        ([-1.0, -0.5, 0.0, 0.5], 2),
        ([-1.0, -0.75], 2),
        ([0.0, 0.3, 1.1], 2),  # not uniform: one call per nonzero time
        ([0.0, -0.5, -1.0], 2),  # descending, where scipy's grid call is wrong
        ([0.7], 1),
        ([-0.9], 1),
        ([0.0], 0),
    ],
)
def test_krylov_evolve_matches_dense_exponential(times, calls, monkeypatch):
    import scipy.sparse.linalg
    from scipy.linalg import expm

    _, _, basis, H = chain_model(5, n_max=3, cap=2, U=0.8)
    rng = np.random.default_rng(7)
    real = rng.standard_normal((basis.dimension, 3))
    X = real + 1j * rng.standard_normal((basis.dimension, 3))
    made = []
    expm_multiply = scipy.sparse.linalg.expm_multiply

    def counted(*args, **kwargs):
        made.append(kwargs)
        return expm_multiply(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", counted)
    Hd = H.to_dense()
    for block in (X, real):
        made.clear()
        out = _krylov_evolve(H.matrix, block, times)
        assert len(made) == calls
        assert out.shape == (len(times),) + block.shape and out.dtype == np.complex128
        for t, got in zip(times, out):
            assert np.abs(got - expm(-1j * t * Hd) @ block).max() <= 1e-12
    if times == [0.0]:
        assert np.array_equal(out[0], real) and not np.shares_memory(out, real)


@pytest.mark.parametrize("times", [[5e-324], [0.0, 5e-324], [-5e-324], [1e-17, 2e-17]])
def test_krylov_evolve_copies_steps_that_underflow(times):
    """A step with |t| ||H||_1 <= eps moves no state past rounding and is a
    copy on either route: at t = 5e-324 scipy's parameter selection picks
    s = 0 steps and divides by it (a RuntimeWarning, an error here)."""
    import warnings

    H = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    X = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _krylov_evolve(H, X, times)
    assert out.shape == (len(times), 2, 2)
    assert all(np.array_equal(U, X) for U in out)
    # a step just past eps still propagates
    (U,) = _krylov_evolve(H, X, [1e-15])
    assert np.abs(U - np.array([[1.0, -1e-15j], [-1e-15j, 1.0]])).max() <= 1e-30


def test_sector_confinement_exact():
    _, _, basis, H = chain_model(3, n_max=2, U=0.5)
    start = basis_vector(basis, (1, 0, 0))
    out = evolve_state(H, start, 1.7)
    other = basis.totals != 1
    assert np.all(out.amplitudes[other] == 0.0)


def test_heisenberg_expectation_identities():
    g, reg, basis, H = chain_model(3, sector=2, U=1.0)
    d = eigendecompose(H)
    psi = basis_vector(basis, (1, 1, 0))
    ident = identity_operator(basis)
    B = number_operator(basis, 1)
    for t in (0.0, 0.8):
        val = heisenberg_expectation(H, ident, psi, B, t, decomposition=d)
        assert val == pytest.approx(np.vdot(psi.amplitudes, B.matrix @ psi.amplitudes))
    A = number_operator(basis, 0)
    t0 = heisenberg_expectation(H, A, psi, B, 0.0, decomposition=d)
    assert t0 == pytest.approx(np.vdot(psi.amplitudes, (A @ B).matrix @ psi.amplitudes))


def test_heisenberg_quench_against_dense_conjugation():
    # thermal state of the decoupled model, evolved with the hopping model;
    # brute-force check of Tr[rho0 e^{iHt} A e^{-iHt}]
    from scipy.linalg import expm
    from bosonlr import ModelParams, assemble_hamiltonian, fixed_sector_gibbs, full_region

    g = build_chain(4)
    reg = full_region(g)
    basis = enumerate_basis(reg, sector=2)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=1.0))
    H0 = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=0.0, onsite=1.0))
    gam0 = fixed_sector_gibbs(H0, 1.0)
    A = number_operator(basis, 1)
    rho0 = (gam0.decomp.vectors * gam0.weights) @ gam0.decomp.vectors.conj().T
    for t in (0.3, 1.1):
        U = expm(-1j * t * H.to_dense())
        brute = np.trace(rho0 @ U.conj().T @ A.to_dense() @ U)
        got = heisenberg_expectation(H, A, gam0, None, t, engine="krylov")
        assert got == pytest.approx(complex(brute), abs=1e-10)


def test_heisenberg_conserved_observable_constant():
    # decoupled sites: every on-site number is conserved
    _, _, basis, H = chain_model(3, sector=2, J=0.0, U=1.0)
    psi = basis_vector(basis, (2, 0, 0))
    A = number_operator(basis, 0)
    vals = [heisenberg_expectation(H, A, psi, None, t, engine="krylov") for t in (0.0, 0.5, 2.0)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-12


def test_heisenberg_operator():
    # e^{iHt} A e^{-iHt} from ``heisenberg_blocks``: on a single-sector
    # basis its one block (2, 2) is the whole operator
    _, _, basis, H = chain_model(3, sector=2, U=0.7)
    d = eigendecompose(H)
    A = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    assert np.abs(heisenberg_blocks(H, A, [0.0], d)[0][2, 2] - A.to_dense()).max() < 1e-12
    # functions of the generator are fixed points
    fH = d.vectors @ np.diag(np.exp(-d.energies)) @ d.vectors.conj().T
    import scipy.sparse as sp

    fH_op = SparseOperator(sp.csr_matrix(fH), basis, True)
    assert np.abs(heisenberg_blocks(H, fH_op, [1.1], d)[0][2, 2] - fH).max() < 1e-10
    # unitary conjugation preserves the norm
    rng = np.random.default_rng(5)
    R = rng.standard_normal((basis.dimension, basis.dimension))
    R = R + R.T
    R_op = SparseOperator(sp.csr_matrix(R), basis, True)
    (evolved,) = heisenberg_blocks(H, R_op, [0.9], d)[0].values()
    assert operator_norm(evolved) == pytest.approx(operator_norm(R), abs=1e-8)


def quad_amplitude(x, t, n=20001):
    """Independent quadrature oracle for the free lattice propagator."""
    k = np.linspace(-math.pi, math.pi, n)
    integrand = np.exp(2j * t * np.cos(k)) * np.exp(1j * k * x)
    return np.trapezoid(integrand, k) / (2 * math.pi)


def test_free_particle_amplitude_values():
    assert free_particle_amplitude(0, 0.0) == 1.0
    assert free_particle_amplitude(3, 0.0) == 0.0
    for t in (0.5, 1.0, 2.0):
        total = abs(free_particle_amplitude(0, t)) ** 2
        x = 1
        while True:
            a = abs(free_particle_amplitude(x, t)) ** 2
            total += 2 * a
            if a < 1e-16 and x > 2 * t:
                break
            x += 1
        assert total == pytest.approx(1.0, abs=1e-12)
    for x, t in ((0, 1.0), (2, 0.7), (5, 1.8)):
        assert abs(free_particle_amplitude(x, t) - quad_amplitude(x, t)) < 1e-10


def test_free_particle_amplitude_matches_dense_propagation_at_long_times():
    # e^{-iHt} on a 101-site chain from scipy's expm, which shares no code
    # with jv; a front moving at speed 2 reaches no boundary by t = 15, so
    # the open chain equals the infinite one to far below 1e-12 on |x| <= 30
    from scipy.linalg import expm

    _, _, basis, H = chain_model(101, sector=1)
    center = 50
    for t in (5.0, 12.0, 15.0):
        column = expm(-1j * t * H.to_dense())[:, center]
        for x in range(-30, 31):
            occ = [0] * 101
            occ[center + x] = 1
            assert abs(column[basis.index_of(occ)] - free_particle_amplitude(x, t)) <= 1e-12


def test_condensate_expectation():
    assert condensate_nonlocality_expectation(5, 3, 0.0) == 1.0
    p = abs(free_particle_amplitude(1, 0.5)) ** 2
    assert condensate_nonlocality_expectation(1, 1, 0.5) == pytest.approx(1 - p / 2)
    prev = 1.0
    for m in (1, 10, 100, 1000, 10000):
        val = condensate_nonlocality_expectation(m, 1, 0.5)
        assert val <= prev + 1e-15
        assert val <= inverse_moment_upper_bound(m, p) + 1e-12
        prev = val
    assert prev < 0.05  # m p >> 400 here


def test_binomial_inverse_moment_against_direct_sum():
    rng = np.random.default_rng(2)
    for m in (1, 7, 40, 100):
        for p in rng.uniform(0.01, 0.99, 3):
            direct = sum(
                math.comb(m, k) * p**k * (1 - p) ** (m - k) / (k + 1) for k in range(m + 1)
            )
            assert binomial_inverse_moment(m, p) == pytest.approx(direct, rel=1e-12)


def test_state_vector_validation():
    _, _, basis, _ = chain_model(2, sector=1)
    with pytest.raises(InvalidArgumentError):
        StateVector(basis, np.ones(5, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        StateVector(basis, np.array([1.0, np.inf], dtype=complex))
    with pytest.raises(InvalidArgumentError):
        StateVector(basis, np.array([1.0, 0.0], dtype=complex), norm=2.0)


def test_batched_heisenberg_expectation_matches_eigenvector_loop():
    import scipy.sparse as sp

    _, _, basis, H = chain_model(4, n_max=4, U=1.0)
    d = eigendecompose(H)
    V, E = d.vectors, d.energies
    rng = np.random.default_rng(11)
    A = local_observable(basis, {"kind": "number_function", "site": 1, "fn": "inv_one_plus_n"})
    # sector-mixing B: B psi spreads over several sector blocks
    mixing = sp.random(basis.dimension, basis.dimension, density=0.05, random_state=rng, dtype=complex)
    B = SparseOperator(mixing.tocsr(), basis, False)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    gam = gibbs_state(H, 1.0, -2.0, 3, tail_tol=0.5)
    assert np.any(gam.weights == 0.0)

    def reference(pairs, B_, t):
        def propagate(v):
            return V @ (np.exp(-1j * E * t) * (V.conj().T @ v))

        return sum(
            w * np.vdot(propagate(v), A.matrix @ propagate(v if B_ is None else B_.matrix @ v))
            for w, v in pairs
            if w != 0.0
        )

    thermal_pairs = list(zip(gam.weights, gam.decomp.vectors.T))
    for B_ in (B, None):
        for t in (0.0, 0.6, 1.9):
            got = heisenberg_expectation(H, A, psi, B_, t, decomposition=d)
            assert abs(got - reference([(1.0, psi.amplitudes)], B_, t)) <= 1e-12
            got = heisenberg_expectation(H, A, gam, B_, t, decomposition=d)
            assert abs(got - reference(thermal_pairs, B_, t)) <= 1e-12
        krylov = heisenberg_expectation(H, A, psi, B_, 1.9, engine="krylov")
        assert abs(krylov - reference([(1.0, psi.amplitudes)], B_, 1.9)) <= 1e-9


def test_real_hamiltonian_gives_float64_eigenvectors():
    _, _, basis, H = chain_model(4, n_max=3, cap=2, U=0.8)
    assert not H.matrix.data.imag.any()
    d = eigendecompose(H)
    assert d.vectors.dtype == np.float64
    Hd = H.to_dense()
    assert np.abs(Hd @ d.vectors - d.vectors * d.energies).max() <= 1e-12
    assert np.abs(d.vectors.T @ d.vectors - np.eye(basis.dimension)).max() <= 1e-12


def test_fix_phases_matches_column_loop():
    def loop(vecs):
        for j in range(vecs.shape[1]):
            col = vecs[:, j]
            pivot = col[np.argmax(np.abs(col))]
            if np.abs(pivot) > 0:
                col *= np.conj(pivot) / np.abs(pivot)
        return vecs

    rng = np.random.default_rng(4)
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    ties = np.array([[1j, 0.0, 0.0], [-1j, -1.0, 0.0], [0.5, 1.0, 0.0]])
    for vecs in (np.linalg.eigh(M + M.conj().T)[1], np.linalg.eigh(M.real + M.real.T)[1], ties):
        got = _fix_phases(vecs.copy())
        assert got.dtype == vecs.dtype
        assert np.array_equal(got, loop(vecs.copy()))


def frozen_fix_phases(vecs, rows=None):
    """``_fix_phases`` as it was written for every dtype: a float copy of
    |vecs|, its column peaks, the first of them in the order of ``rows``,
    and each column scaled by conj(pivot) / |pivot|."""
    mags = np.abs(vecs)
    peaks = mags == mags.max(axis=0)
    order = np.arange(len(vecs)) if rows is None else np.argsort(rows)
    first = order[np.argmax(peaks[order], axis=0)]
    pivots = vecs[first, np.arange(vecs.shape[1])]
    mags = np.abs(pivots)
    nonzero = mags > 0
    factors = np.ones_like(pivots)
    factors[nonzero] = np.conj(pivots[nonzero]) / mags[nonzero]
    vecs *= factors
    return vecs


def test_real_fix_phases_keeps_the_bits_of_the_magnitude_formula():
    """On real blocks the pivot comes from the column max and min, with no
    float copy of |vecs|: the result has the bits of the frozen formula,
    signed zeros included, on columns whose peak ties between +x and -x,
    repeats at one sign, is negative, or is zero, with the ties settled
    in the order of permuted ``rows``."""
    rng = np.random.default_rng(12)
    W = np.linalg.eigh(rng.standard_normal((30, 30)) + rng.standard_normal((30, 30)).T)[1]
    W[:, 0] = 0.0
    W[[3, 7], 1] = 2.0, -2.0  # a tie between signs
    W[[9, 4], 2] = -2.0, 2.0
    W[[5, 11, 2], 3] = -3.0, -3.0, 1.0  # a negative peak, repeated
    W[[6, 8], 4] = 3.0, 3.0
    W[:, 5] = np.where(rng.random(30) < 0.5, -0.0, 0.0)
    W[:, 6] = np.where(rng.random(30) < 0.5, -1.5, 1.5)  # every entry ties
    for rows in (None, rng.permutation(30), rng.permutation(90)[:30], np.arange(30)[::-1]):
        for block in (W, W[:17], -W):
            given = None if rows is None else rows[: len(block)]
            got, want = _fix_phases(block.copy(), given), frozen_fix_phases(block.copy(), given)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_real_matmul_matches_plain_product():
    import scipy.sparse as sp

    rng = np.random.default_rng(8)
    R = rng.standard_normal((6, 5))
    C = R + 1j * rng.standard_normal((6, 5))
    x, z = rng.standard_normal((5, 3)), rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    for a, b in ((R, z), (R, z[:, 0]), (C, x), (z[:, 0], R.T), (R, x), (C, z)):
        got = _real_matmul(a, b)
        assert got.dtype == np.result_type(a, b)
        assert got.shape == (a @ b).shape
        assert np.abs(got - a @ b).max() <= 1e-14
    # a complex matrix with zero imaginary part is stored real, so a real
    # operator's product with a real block stays real
    S = sp.random(6, 5, density=0.4, random_state=rng, format="csr").astype(complex)
    stored = SparseOperator(S, enumerate_basis(full_region(build_chain(2)), cap=1), False).matrix
    assert stored.dtype == np.float64
    assert _real_matmul(stored, x).dtype == np.float64
    assert np.abs(_real_matmul(stored, x) - S @ x).max() <= 1e-14
    S_complex = S + 1j * sp.random(6, 5, density=0.4, random_state=rng, format="csr")
    assert np.abs(_real_matmul(S_complex, x) - S_complex @ x).max() <= 1e-14


def shifted_operator(basis, parts, shift=0.0):
    """The real symmetric sum of ``parts`` (operators or sparse matrices)
    plus shift times the identity."""
    total = sum((p.matrix if isinstance(p, SparseOperator) else p) for p in parts)
    return SparseOperator((total + shift * sp.identity(basis.dimension)).tocsr(), basis, True)


def test_rotate_lower_takes_two_syrks_on_every_kind_of_spectrum(monkeypatch):
    """With the gate at one row, a 56-state sector block takes the SYRK
    route for an A whose shifted spectrum is all negative (1/(1+n), c = 1),
    all positive (n_x + 2, c = 2), of both signs (a hop, c = 0) and of both
    signs with c = 0.5 (two hops and a number on three sites): the lower
    triangle is within 1e-13 ||M|| of V^T M V, the upper one is never
    written, and the SYRK signs are the spectrum's: each batch of the
    factor takes one ``dsyrk`` per sign it holds, on at most
    PROPAGATE_CHUNK rows.  Below the gate, under a complex generator, and
    for a block that is not symmetric or whose components are too large,
    the block fits one panel of ``_rotate_panels`` and is ``rotate``'s
    result bit for bit."""
    g, _, basis, H = chain_model(6, sector=3, U=0.5)
    d = eigendecompose(H)
    sl = basis.sector_slices()[0][1]
    V = d.vectors[sl, sl]
    hop = local_observable(basis, {"kind": "normalized_hop", "sites": [2, 3]})
    hops = [hop, hop_term(basis, 4, 5).matrix, hop_term(basis, 5, 4).matrix]
    cases = [
        (local_observable(basis, {"kind": "number_function", "site": 2, "fn": "inv_one_plus_n"}), [-1.0]),
        (shifted_operator(basis, [number_operator(basis, 2)], 2.0), [1.0]),
        (hop, [1.0, -1.0]),
        (shifted_operator(basis, hops + [number_operator(basis, 0)], 0.5), [1.0, -1.0]),
    ]
    for A, _ in cases:
        assert np.array_equal(d.rotate_lower(A.matrix, sl), d.rotate(A.matrix, sl))
    syrk, signs, widths = dynamics.blas.dsyrk, [], []

    def spy(alpha, a, *args, **kwargs):
        signs.append(alpha)
        widths.append(a.shape[1])
        return syrk(alpha, a, *args, **kwargs)

    monkeypatch.setattr(dynamics, "SYRK_ROWS_MIN", 1)
    monkeypatch.setattr(dynamics.blas, "dsyrk", spy)
    for A, want_signs in cases:
        signs.clear()
        got = d.rotate_lower(A.matrix, sl)
        M = A.matrix.toarray().real
        assert sorted(set(signs), reverse=True) == want_signs
        assert max(widths) <= dynamics.PROPAGATE_CHUNK
        assert got.flags.f_contiguous and not np.triu(got, 1).any()
        assert np.abs(np.tril(got - V.T @ M[sl, sl] @ V)).max() <= 1e-13 * np.linalg.norm(M, 2)
    signs.clear()
    rng = np.random.default_rng(3)
    upper = np.triu(rng.standard_normal((56, 56)) * (rng.random((56, 56)) < 0.05))
    skew = SparseOperator(sp.csr_matrix(upper), basis, False)
    dense = SparseOperator(sp.csr_matrix(np.ones((56, 56))), basis, True)
    for A in (skew, dense):
        assert np.array_equal(d.rotate_lower(A.matrix, sl), d.rotate(A.matrix, sl))
    W = sp.diags(np.exp(1j * (basis.occupations @ rng.uniform(0.0, 2.0 * np.pi, 6))))
    d_gauge = eigendecompose(SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True))
    assert d_gauge.vectors.dtype == np.complex128
    assert np.array_equal(d_gauge.rotate_lower(hop.matrix, sl), d_gauge.rotate(hop.matrix, sl))
    assert signs == []
