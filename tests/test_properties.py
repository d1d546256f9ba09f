"""Property tests over random small lattices, couplings and sectors."""

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_dynamics import assert_same_bits, plain_eigendecompose, split_eigendecompose
from test_thermal import reference_two_point

from bosonlr import (
    GreenFunction,
    ModelParams,
    SparseOperator,
    StateVector,
    assemble_hamiltonian,
    assemble_hopping,
    build_chain,
    build_from_edges,
    build_grid,
    conserves_number,
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
    heisenberg_blocks,
    heisenberg_operator,
    hop_term,
    local_observable,
    number_operator,
    operator_norm,
    sandwich,
    two_point,
)
from bosonlr import dynamics, thermal
from bosonlr.dynamics import _krylov_evolve, _real_matmul, _sector_pairs
from bosonlr.lattice import Region
from bosonlr.operators import same_matrix

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


@settings(deadline=None)
@given(
    g=st.one_of(
        st.builds(build_chain, st.integers(2, 6)),
        st.builds(build_grid, st.sampled_from([(2, 2), (2, 3), (3, 2)])),
    ),
    n=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    offsite=st.floats(0.0, 1.0),
    gauge=st.booleans(),
    beta=st.floats(1.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mirror_split_matches_one_eigh_per_sector(g, n, grand, J, U, offsite, gauge, beta, seed):
    """Every sector with a mirror pair goes through the even/odd split
    (MIRROR_MIN lowered to 1), on chains and on grids (point inversion),
    canonical or capped grand-canonical, real or under a gauge transform
    whose phases are exactly mirror-symmetric (complex hopping that keeps
    the symmetry).  Against one eigh per sector: the spectrum, the
    eigen-residual, orthonormality, the block layout and (sector, energy)
    order, and thermal correlations and strip values."""
    region = full_region(g)
    basis = enumerate_sectors(region, n, cap=2) if grand else enumerate_basis(region, sector=n)
    H = assemble_hamiltonian(g, region, basis, ModelParams(hopping=J, onsite=U, offsite=(offsite,)))
    rng = np.random.default_rng(seed)
    if gauge:
        theta = rng.uniform(0.0, 2.0 * np.pi, g.n_vertices)
        occ = basis.occupations
        # a + b == b + a exactly, so a state and its mirror image share a phase
        phi = occ @ theta + occ[:, ::-1] @ theta
        W = sp.diags(np.exp(0.5j * phi))
        H = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    with mock.patch.object(dynamics, "MIRROR_MIN", 1):
        d = eigendecompose(H)
        assert_same_bits(d, split_eigendecompose(H))
    ref = plain_eigendecompose(H)
    assert d.vectors.dtype == ref.vectors.dtype
    Hd = H.to_dense()
    scale = max(1.0, float(np.abs(ref.energies).max()))
    assert np.array_equal(d.sectors, basis.totals)
    for _, sl in basis.sector_slices():
        assert np.abs(d.energies[sl] - np.linalg.eigvalsh(Hd[sl, sl])).max() <= 1e-12 * scale
        assert np.all(np.diff(d.energies[sl]) >= 0.0)
    V = d.vectors
    assert np.abs(Hd @ V - V * d.energies).max() <= 1e-12 * scale
    assert np.abs(V.conj().T @ V - np.eye(basis.dimension)).max() <= 1e-12
    assert not V[basis.totals[:, None] != basis.totals[None, :]].any()

    if grand:
        states = [gibbs_state(H, beta, -6.0, n, tail_tol=1.0, decomposition=x) for x in (d, ref)]
    else:
        states = [fixed_sector_gibbs(H, beta, x) for x in (d, ref)]
    A = unit_operator(basis, rng, conserving=True, hermitian=False)
    B = unit_operator(basis, rng, conserving=True, hermitian=True)
    times, points = [0.0, 0.8], [0.0, complex(0.6, -0.5 * beta), complex(-1.1, -beta)]
    split, single = (
        correlations(H, gam, [(A, B), (B, None)], times, x, "dense") for gam, x in zip(states, (d, ref))
    )
    for got, want in zip(split, single):
        assert np.abs(got - want).max() <= 1e-10
    got, want = (GreenFunction(gam, A, B).values(points) for gam in states)
    assert np.abs(got - want).max() <= 1e-10


@st.composite
def edge_graphs(draw):
    """A connected graph from an edge list: a random tree plus a few more
    edges (repeats allowed)."""
    n = draw(st.integers(2, 5))
    tree = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    return build_from_edges(n, tree + [(x, y) for x, y in extra if x != y])


@st.composite
def bases(draw, graphs=lattices):
    """A lattice and a basis on it: one sector, sectors 0..n_max, or (with
    a cap) every capped vector."""
    g = draw(graphs)
    cap = draw(st.one_of(st.none(), st.integers(1, 3)))
    kinds = ["sector", "n_max"] + (["cap"] if cap is not None and g.n_vertices <= 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "sector":
        return g, enumerate_basis(full_region(g), sector=draw(st.integers(0, 3)), cap=cap)
    if kind == "n_max":
        return g, enumerate_sectors(full_region(g), draw(st.integers(0, 3)), cap=cap)
    return g, enumerate_basis(full_region(g), cap=cap)


def reference_hops(basis, moves, scale):
    """The per-state dict loop the vectorised assembly replaced: for every
    state and every (src, dst) column pair, move one particle src -> dst and
    keep the move if the target is a basis state."""
    index = {tuple(int(v) for v in row): k for k, row in enumerate(basis.occupations)}
    occ = basis.occupations
    rows, cols, vals = [], [], []
    for pair in moves:
        for k in range(basis.dimension):
            for src, dst in pair:
                n_src = occ[k, src]
                if n_src == 0:
                    continue
                target = [int(v) for v in occ[k]]
                target[src] -= 1
                target[dst] += 1
                j = index.get(tuple(target))
                if j is None:
                    continue
                rows.append(j)
                cols.append(k)
                vals.append(scale * np.sqrt(n_src * (occ[k, dst] + 1.0)))
    mat = sp.csr_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)),
        shape=(basis.dimension, basis.dimension),
    )
    mat.sort_indices()
    return SparseOperator(mat, basis, False)


@settings(max_examples=40, deadline=None)
@given(gb=bases(), J=st.floats(0.1, 2.0), data=st.data())
def test_lookup_ranks_rows_and_hops_match_dict_loop(gb, J, data):
    g, basis = gb
    occ, D, cap = basis.occupations, basis.dimension, basis.site_cap
    assert np.array_equal(basis.lookup(occ), np.arange(D))
    if D == 0:
        return

    col = data.draw(st.integers(0, basis.n_sites - 1))
    bumped = occ.copy()
    bumped[:, col] += 1
    outside = basis.totals + 1 > basis.max_total
    if cap is not None:
        outside |= bumped[:, col] > cap
        past_cap = occ.copy()
        past_cap[:, col] = cap + 1
        assert (basis.lookup(past_cap) == -1).all()
    if basis.sector is not None:
        assert outside.all()
    assert np.array_equal(basis.lookup(bumped) == -1, outside)
    dropped = occ.copy()
    dropped[:, col] -= 1
    negative = occ[:, col] == 0
    assert (basis.lookup(dropped)[negative] == -1).all()

    sites = data.draw(st.sets(st.integers(0, g.n_vertices - 1), min_size=1))
    region = Region(tuple(sorted(sites)), g.graph_id)
    edges = [(x, y) for x, y in g.edges() if x in sites and y in sites]
    moves = [((y, x), (x, y)) for x, y in edges]
    for ordered, factor in ((False, 1.0), (True, 2.0)):
        got = assemble_hopping(g, region, basis, J=J, ordered=ordered)
        assert same_matrix(got, reference_hops(basis, moves, -J * factor))
    x, y = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=2, max_size=2, unique=True))
    assert same_matrix(hop_term(basis, x, y), reference_hops(basis, [((y, x),)], 1.0))
    assert same_matrix(hop_term(basis, y, x), reference_hops(basis, [((x, y),)], 1.0))


def random_operator(basis, rng, conserving, hermitian, real=False, density=0.3):
    """Random sparse operator on ``basis``: entries only inside sector blocks
    when ``conserving``, anywhere otherwise; ``density`` is the share of
    entries drawn, and ``real`` stores a zero imaginary part."""
    D = basis.dimension
    mask = rng.random((D, D)) < density
    if conserving:
        mask &= basis.totals[:, None] == basis.totals[None, :]
    values = rng.standard_normal((D, D)) + (0.0 if real else 1j * rng.standard_normal((D, D)))
    M = np.where(mask, values, 0.0 + 0.0j)
    if hermitian:
        M = M + M.conj().T
    return SparseOperator(sp.csr_matrix(M), basis, hermitian)


@settings(max_examples=30, deadline=None)
@given(
    gb=bases(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    t=st.floats(-2.0, 2.0),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_blocked_norm_and_heisenberg_operator_match_whole_matrix(gb, J, U, t, hermitian, seed):
    """operator_norm of a conserving operator (blocks by sector) against the
    dense 2-norm, and heisenberg_operator (sector pairs where A has entries)
    against V (P V^* A V P^*) V^* with P = diag(e^{iEt}), for a conserving A
    and a hermitian A with entries between sectors."""
    g, basis = gb
    assume(basis.dimension > 0)
    rng = np.random.default_rng(seed)
    conserving = random_operator(basis, rng, conserving=True, hermitian=hermitian)
    assert conserves_number(conserving)
    dense = conserving.to_dense()
    assert abs(operator_norm(conserving) - np.linalg.norm(dense, 2)) <= 1e-12 * np.linalg.norm(dense, 2)

    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    d = eigendecompose(H)
    V, P = d.vectors, np.exp(1j * d.energies * t)
    mixing = random_operator(basis, rng, conserving=False, hermitian=True)
    for A in (conserving, mixing):
        M = A.to_dense()
        expected = V @ ((P[:, None] * (V.conj().T @ M @ V)) * P.conj()) @ V.conj().T
        err = np.abs(heisenberg_operator(H, A, t, d) - expected).max()
        assert err <= 1e-12 * max(1.0, np.linalg.norm(M, 2))


@settings(max_examples=60, deadline=None)
@given(
    gb=bases(),
    conserving=st.booleans(),
    hermitian=st.booleans(),
    real=st.booleans(),
    density=st.sampled_from([0.02, 0.1, 0.3]),
    diagonal=st.booleans(),
    support=st.sampled_from([None, (0,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_norm_matches_dense_whatever_the_flags(gb, conserving, hermitian, real, density, diagonal, support, seed):
    """operator_norm reads the stored matrix and no flag: a random sparse
    operator, conserving or not, real or complex, with a missing or wrong
    support and a diagonal flag set at random, has the dense 2-norm, as an
    operator and as a bare matrix."""
    _, basis = gb
    assume(basis.dimension > 0)
    rng = np.random.default_rng(seed)
    op = random_operator(basis, rng, conserving, hermitian, real=real, density=density)
    op = replace(op, diagonal=diagonal, support=support)
    expected = np.linalg.norm(op.to_dense(), 2)
    assert abs(operator_norm(op) - expected) <= 1e-12 * expected
    assert abs(operator_norm(op.matrix) - expected) <= 1e-12 * expected


entry_values = st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)) | st.just(0j)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 12),
    entries=st.lists(st.tuples(st.integers(0, 11), entry_values), min_size=1, max_size=20),
    cancel=st.booleans(),
)
def test_diagonal_operator_norm_is_its_largest_entry(dim, entries, cancel):
    """A sparse matrix whose entries all sit on the diagonal, complex, zero
    and duplicated (duplicates add; ``cancel`` adds the negative of the
    first entry to its row), has the dense 2-norm."""
    rows = [i % dim for i, _ in entries]
    data = [v for _, v in entries]
    if cancel:
        rows.append(rows[0])
        data.append(-data[0])
    mat = sp.coo_matrix((np.array(data), (rows, rows)), shape=(dim, dim))
    expected = np.linalg.norm(mat.toarray(), 2)
    # duplicates may add in another order than toarray's
    assert abs(operator_norm(mat) - expected) <= 1e-12 * (1.0 + np.abs(data).sum())


time_grids = st.one_of(
    # a grid equal to its linspace takes scipy's time-grid algorithm
    st.builds(
        lambda a, n: [a + 0.25 * k for k in range(n)],
        st.sampled_from([-1.0, -0.5, 0.0, 0.25]),
        st.integers(2, 5),
    ),
    # any other list is propagated one time at a time
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
)


def rotate_phase_back_rotate(d, A, t):
    """Dense e^{iHt} A e^{-iHt} by the formula applied at each time: per
    sector pair where A has entries, rotate A into the eigenbasis, apply
    the phases and rotate back."""
    phases = np.exp(1j * d.energies * t)
    slices = dict(d.sector_slices())
    out = np.zeros((d.dimension, d.dimension), dtype=np.complex128)
    for m, n in _sector_pairs(A.matrix, d.basis):
        sm, sn = slices[m], slices[n]
        evolved = (phases[sm, None] * d.rotate(A.matrix, sm, sn)) * phases[sn].conj()
        Vm, Vn = d.vectors[sm, sm], d.vectors[sn, sn]
        out[sm, sn] = _real_matmul(_real_matmul(Vm, evolved), Vn.conj().T)
    return out


@settings(max_examples=30, deadline=None)
@given(
    gb=bases(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    gauge=st.booleans(),
    times=time_grids,
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_heisenberg_blocks_scatter_to_heisenberg_operator_bitwise(gb, J, U, gauge, times, data, seed):
    """``heisenberg_blocks`` rotates A once and applies the phases per time;
    scattered into a D x D array it gives ``heisenberg_operator`` at every
    time of the grid, and that gives the rotate -> phase -> back-rotate
    formula, bit for bit, for a real generator and a gauge-complex one,
    with a diagonal A, a normalized hop and a sector-mixing A."""
    g, basis = gb
    assume(basis.dimension > 0)
    rng = np.random.default_rng(seed)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    if gauge:
        theta = rng.uniform(0.0, 2.0 * np.pi, g.n_vertices)
        W = sp.diags(np.exp(1j * (basis.occupations @ theta)))
        H = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    d = eigendecompose(H)
    x, y = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=2, max_size=2, unique=True))
    observables = [
        local_observable(basis, {"kind": "number_function", "site": x, "fn": "inv_one_plus_n"}),
        local_observable(basis, {"kind": "normalized_hop", "sites": [x, y]}),
        random_operator(basis, rng, conserving=False, hermitian=data.draw(st.booleans())),
    ]
    slices = dict(d.sector_slices())
    for A in observables:
        evolved = heisenberg_blocks(H, A, times, d)
        assert len(evolved) == len(times)
        for t, blocks in zip(times, evolved):
            assert sorted(blocks) == _sector_pairs(A.matrix, basis)
            scattered = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
            for (m, n), block in blocks.items():
                scattered[slices[m], slices[n]] = block
            dense = heisenberg_operator(H, A, t, d)
            assert np.array_equal(scattered, dense)
            assert np.array_equal(dense, rotate_phase_back_rotate(d, A, t))


@settings(max_examples=30, deadline=None)
@given(
    gb=bases(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    times=time_grids,
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_propagation_matches_oracle(gb, J, U, times, seed):
    """The spectral propagator (sector-blocked eigenbasis) against the
    sparse one (scipy's expm_multiply, no decomposition) on a random block
    of columns, at every time of a uniform or an arbitrary time list."""
    g, basis = gb
    assume(basis.dimension > 0)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    d = eigendecompose(H)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((basis.dimension, 3)) + 1j * rng.standard_normal((basis.dimension, 3))
    evolved = _krylov_evolve(H.matrix, X, times)
    scale = max(1.0, float(np.abs(d.energies).max()))
    for t, got in zip(times, evolved):
        assert np.abs(got - d.propagate_block(X, t)).max() <= 1e-11 * scale * max(1.0, abs(t))


@settings(max_examples=25, deadline=None)
@given(
    g=lattices,
    n=st.integers(1, 3),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(0.2, 2.0),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kms_boundary_residuals_on_random_thermal_states(g, n, J, U, beta, hermitian, seed):
    """F(t) = gamma(tau_t(A) B) and F(t - i beta) = gamma(B tau_t(A)) for
    random conserving A and B, the strip sum (as one array and point by
    point) against time evolution, and the state is stationary:
    gamma(tau_t(A)) = gamma(A).  For a hermitian pair the strip function
    reflects: F(t - i (beta - s)) = conj F(t - i s)."""
    basis = enumerate_basis(full_region(g), sector=n)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    gam = fixed_sector_gibbs(H, beta)
    rng = np.random.default_rng(seed)

    def unit(op):
        norm = operator_norm(op)
        assume(norm > 0.0)
        return SparseOperator(op.matrix / norm, basis, op.hermitian)

    A = unit(random_operator(basis, rng, conserving=True, hermitian=True))
    B = unit(random_operator(basis, rng, conserving=True, hermitian=hermitian))
    times = [0.0, 0.5, 1.0]
    ab, ba, plain = evolved_two_points(gam, [(A, B)], times)
    boundary = [complex(t, 0.0) for t in times] + [complex(t, -beta) for t in times]
    gf = GreenFunction(gam, A, B)
    pointwise = GreenFunction(gam, A, B)
    for F in (gf.values(boundary), np.array([pointwise(z) for z in boundary])):
        assert np.abs(F[:3] - ab[0]).max() < 1e-9
        assert np.abs(F[3:] - ba[0]).max() < 1e-9
    assert np.abs(plain[0] - expectation(gam, A)).max() < 1e-9
    if hermitian:
        t, s = rng.uniform(-2.0, 2.0), rng.uniform(0.0, beta)
        assert abs(gf(complex(t, -(beta - s))) - np.conj(gf(complex(t, -s)))) <= 1e-12


def full_pattern_operator(basis, rng):
    """A hermitian operator with every entry of every sector block stored
    and a random diagonal: every row is active whatever the shift."""
    D = basis.dimension
    M = np.where(basis.totals[:, None] == basis.totals[None, :], rng.standard_normal((D, D)), 0.0)
    return SparseOperator(sp.csr_matrix((M + M.T).astype(complex)), basis, True)


@settings(max_examples=40, deadline=None)
@given(
    gb=bases(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    gauge=st.booleans(),
    cut=st.integers(1, 40),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_active_row_rotation_matches_dense_rotation(gb, J, U, gauge, cut, data, seed):
    """``rotate`` against the dense V_m^* M V_n within 1e-13 ||M|| for a
    diagonal A (mostly 1), a normalized hop, a sector-mixing A and a
    full-pattern A, on every sector pair where A has entries and on the
    whole matrix, under a real and a gauge-complex generator, with
    ``ACTIVE_ROWS_MIN`` drawn so that blocks fall on both sides of it.
    The rows R and the shift c are found here from the dense block.  A
    block below the cut, or with every row active, has the bits of the
    plain formula; any other has the bits of V_m[R]^* ((M - cI)[R] V_n) + cI."""
    g, basis = gb
    assume(basis.dimension > 0)
    rng = np.random.default_rng(seed)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    if gauge:
        theta = rng.uniform(0.0, 2.0 * np.pi, g.n_vertices)
        W = sp.diags(np.exp(1j * (basis.occupations @ theta)))
        H = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    d = eigendecompose(H)
    x, y = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=2, max_size=2, unique=True))
    observables = [
        local_observable(basis, {"kind": "number_function", "site": x, "fn": "inv_one_plus_n"}),
        local_observable(basis, {"kind": "normalized_hop", "sites": [x, y]}),
        random_operator(basis, rng, conserving=False, hermitian=data.draw(st.booleans())),
        full_pattern_operator(basis, rng),
    ]
    slices = dict(d.sector_slices())
    with mock.patch.object(dynamics, "ACTIVE_ROWS_MIN", cut):
        for A in observables:
            dense = A.matrix.toarray()
            norm = float(np.linalg.norm(dense, 2))
            blocks = [(slices[m], slices[n]) for m, n in _sector_pairs(A.matrix, basis)]
            for rows, cols in blocks + [(slice(None), slice(None))]:
                got = d.rotate(A.matrix, rows, cols)
                Vm, Vn = d.vectors[rows, rows], d.vectors[cols, cols]
                assert np.abs(got - Vm.conj().T @ dense[rows, cols] @ Vn).max() <= 1e-13 * norm
                block = dense[rows, cols]
                c = 0.0
                if rows == cols:
                    values, counts = np.unique(np.diag(block), return_counts=True)
                    mode = values[np.argmax(counts)]
                    c = float(mode.real) if mode.imag == 0 else 0.0
                R = np.flatnonzero((block - c * np.eye(*block.shape)).any(axis=1))
                sparse_block = A.matrix[rows, cols]
                if min(block.shape) < cut or R.size == block.shape[0]:
                    want = _real_matmul(Vm.conj().T, _real_matmul(sparse_block, Vn))
                else:
                    shifted = sparse_block - c * sp.identity(block.shape[0], format="csr") if c else sparse_block
                    want = _real_matmul(Vm[R].conj().T, _real_matmul(shifted.tocsr()[R], Vn))
                    if c:
                        want[np.diag_indices(block.shape[0])] += c
                assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    gb=bases(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    shift=st.sampled_from([0.0, 1.0, -2.5]),
    sign=st.sampled_from([1.0, -1.0, 0.0]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_syrk_lower_triangle_matches_dense_rotation(gb, J, U, shift, sign, data, seed):
    """``rotate_lower`` with ``SYRK_ROWS_MIN`` at one row, on every sector
    block, against the lower triangle of the dense V^T M V within
    1e-13 ||M||: a diagonal A that is the shift c on about half the rows
    and c plus positive, negative or mixed values on the rest, a hop on
    (x, y) plus c I, and that hop, a raw hop on (y, z) (on (x, y) for two
    sites) and the number on x plus c I.  A block
    the SYRK route does not take (a small one whose components cost too
    much) has ``rotate``'s bits."""
    g, basis = gb
    D = basis.dimension
    assume(D > 0)
    rng = np.random.default_rng(seed)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    d = eigendecompose(H)
    sites = data.draw(st.permutations(range(g.n_vertices)))
    x, y, z = sites[0], sites[1], sites[-1]
    signs = sign if sign else rng.choice([-1.0, 1.0], D)
    values = np.where(rng.random(D) < 0.5, signs * rng.uniform(0.5, 2.0, D), 0.0)
    identity = sp.identity(D, format="csr")
    hop = local_observable(basis, {"kind": "normalized_hop", "sites": [x, y]}).matrix
    far = (y, z) if z != y else (x, y)
    pair = hop_term(basis, *far).matrix + hop_term(basis, *far[::-1]).matrix
    observables = [
        sp.diags(shift + values).tocsr(),
        (hop + shift * identity).tocsr(),
        (pair + 2.0 * hop + number_operator(basis, x).matrix + shift * identity).tocsr(),
    ]
    with mock.patch.object(dynamics, "SYRK_ROWS_MIN", 1):
        for M in observables:
            dense = M.toarray().real
            norm = float(np.linalg.norm(dense, 2))
            for _, sl in d.sector_slices():
                V = d.vectors[sl, sl]
                got = d.rotate_lower(M, sl)
                assert np.abs(np.tril(got - V.T @ dense[sl, sl] @ V)).max() <= 1e-13 * norm
                if np.triu(got, 1).any():
                    assert np.array_equal(got, d.rotate(M, sl))


def complex_point(gf, z):
    """F(z) by the complex strip formula: bra = e^{-(beta - s) g} e^{iEt}
    and ket = e^{-s g} e^{-iEt}, summed as bra . (C @ ket) per block.
    Returns the value and the sum of the absolute terms, its scale.  A
    real hermitian pair stores the lower triangle of C alone, which is
    mirrored into a full matrix here."""
    t, s = z.real, -z.imag
    state, stop = gf.state, gf._stop
    phase = np.exp(-1j * state.decomp.energies[:stop] * t)
    bra = np.exp(-state.shifted[:stop] * (gf.beta - s)) * phase.conj()
    ket = np.exp(-state.shifted[:stop] * s) * phase
    value = scale = 0.0
    for rows, C in gf._blocks:
        if gf._real:
            C = np.tril(C) + np.tril(C, -1).T
        value += bra[rows] @ (C @ ket[rows])
        scale += np.abs(bra[rows]) @ (np.abs(C) @ np.abs(ket[rows]))
    return value / state.z_scaled, scale / state.z_scaled


@settings(max_examples=30, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(1.0, 2.0),
    local=st.booleans(),
    merge=st.sampled_from([0, 5, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_arithmetic_strip_point_matches_complex_formula(g, n_max, grand, J, U, beta, local, merge, seed):
    """One strip point of a real hermitian pair, summed from cos, sin and
    two ``dsymv`` calls per block in real arithmetic, against the complex
    bra . C ket formula within 1e-14 of the sum of the absolute terms, on
    both strip edges and inside, at negative, zero and positive t.  C is
    built with ``SYRK_ROWS_MIN`` at one row, so a local pair (a hop and
    1/(1+n)) takes the SYRK route, and with sector blocks merged up to
    ``MERGE_ROWS_MAX`` = 0 (none), 5 or 256 rows."""
    region = full_region(g)
    basis = enumerate_sectors(region, n_max, cap=2) if grand else enumerate_basis(region, sector=n_max)
    H = assemble_hamiltonian(g, region, basis, ModelParams(hopping=J, onsite=U))
    gam = gibbs_state(H, beta, -6.0, n_max, tail_tol=1.0) if grand else fixed_sector_gibbs(H, beta)
    rng = np.random.default_rng(seed)
    if local:
        x, y = rng.permutation(g.n_vertices)[:2]
        A = local_observable(basis, {"kind": "normalized_hop", "sites": [int(x), int(y)]})
        B = local_observable(basis, {"kind": "number_function", "site": int(y), "fn": "inv_one_plus_n"})
    else:
        A, B = (random_operator(basis, rng, conserving=True, hermitian=True, real=True) for _ in range(2))
    with mock.patch.object(dynamics, "SYRK_ROWS_MIN", 1), mock.patch.object(thermal, "MERGE_ROWS_MAX", merge):
        gf = GreenFunction(gam, A, B)
    assert gf._real
    ts, ss = rng.uniform(-2.0, 2.0, 4), rng.uniform(0.0, beta, 4)
    points = [complex(t, -s) for t, s in zip(ts, ss)] + [complex(-1.3, 0.0), complex(0.0, -0.4 * beta)]
    points += [complex(0.8, -beta), 0.0]
    for z in points:
        want, scale = complex_point(gf, z)
        assert abs(gf(z) - want) <= 1e-14 * scale


def unit_operator(basis, rng, conserving, hermitian):
    """``random_operator`` scaled to Frobenius norm 1, so its operator norm
    is at most 1."""
    op = random_operator(basis, rng, conserving, hermitian)
    norm = np.linalg.norm(op.matrix.data)
    return SparseOperator(op.matrix / norm if norm else op.matrix, basis, hermitian)


any_times = st.one_of(
    time_grids,
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4).map(lambda ts: sorted(ts, reverse=True)),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(lambda ts: [ts[0], ts[0], ts[1], ts[0]]),
)


@settings(max_examples=30, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    cap=st.one_of(st.none(), st.integers(1, 2)),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(1.0, 2.0),
    pure=st.booleans(),
    kinds=st.lists(st.sampled_from(["hermitian", "non-hermitian", "mixing", None]), min_size=1, max_size=3),
    times=any_times,
    seed=st.integers(0, 2**32 - 1),
)
def test_correlation_routes_match_eigenvector_loop(g, n_max, cap, J, U, beta, pure, kinds, times, seed):
    """``correlations`` on its dense route (the spectral sum for a thermal
    state, one propagate_block call per time for a pure one) against its
    sparse route (expm_multiply over the grid) and the
    one-column-at-a-time reference, for a pure or a thermal state evolved
    under a quench generator, on uniform, arbitrary, descending and
    repeated time lists."""
    basis = enumerate_sectors(full_region(g), n_max, cap=cap)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    G = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=1.0, onsite=U + 0.5))
    dG = eigendecompose(G)
    rng = np.random.default_rng(seed)
    if pure:
        amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        state = StateVector(basis, amps / np.linalg.norm(amps))
        # the reference reads weights and columns only
        columns = SimpleNamespace(weights=np.ones(1), decomp=SimpleNamespace(vectors=state.amplitudes[:, None]))
    else:
        # a cap can leave the top sectors empty
        state = columns = gibbs_state(H, beta, -6.0, int(basis.totals.max()), tail_tol=1.0)
    B_of = {
        "hermitian": lambda: unit_operator(basis, rng, conserving=True, hermitian=True),
        "non-hermitian": lambda: unit_operator(basis, rng, conserving=True, hermitian=False),
        "mixing": lambda: unit_operator(basis, rng, conserving=False, hermitian=bool(rng.integers(2))),
        None: lambda: None,
    }
    pairs = [(unit_operator(basis, rng, conserving=False, hermitian=False), B_of[kind]()) for kind in kinds]
    dense = correlations(G, state, pairs, times, dG, engine="dense")
    sparse = correlations(G, state, pairs, times, engine="krylov")
    for got, want in zip(dense, sparse):
        assert got.shape == (len(pairs), len(times))
        assert np.abs(got - want).max() <= 1e-10
    ab, ba, plain = dense
    for p, (A, B) in enumerate(pairs):
        for i, t in enumerate(times):
            assert abs(ab[p, i] - reference_two_point(columns, A, B, t, "AB", dG)) <= 1e-10
            assert abs(ba[p, i] - reference_two_point(columns, A, B, t, "BA", dG)) <= 1e-10
            assert abs(plain[p, i] - reference_two_point(columns, A, None, t, "AB", dG)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(1.0, 2.0),
    conserving=st.booleans(),
    times=any_times,
    seed=st.integers(0, 2**32 - 1),
)
def test_thermal_spectral_sum_identities(g, n_max, grand, J, U, beta, conserving, times, seed):
    """The dense thermal route of ``correlations``, on a grand-canonical or
    a fixed-sector state: the state's own decomposition and a freshly
    recomputed, equal one give the same values; under the state's own
    Hamiltonian the plain value is constant over the grid; and for exactly
    hermitian A and B, gamma(B tau_t(A)) = conj gamma(tau_t(A) B)."""
    region = full_region(g)
    basis = enumerate_sectors(region, n_max) if grand else enumerate_basis(region, sector=n_max)
    H = assemble_hamiltonian(g, region, basis, ModelParams(hopping=J, onsite=U))
    gam = gibbs_state(H, beta, -6.0, n_max, tail_tol=1.0) if grand else fixed_sector_gibbs(H, beta)
    rng = np.random.default_rng(seed)
    A = unit_operator(basis, rng, conserving=conserving, hermitian=True)
    B = unit_operator(basis, rng, conserving=conserving, hermitian=True)
    pairs = [(A, B), (A, None)]
    own = correlations(H, gam, pairs, times, gam.decomp, "dense")
    fresh = correlations(H, gam, pairs, times, eigendecompose(H), "dense")
    for got, want in zip(own, fresh):
        assert np.abs(got - want).max() <= 1e-12
    ab, ba, plain = own
    assert np.abs(plain - plain[:, :1]).max() <= 1e-12
    assert np.abs(ba[0] - np.conj(ab[0])).max() <= 1e-12


any_graphs = st.one_of(lattices, edge_graphs())


@settings(max_examples=40, deadline=None)
@given(
    gb=bases(any_graphs),
    J=st.floats(0.1, 2.0),
    U=st.floats(0.0, 2.0),
    offsite=st.lists(st.floats(-1.0, 1.0), max_size=2),
)
def test_assembled_hamiltonian_is_hermitian_and_conserves_number(gb, J, U, offsite):
    """On random chain, grid and edge-list graphs, with and without a site
    cap, H is hermitian entry by entry as stored and has no entry between
    sectors."""
    g, basis = gb
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U, offsite=tuple(offsite)))
    dense = H.to_dense()
    assert H.hermitian and np.array_equal(dense, dense.conj().T)
    assert conserves_number(H)


@settings(max_examples=30, deadline=None)
@given(gb=bases(any_graphs), J=st.floats(0.1, 2.0), U=st.floats(0.0, 2.0), data=st.data())
def test_inactive_cutoff_leaves_hamiltonian_unchanged(gb, J, U, data):
    """P H P = H for the cutoff projection at any level lam >= the site cap
    (with no cap: at or above the largest occupation), on any region."""
    g, basis = gb
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    cap = basis.site_cap if basis.site_cap is not None else basis.max_total
    lam = data.draw(st.integers(cap, cap + 2))
    sites = data.draw(st.sets(st.integers(0, g.n_vertices - 1), min_size=1))
    region = Region(tuple(sorted(sites)), g.graph_id)
    assert same_matrix(sandwich(cutoff_projection(basis, region, lam), H), H)
