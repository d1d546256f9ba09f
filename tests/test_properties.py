"""Property tests over random small lattices, couplings and sectors."""

from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
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
    binomial_inverse_moment,
    build_chain,
    build_from_edges,
    build_grid,
    commutator,
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
    hop_term,
    identity_operator,
    local_observable,
    number_moment,
    number_operator,
    operator_norm,
    sandwich,
    total_number,
)
from bosonlr import dynamics
from bosonlr.dynamics import CORRELATION_ARRAYS, _krylov_evolve, _real_matmul
from bosonlr.experiments import _binomial_direct
from bosonlr.lattice import Region
from bosonlr.operators import same_matrix, zero_operator

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
    value = correlations(H, gam, [(A, B)], [0.9], d, "dense", want=("ab", "ba"))
    value_gauge = correlations(H_gauge, gam_gauge, [(A, B)], [0.9], d_gauge, "dense", want=("ab", "ba"))
    assert np.abs(np.subtract(value, value_gauge)).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    g=lattices,
    n=st.integers(1, 3),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    p=st.floats(1.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_operators_are_stored_real_unless_an_entry_is_complex(g, n, J, U, p, seed):
    """Every operator the package builds on a real model holds float64
    data, whatever the dtype of what it was built from (int- and
    bool-valued observable functions, complex64 and int32 matrices); a
    gauge-transformed H with complex hopping holds complex128, and the
    eigenvectors follow the matrix's dtype."""
    region = full_region(g)
    basis = enumerate_sectors(region, n, cap=2)
    rng = np.random.default_rng(seed)
    x, y = (int(v) for v in rng.choice(g.n_vertices, size=2, replace=False))
    H = assemble_hamiltonian(g, region, basis, ModelParams(hopping=J, onsite=U))
    hop = hop_term(basis, x, y)
    P = cutoff_projection(basis, Region((x,), g.graph_id), 1)
    built = [
        H,
        hop,
        number_operator(basis, x),
        number_moment(basis, x, p),
        total_number(basis),
        total_number(basis, Region((x, y), g.graph_id)),
        P,
        identity_operator(basis),
        zero_operator(basis),
        local_observable(basis, {"kind": "number_function", "site": x, "fn": "inv_one_plus_n"}),
        local_observable(basis, {"kind": "number_function", "site": x, "fn": [1.0, 0.5, 0.25]}),
        local_observable(basis, {"kind": "number_function", "site": x, "fn": lambda k: 3 - k}),
        local_observable(basis, {"kind": "number_function", "sites": [x, y], "fn": lambda a, b: a * b}),
        local_observable(basis, {"kind": "number_function", "site": x, "fn": lambda k: k == 1}),
        local_observable(basis, {"kind": "indicator", "site": x, "level": 1}),
        local_observable(basis, {"kind": "normalized_hop", "sites": [x, y]}),
        sandwich(P, H),
        commutator(H, hop),
        commutator(number_operator(basis, x), P),
        H @ hop,
        SparseOperator(H.matrix.astype(np.complex64), basis, True),
        SparseOperator(hop.matrix.astype(np.int32), basis, False),
    ]
    for op in built:
        assert op.matrix.dtype == np.float64
    assert eigendecompose(H).vectors.dtype == np.float64

    theta = rng.uniform(0.0, 2.0 * np.pi, g.n_vertices)
    W = sp.diags(np.exp(1j * (basis.occupations @ theta)))
    gauged = (W @ H.matrix @ W.conj().T).tocsr()
    assume(gauged.data.imag.any())
    H_gauge = SparseOperator(gauged, basis, True)
    assert H_gauge.matrix.dtype == np.complex128
    assert (H_gauge @ hop).matrix.dtype == np.complex128
    assert eigendecompose(H_gauge).vectors.dtype == np.complex128


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
    assert same_matrix(assemble_hopping(g, region, basis, J=J), reference_hops(basis, moves, -J))
    x, y = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=2, max_size=2, unique=True))
    assert same_matrix(hop_term(basis, x, y), reference_hops(basis, [((y, x),)], 1.0))
    assert same_matrix(hop_term(basis, y, x), reference_hops(basis, [((x, y),)], 1.0))


def random_operator(basis, rng, conserving, hermitian, real=False, density=0.3):
    """Random sparse operator on ``basis``: entries only inside sector blocks
    when ``conserving``, anywhere otherwise; ``density`` is the share of
    entries drawn, and ``real`` stores a zero imaginary part.  It is what
    its flags name: on a basis with a pair of states it may couple, one
    such off-diagonal entry is always drawn, and its transpose is not, so
    a complex operator stores an off-diagonal imaginary entry (hermitian
    or not) and a non-hermitian one an asymmetric entry; on any other
    nonempty basis the first diagonal entry is drawn.  It is never zero."""
    D = basis.dimension
    allowed = np.ones((D, D), dtype=bool)
    if conserving:
        allowed = basis.totals[:, None] == basis.totals[None, :]
    mask = (rng.random((D, D)) < density) & allowed
    values = rng.standard_normal((D, D)) + (0.0 if real else 1j * rng.standard_normal((D, D)))
    off = np.argwhere(allowed & ~np.eye(D, dtype=bool))
    if len(off):
        i, j = off[rng.integers(len(off))]
        mask[i, j], mask[j, i] = True, False
    elif D:
        mask[0, 0] = True
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
    dense 2-norm, and the Heisenberg operator (the blocks of
    ``heisenberg_blocks`` on the sector pairs where A has entries, zero
    elsewhere) against V (P V^* A V P^*) V^* with P = diag(e^{iEt}), for a
    conserving A and a hermitian A with entries between sectors."""
    g, basis = gb
    assume(basis.dimension > 0)
    rng = np.random.default_rng(seed)
    conserving = random_operator(basis, rng, conserving=True, hermitian=hermitian)
    assert conserves_number(conserving)
    dense = conserving.to_dense()
    assert abs(operator_norm(conserving) - np.linalg.norm(dense, 2)) <= 1e-12 * np.linalg.norm(dense, 2)

    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    d = eigendecompose(H)
    V, P, slices = d.vectors, np.exp(1j * d.energies * t), dict(d.sector_slices())
    mixing = random_operator(basis, rng, conserving=False, hermitian=True)
    for A in (conserving, mixing):
        M = A.to_dense()
        expected = V @ ((P[:, None] * (V.conj().T @ M @ V)) * P.conj()) @ V.conj().T
        evolved = np.zeros_like(expected)
        for (m, n), block in heisenberg_blocks(H, A, [t], d)[0].items():
            evolved[slices[m], slices[n]] = block
        err = np.abs(evolved - expected).max()
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
    the phases and rotate back; for an A stored exactly hermitian, each
    diagonal block X is then replaced by (X + X^*)/2."""
    phases = np.exp(1j * d.energies * t)
    slices = dict(d.sector_slices())
    dense = A.to_dense()
    hermitian = np.array_equal(dense, dense.conj().T)
    out = np.zeros((d.dimension, d.dimension), dtype=np.complex128)
    for (m, n), block in A.blocks.items():
        sm, sn = slices[m], slices[n]
        evolved = (phases[sm, None] * d.rotate(block, m, n)) * phases[sn].conj()
        Vm, Vn = d.vectors[sm, sm], d.vectors[sn, sn]
        X = _real_matmul(_real_matmul(Vm, evolved), Vn.conj().T)
        out[sm, sn] = (X + X.conj().T) / 2 if hermitian and m == n else X
    return out


@settings(max_examples=60, deadline=None)
@given(
    gb=bases(),
    conserving=st.booleans(),
    real=st.booleans(),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sector_pairs_match_the_two_column_unique(gb, conserving, real, density, seed):
    """``SparseOperator.blocks`` keys each stored entry by row total *
    (max total + 1) + column total and takes a 1-D unique: the same pairs
    in the same order as the two-column ``np.unique(..., axis=0)`` of the
    totals, for a real or complex, conserving or sector-mixing operator.
    Each block stores exactly the entries of ``matrix[sl_m, sl_n]`` in the
    same order, and on a single-sector basis the one block is ``matrix``
    itself."""
    _, basis = gb
    assume(basis.dimension > 0)
    rng = np.random.default_rng(seed)
    A = random_operator(basis, rng, conserving=conserving, hermitian=False, real=real, density=density)
    coo = A.matrix.tocoo()
    stacked = np.column_stack([basis.totals[coo.row], basis.totals[coo.col]])
    assert list(A.blocks) == [(int(m), int(n)) for m, n in np.unique(stacked, axis=0)]
    slices = dict(basis.sector_slices())
    for (m, n), block in A.blocks.items():
        want = A.matrix[slices[m], slices[n]]
        assert block.dtype == A.matrix.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, name), getattr(want, name))
    if len(slices) == 1:
        ((_, block),) = A.blocks.items()
        assert block is A.matrix


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
    scattered into a D x D array it gives the Heisenberg operator of the
    rotate -> phase -> back-rotate formula at every time of the grid, bit
    for bit, for a real generator and a gauge-complex one, with a diagonal
    A, a normalized hop and a sector-mixing A.  For a hermitian A each
    diagonal block equals its conjugate transpose bit for bit, as
    tau_t(A) is hermitian."""
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
            assert sorted(blocks) == list(A.blocks)
            scattered = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
            for (m, n), block in blocks.items():
                scattered[slices[m], slices[n]] = block
                if m == n and A.hermitian:
                    assert np.array_equal(block, block.conj().T)
            assert np.array_equal(scattered, rotate_phase_back_rotate(d, A, t))


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


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 100),
    p=st.one_of(st.floats(1e-15, 1.0), st.floats(-15.0, 0.0).map(lambda e: 10.0**e)),
)
def test_binomial_inverse_moment_matches_the_direct_sum(m, p):
    """E[1/(1+X)] for X ~ Binomial(m, p) against the term-by-term sum
    within a relative 1e-12, down to p = 1e-15, where 1 - (1 - p)^(m+1)
    in floating point keeps almost no correct digit."""
    want = _binomial_direct(m, p)
    assert abs(binomial_inverse_moment(m, p) - want) <= 1e-12 * want


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
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_active_row_rotation_matches_dense_rotation(gb, J, U, gauge, data, seed):
    """``rotate`` against the dense V_m^* M V_n within 1e-13 ||M|| for a
    diagonal A (mostly 1, so few rows active), a normalized hop, a
    sector-mixing A and a full-pattern A (every row active), on every
    block of ``A.blocks`` (on a single-sector basis the whole matrix),
    under a real and a gauge-complex generator; every block has the bits
    of the plain formula V_m^* (M V_n) on the sliced block."""
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
    for A in observables:
        dense = A.matrix.toarray()
        norm = float(np.linalg.norm(dense, 2))
        for (m, n), block in A.blocks.items():
            rows, cols = slices[m], slices[n]
            got = d.rotate(block, m, n)
            Vm, Vn = d.vectors[rows, rows], d.vectors[cols, cols]
            assert np.abs(got - Vm.conj().T @ dense[rows, cols] @ Vn).max() <= 1e-13 * norm
            want = _real_matmul(Vm.conj().T, _real_matmul(A.matrix[rows, cols], Vn))
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
    """``strip_block``'s lower triangle with ``SYRK_ROWS_MIN`` at one row,
    on every sector block, against that of the dense V^T M V o V^T N V
    within 2e-13 ||M|| ||N||, for M each of, and N the next of: a
    diagonal that is the shift c on about half the rows and c plus
    positive, negative or mixed values on the rest, a hop on (x, y) plus
    c I, and that hop, a raw hop on (y, z) (on (x, y) for two sites) and
    the number on x plus c I.  M takes the ``dsyrk`` route and N the
    factor's panels, so each observable takes both.  Where neither
    is factored (a small block whose components cost too much), both are
    filled from ``_rotate_panels``: within one panel C has the bits of
    ``rotate(M) o rotate(N)``."""
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
        for M, N in zip(observables, observables[1:] + observables[:1]):
            dense, other = M.toarray().real, N.toarray().real
            scale = 2e-13 * np.linalg.norm(dense, 2) * np.linalg.norm(other, 2)
            for n, sl in d.sector_slices():
                V, Mn, Nn = d.vectors[sl, sl], M[sl, sl], N[sl, sl]
                got = d.strip_block(Mn, Nn, n, True)
                want = (V.T @ dense[sl, sl] @ V) * (V.T @ other[sl, sl] @ V)
                assert np.abs(np.tril(got - want)).max() <= scale
                unfactored = d._syrk_factor(Mn, n) is None and d._syrk_factor(Nn, n) is None
                if unfactored and V.shape[0] <= dynamics.PROPAGATE_CHUNK:
                    assert np.array_equal(got, d.rotate(Mn, n) * d.rotate(Nn, n))


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
    seed=st.integers(0, 2**32 - 1),
)
def test_real_arithmetic_strip_point_matches_complex_formula(g, n_max, grand, J, U, beta, local, seed):
    """One strip point of a real hermitian pair, summed from cos, sin and
    two ``dsymv`` calls per block in real arithmetic, against the complex
    bra . C ket formula within 1e-14 of the sum of the absolute terms, on
    both strip edges and inside, at negative, zero and positive t.  C is
    built with ``SYRK_ROWS_MIN`` at one row, so a local pair (a hop and
    1/(1+n)) takes the SYRK route, one block per included sector."""
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
    with mock.patch.object(dynamics, "SYRK_ROWS_MIN", 1):
        gf = GreenFunction(gam, A, B)
    assert gf._real
    assert [rows for rows, _ in gf._blocks] == [sl for _, sl in gam.included_slices()]
    ts, ss = rng.uniform(-2.0, 2.0, 4), rng.uniform(0.0, beta, 4)
    points = [complex(t, -s) for t, s in zip(ts, ss)] + [complex(-1.3, 0.0), complex(0.0, -0.4 * beta)]
    points += [complex(0.8, -beta), 0.0]
    for z in points:
        want, scale = complex_point(gf, z)
        assert abs(gf(z) - want) <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    pair=st.sampled_from(["local", "random", "complex", "non-hermitian"]),
    syrk=st.booleans(),
    width=st.integers(1, 9),
    gauge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# a generator that could draw A = diag(0, 0.297) and B = 0 sent this
# "complex" pair down the real route
@example(g=build_chain(2), n_max=1, grand=False, J=1.0, U=0.0, pair="complex", syrk=False, width=1, gauge=False, seed=4)
def test_panel_built_strip_matrix_matches_two_rotations(g, n_max, grand, J, U, pair, syrk, width, gauge, seed):
    """Each block of ``GreenFunction``'s C, formed in A~'s buffer one column
    panel of B~ at a time, against C = A~ o B~^T from two whole rotations
    (``rotate``) within 1e-14 ||A|| ||B||: the lower triangle for a real
    hermitian pair (a local pair, a random real pair), all of C for a
    complex, non-hermitian or gauge-complex one.  ``SYRK_ROWS_MIN`` at one
    row sends every real block with a cheap factor through the SYRK
    route (grouped ``dsyrk`` for A, panels from the whole factor for B),
    and ``PROPAGATE_CHUNK`` at 1 to 9 splits even these small sectors into
    many panels and factor batches; canonical and grand-canonical states."""
    region = full_region(g)
    basis = enumerate_sectors(region, n_max, cap=2) if grand else enumerate_basis(region, sector=n_max)
    H = assemble_hamiltonian(g, region, basis, ModelParams(hopping=J, onsite=U))
    rng = np.random.default_rng(seed)
    if gauge:
        W = sp.diags(np.exp(1j * (basis.occupations @ rng.uniform(0.0, 2.0 * np.pi, g.n_vertices))))
        H = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
    gam = gibbs_state(H, 1.0, -6.0, n_max, tail_tol=1.0) if grand else fixed_sector_gibbs(H, 1.0)
    if pair == "local":
        x, y = rng.permutation(g.n_vertices)[:2]
        A = local_observable(basis, {"kind": "normalized_hop", "sites": [int(x), int(y)]})
        B = local_observable(basis, {"kind": "number_function", "site": int(y), "fn": "inv_one_plus_n"})
    else:
        real = pair == "random"
        A = random_operator(basis, rng, conserving=True, hermitian=True, real=real)
        B = random_operator(basis, rng, conserving=True, hermitian=pair != "non-hermitian", real=real)
    with mock.patch.object(dynamics, "SYRK_ROWS_MIN", 1 if syrk else 10**9), mock.patch.object(
        dynamics, "PROPAGATE_CHUNK", width
    ):
        gf = GreenFunction(gam, A, B)
    assert gf._real == (pair in ("local", "random") and not gauge)
    d = gam.decomp
    scale = 1e-14 * operator_norm(A) * operator_norm(B)
    for rows, C in gf._blocks:
        n = int(d.basis.totals[rows.start])
        want = d.rotate(A.matrix[rows, rows], n) * d.rotate(B.matrix[rows, rows], n).T
        if gf._real:
            assert C.flags.f_contiguous
            C, want = np.tril(C), np.tril(want)
        assert np.abs(C - want).max() <= scale


def dense_strip_sum(gam, A, B, z):
    """F(t - i s) as the double spectral sum, dense, with complex phases:
    sum over included j, k of e^{-(beta - s) g_j} e^{-s g_k}
    e^{i (E_j - E_k) t} A~_jk B~_kj / Z, with X~ = V^* X V whole."""
    d, t, s = gam.decomp, z.real, -z.imag
    V = d.vectors
    A_t, B_t = (V.conj().T @ X.to_dense() @ V for X in (A, B))
    keep = d.basis.totals <= gam.n_max
    bra = np.exp(-gam.shifted * (gam.beta - s) + 1j * d.energies * t)[keep]
    ket = np.exp(-gam.shifted * s - 1j * d.energies * t)[keep]
    return bra @ (A_t * B_t.T)[np.ix_(keep, keep)] @ ket / gam.z_scaled


@settings(max_examples=30, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(0.5, 2.0),
    pair=st.sampled_from(["complex", "non-hermitian", "gauge"]),
    n_t=st.integers(1, 4),
    n_s=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_pairs_read_three_ways_match_the_double_spectral_sum(g, n_max, grand, J, U, beta, pair, n_t, n_s, seed):
    """A pair off the real route (a complex hermitian pair, a non-hermitian
    B, or a local pair under a gauge-complex generator), on canonical and
    grand-canonical states, read point by point through ``__call__`` (a
    t-major grid, so later rows are batched), in one ``values`` call, and
    by ``values`` on the points shuffled: each read is within
    1e-12 max |F| of the dense double spectral sum at every point, strip
    edges, t = 0 and exact time mirrors included."""
    region = full_region(g)
    basis = enumerate_sectors(region, n_max, cap=2) if grand else enumerate_basis(region, sector=n_max)
    H = assemble_hamiltonian(g, region, basis, ModelParams(hopping=J, onsite=U))
    rng = np.random.default_rng(seed)
    if pair == "gauge":
        W = sp.diags(np.exp(1j * (basis.occupations @ rng.uniform(0.0, 2.0 * np.pi, g.n_vertices))))
        H = SparseOperator((W @ H.matrix @ W.conj().T).tocsr(), basis, True)
        assume(H.matrix.data.imag.any())
        x, y = rng.permutation(g.n_vertices)[:2]
        A = local_observable(basis, {"kind": "normalized_hop", "sites": [int(x), int(y)]})
        B = local_observable(basis, {"kind": "number_function", "site": int(y), "fn": "inv_one_plus_n"})
    else:
        A = random_operator(basis, rng, conserving=True, hermitian=True)
        B = random_operator(basis, rng, conserving=True, hermitian=pair == "complex")
    gam = gibbs_state(H, beta, -6.0, n_max, tail_tol=1.0) if grand else fixed_sector_gibbs(H, beta)
    ts = rng.uniform(-2.0, 2.0, n_t)
    ts = np.concatenate([ts, -ts[:1], [0.0]])
    ss = np.concatenate([rng.uniform(0.0, beta, n_s), [0.0, beta]])
    points = [complex(t, -s) for t in ts for s in ss]
    want = np.array([dense_strip_sum(gam, A, B, z) for z in points])
    gf = GreenFunction(gam, A, B)
    assert not gf._real
    order = rng.permutation(len(points))
    shuffled = np.empty(len(points), dtype=np.complex128)
    shuffled[order] = GreenFunction(gam, A, B).values([points[k] for k in order])
    reads = [np.array([gf(z) for z in points]), GreenFunction(gam, A, B).values(points), shuffled]
    scale = 1e-12 * np.abs(want).max()
    for got in reads:
        assert np.abs(got - want).max() <= scale


def same_bits(x, y) -> bool:
    """Both parts of two complex numbers equal to the last bit; a zero's
    sign aside (x - x and -x + x are both +0.0)."""
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is
    bits = (np.array([x, y], dtype=np.complex128) + 0.0).view(np.int64)
    return np.array_equal(bits[:2], bits[2:])


@settings(max_examples=40, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(0.5, 2.0),
    local=st.booleans(),
    t=st.floats(0.05, 3.0),
    depth=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_mirror_of_a_real_hermitian_pair_is_exact(g, n_max, grand, J, U, beta, local, t, depth, seed):
    """Time reversal: for a real H and real hermitian A and B,
    F(-t - i s) = conj F(t - i s).  Evaluating either point of the pair
    fills the other with the conjugate, and that is bit for bit what a
    fresh ``GreenFunction`` evaluates directly there (numpy's sin is odd
    and its cos even to the last bit, and every sum negates exactly), on
    canonical and grand-canonical states, local and random pairs."""
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
    s = depth * beta
    for first, second in ((complex(t, -s), complex(-t, -s)), (complex(-t, -s), complex(t, -s))):
        gf = GreenFunction(gam, A, B)
        assert gf._real
        value = gf(first)
        assert second in gf._cache
        folded = gf(second)
        assert same_bits(folded, value.conjugate())
        assert same_bits(folded, GreenFunction(gam, A, B)(second))


@settings(max_examples=30, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    grand=st.booleans(),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    beta=st.floats(0.5, 2.0),
    local=st.booleans(),
    n_t=st.integers(1, 4),
    n_s=st.integers(1, 5),
    order=st.sampled_from(["t-major", "s-major", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_reads_agree_with_lone_points(g, n_max, grand, J, U, beta, local, n_t, n_s, order, seed):
    """A real hermitian pair read point by point over a grid of random
    rows t and their exact mirrors -t, at random depths, t-major (rows
    and depths in random order), s-major or in a random order: every
    value is within 1e-14 ||A|| ||B|| of a lone evaluation, whether it
    came alone or in a row, and every point evaluated alone, or folded
    from the mirror of one, has the lone bits, on canonical and
    grand-canonical states, local and random pairs."""
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
    ts = rng.uniform(0.05, 2.0, n_t)
    ts = rng.permutation(np.concatenate([ts, -ts, [0.0]]))
    ss = np.concatenate([rng.uniform(0.0, beta, n_s), [0.0, beta]])
    if order == "s-major":
        points = [complex(t, -s) for s in ss for t in ts]
    else:
        points = [complex(t, -s) for t in ts for s in rng.permutation(ss)]
        if order == "random":
            points = [points[k] for k in rng.permutation(len(points))]
    gf, lone = GreenFunction(gam, A, B), GreenFunction(gam, A, B)
    assert gf._real
    evaluate = GreenFunction._points
    with mock.patch.object(GreenFunction, "_points", autospec=True, side_effect=evaluate) as kernel:
        got = [gf(z) for z in points]
    alone = [complex(t[0], -s[0]) for (_, t, s), _ in kernel.call_args_list if len(t) == 1]
    scale = 1e-14 * operator_norm(A) * operator_norm(B)
    for z, value in zip(points, got):
        (want,) = lone._points(np.array([z.real]), np.array([lone._depth(z)]))
        assert abs(value - want) <= scale
        mirror = complex(-z.real, z.imag)
        if z in alone or mirror in alone:
            assert same_bits(value, want)


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


@settings(max_examples=30, deadline=None)
@given(
    g=lattices,
    n_max=st.integers(1, 3),
    J=st.floats(0.1, 1.0),
    U=st.floats(0.0, 2.0),
    pure=st.booleans(),
    kinds=st.lists(st.sampled_from(["hermitian", "non-hermitian", "mixing", None]), min_size=1, max_size=3),
    times=any_times,
    want=st.lists(st.sampled_from(CORRELATION_ARRAYS), min_size=1, max_size=3, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_correlations_subset_has_the_bits_of_the_full_call(g, n_max, J, U, pure, kinds, times, want, seed):
    """Each array of any subset ``want`` of ``correlations``, in any order,
    equals the same array of the full call bit for bit: on the dense route
    (the spectral sum of a thermal state, propagate_block for a pure one)
    and on the sparse route, with hermitian, non-hermitian, sector-mixing
    and no B."""
    basis = enumerate_sectors(full_region(g), n_max)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=J, onsite=U))
    rng = np.random.default_rng(seed)
    if pure:
        amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        state = StateVector(basis, amps / np.linalg.norm(amps))
    else:
        state = gibbs_state(H, 1.0, -6.0, n_max, tail_tol=1.0)
    B_of = {
        "hermitian": lambda: unit_operator(basis, rng, conserving=True, hermitian=True),
        "non-hermitian": lambda: unit_operator(basis, rng, conserving=True, hermitian=False),
        "mixing": lambda: unit_operator(basis, rng, conserving=False, hermitian=bool(rng.integers(2))),
        None: lambda: None,
    }
    pairs = [(unit_operator(basis, rng, conserving=False, hermitian=False), B_of[kind]()) for kind in kinds]
    d = eigendecompose(H)
    for route in ((d, "dense"), (None, "krylov")):
        full = dict(zip(CORRELATION_ARRAYS, correlations(H, state, pairs, times, *route)))
        got = correlations(H, state, pairs, times, *route, want=want)
        assert len(got) == len(want)
        for name, array in zip(want, got):
            assert array.tobytes() == full[name].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 24),
    real=st.booleans(),
    scale=st.sampled_from([1e-12, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_norm_of_a_dense_array(n, real, scale, seed):
    """A dense array equal to its conjugate transpose bit for bit takes
    the eigenvalue route and agrees with the SVD's sigma_max within 1e-13
    relative; any other array gives the SVD's value bit for bit; an
    all-zero one is 0.0 with neither routine called."""
    rng = np.random.default_rng(seed)

    def draw():
        M = rng.standard_normal((n, n))
        return scale * (M if real else M + 1j * rng.standard_normal((n, n)))

    M = draw()
    X = (M + M.conj().T) / 2
    assert np.array_equal(X, X.conj().T)
    sigma = np.linalg.norm(X, 2)
    assert abs(operator_norm(X) - sigma) <= 1e-13 * sigma
    Y = X + draw()
    assume(not np.array_equal(Y, Y.conj().T))
    assert operator_norm(Y) == np.linalg.norm(Y, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("no routine runs on an all-zero array")

    with mock.patch("scipy.linalg.eigh", refuse), mock.patch("numpy.linalg.norm", refuse):
        assert operator_norm(np.zeros((n, n), dtype=X.dtype)) == 0.0


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
