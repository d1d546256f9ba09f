import math
import os

import numpy as np
import pytest
import scipy.sparse as sp

from bosonlr import (
    InvalidArgumentError,
    ModelParams,
    ResourceLimitError,
    assemble_hamiltonian,
    assemble_hopping,
    assemble_interaction,
    build_chain,
    build_from_edges,
    build_grid,
    commutator,
    conserves_number,
    cutoff_projection,
    enumerate_basis,
    enumerate_sectors,
    full_region,
    hop_term,
    identity_operator,
    local_observable,
    number_moment,
    number_operator,
    operator_norm,
    region,
    sandwich,
    total_number,
)
from bosonlr.operators import DENSE_NORM_CAP, SparseOperator, _hop_matrix, _pruned, same_matrix


@pytest.fixture
def two_site():
    g = build_chain(2)
    return g, full_region(g)


def test_hopping_one_particle(two_site):
    g, reg = two_site
    basis = enumerate_basis(reg, sector=1)
    T = assemble_hopping(g, reg, basis, J=1.0)
    assert np.allclose(T.to_dense(), [[0, -1], [-1, 0]])
    assert sorted(np.linalg.eigvalsh(T.to_dense().real)) == pytest.approx([-1, 1])


def test_hopping_matrix_element_sqrt2(two_site):
    g, reg = two_site
    basis = enumerate_basis(reg, sector=2)
    T = assemble_hopping(g, reg, basis, J=1.0)
    el = T.to_dense()[basis.index_of((1, 1)), basis.index_of((2, 0))]
    assert el == pytest.approx(-math.sqrt(2))


def test_hopping_no_edges_is_zero():
    g = build_chain(3)
    basis = enumerate_basis(full_region(g), sector=2)
    lone = region(g, [0, 2])  # no edge inside
    T = assemble_hopping(g, lone, basis, J=1.0)
    assert T.matrix.nnz == 0


def test_ordered_pair_convention_doubles(two_site):
    # counting every edge once per order is the hopping 2J
    g, reg = two_site
    basis = enumerate_basis(reg, sector=1)
    T1 = assemble_hopping(g, reg, basis, J=1.0)
    T2 = assemble_hopping(g, reg, basis, J=2.0)
    assert np.allclose(T2.to_dense(), 2 * T1.to_dense())


def test_hard_wall_truncation(two_site):
    g, reg = two_site
    capped = enumerate_basis(reg, sector=2, cap=1)
    T = assemble_hopping(g, reg, capped, J=1.0)
    # only (1,1) survives the cap; all hops out of it are dropped
    assert T.matrix.nnz == 0


def test_interaction_values(two_site):
    g, reg = two_site
    g1 = build_chain(1)
    r1 = full_region(g1)
    b1 = enumerate_basis(r1, sector=2)
    V = assemble_interaction(g1, r1, b1, ModelParams(onsite=1.0))
    assert V.to_dense()[0, 0] == pytest.approx(2.0)
    b3 = enumerate_basis(r1, sector=3)
    V3 = assemble_interaction(g1, r1, b3, ModelParams(onsite=0.5))
    assert V3.to_dense()[0, 0] == pytest.approx(3.0)
    basis = enumerate_basis(reg, sector=2)
    Voff = assemble_interaction(g, reg, basis, ModelParams(onsite=0.0, offsite=(0.3,)))
    assert Voff.to_dense()[basis.index_of((1, 1)), basis.index_of((1, 1))] == pytest.approx(0.6)


def test_hamiltonian_small_sectors():
    g = build_chain(3)
    reg = full_region(g)
    vac = enumerate_basis(reg, sector=0)
    H0 = assemble_hamiltonian(g, reg, vac, ModelParams(hopping=1.0, onsite=1.0))
    assert H0.to_dense().shape == (1, 1) and H0.matrix.nnz == 0
    one = enumerate_basis(reg, sector=1)
    H1 = assemble_hamiltonian(g, reg, one, ModelParams(hopping=0.7))
    adj = np.zeros((3, 3))
    for x, y in g.edges():
        # one-particle states are ordered lexicographically, i.e. by
        # occupied site in descending order
        ix = one.index_of(tuple(1 if s == x else 0 for s in range(3)))
        iy = one.index_of(tuple(1 if s == y else 0 for s in range(3)))
        adj[ix, iy] = adj[iy, ix] = 1
    assert np.allclose(H1.to_dense(), -0.7 * adj)
    g1 = build_chain(1)
    b2 = enumerate_basis(full_region(g1), sector=2)
    H = assemble_hamiltonian(g1, full_region(g1), b2, ModelParams(hopping=5.0, onsite=1.0))
    assert np.allclose(H.to_dense(), [[2.0]])


def test_hermiticity_exact_as_stored():
    g = build_chain(4)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 3, cap=2)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.3, onsite=0.7, offsite=(0.2,)))
    diff = H.matrix - H.matrix.conj().T
    assert diff.nnz == 0


def test_number_conservation_exact():
    g = build_chain(4)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 3, cap=2)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=1.0))
    N = total_number(basis)
    assert commutator(H, N).matrix.nnz == 0


def test_ccr_adjoint_consistency(two_site):
    g, reg = two_site
    basis = enumerate_basis(reg, sector=2)
    up = hop_term(basis, 0, 1)
    down = hop_term(basis, 1, 0)
    assert (up.matrix.conj().T - down.matrix).nnz == 0


def test_number_operator_and_moments():
    g = build_chain(2)
    basis = enumerate_basis(full_region(g), sector=3)
    N0 = number_operator(basis, 0)
    M2 = number_moment(basis, 0, 2)
    M4 = number_moment(basis, 0, 4)
    k = basis.index_of((3, 0))
    assert N0.matrix.diagonal()[k] == 3
    assert M2.matrix.diagonal()[k] == 16
    k2 = basis.index_of((2, 1))
    assert M4.matrix.diagonal()[k2] == 81
    vac = enumerate_basis(full_region(g), sector=0)
    assert number_operator(vac, 0).matrix.nnz == 0
    assert number_moment(vac, 0, 2).matrix.diagonal()[0] == 1.0
    with pytest.raises(InvalidArgumentError):
        number_operator(basis, 5)


def test_cutoff_projection_cases():
    g = build_chain(2)
    reg = full_region(g)
    basis = enumerate_basis(reg, sector=2, cap=3)
    P = cutoff_projection(basis, reg, 3)
    assert np.allclose(P.to_dense(), np.eye(basis.dimension))
    P0 = cutoff_projection(basis, reg, 0)
    assert P0.matrix.nnz == 0
    P1 = cutoff_projection(basis, reg, 1)
    diag = P1.matrix.diagonal().real
    assert diag[basis.index_of((1, 1))] == 1.0
    assert diag.sum() == 1.0
    # idempotent, commutes with every number operator
    assert ((P1 @ P1).matrix - P1.matrix).nnz == 0
    for x in (0, 1):
        assert commutator(P1, number_operator(basis, x)).matrix.nnz == 0


def test_sandwich():
    g = build_chain(2)
    reg = full_region(g)
    basis = enumerate_basis(reg, sector=2)
    H = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=0.5))
    ident = identity_operator(basis)
    assert (sandwich(ident, H).matrix - H.matrix).nnz == 0
    zero = cutoff_projection(basis, reg, 0)
    assert sandwich(zero, H).matrix.nnz == 0
    P1 = cutoff_projection(basis, reg, 1)
    PHP = sandwich(P1, H).to_dense()
    expected = np.zeros((3, 3))
    k = basis.index_of((1, 1))
    expected[k, k] = H.to_dense()[k, k].real  # interaction survives, hops leave the subspace
    assert np.allclose(PHP, expected)
    with pytest.raises(InvalidArgumentError):
        sandwich(H, H)


def test_commutator_diagonal_is_exact_zero():
    g = build_chain(3)
    basis = enumerate_basis(full_region(g), sector=2)
    A = number_operator(basis, 0)
    B = number_operator(basis, 2)
    assert commutator(A, B).matrix.nnz == 0


def test_operator_norm_basics():
    g = build_chain(2)
    basis = enumerate_basis(full_region(g), sector=1)
    assert operator_norm(identity_operator(basis)) == pytest.approx(1.0)
    T = assemble_hopping(g, full_region(g), basis, J=1.0)
    assert operator_norm(T) == pytest.approx(1.0)
    # a rectangular array has a norm; a rectangular sparse matrix has no
    # blocks to split into
    ones = np.ones((2, 3))
    assert operator_norm(ones) == pytest.approx(math.sqrt(6.0))
    with pytest.raises(InvalidArgumentError, match="square"):
        operator_norm(sp.csr_matrix(ones))


def test_operator_norm_properties():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 12
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        assert operator_norm(A) <= np.linalg.norm(A, "fro") + 1e-12
        assert operator_norm(A @ B) <= operator_norm(A) * operator_norm(B) * (1 + 1e-12)


def test_operator_norm_dense_input_above_cap_is_exact():
    """A dense array above DENSE_NORM_CAP is already in memory, so it takes
    one exact SVD, also with a near-degenerate top pair."""
    rng = np.random.default_rng(5)
    n = 1100
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([[1.0, 0.9999], rng.uniform(0.0, 0.5, n - 2)])
    A = (Q * s) @ Q.T
    A = 0.5 * (A + A.T)
    assert n > DENSE_NORM_CAP
    assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
    assert operator_norm(A) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_conserving_above_cap_is_exact_per_sector():
    """An operator above DENSE_NORM_CAP with a near-degenerate top, left
    unflagged, is read block by block and exactly."""
    basis = enumerate_sectors(full_region(build_chain(8)), 5)
    sizes = [sl.stop - sl.start for _, sl in basis.sector_slices()]
    assert basis.dimension == 1287 > DENSE_NORM_CAP
    assert max(sizes) == 792
    vals = 1.0 - 1e-4 * np.linspace(1.0, 0.0, basis.dimension) ** 2
    vals[-2:] = [1.0 - 1e-5, 1.0]
    op = SparseOperator(sp.diags(vals.astype(complex)).tocsr(), basis, True)
    assert conserves_number(op)
    assert operator_norm(op) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_of_diagonal_operator_is_max_abs_diagonal():
    """The 1/(1+n) observable on the 9-site, 5-particle sector, above
    DENSE_NORM_CAP, splits into 1x1 blocks and reads its norm exactly
    (power iteration read 0.9999999999738033)."""
    basis = enumerate_basis(full_region(build_chain(9)), sector=5)
    assert basis.dimension == 1287 > DENSE_NORM_CAP
    op = local_observable(basis, {"kind": "number_function", "site": 2, "fn": "inv_one_plus_n"})
    assert op.diagonal
    assert operator_norm(op) == 1.0
    signed = local_observable(basis, {"kind": "number_function", "site": 2, "fn": [-3.0, 2.0, 1.0, 0.5, 0.25, 0.1]})
    assert operator_norm(signed) == 3.0


def test_operator_norm_of_normalized_hop_above_cap_is_exact():
    """On the 9-site, 5-particle sector the normalized hop splits into
    blocks of at most six states; its norm is 5 / (2 sqrt(30)), where power
    iteration read 0.45643546358076675."""
    basis = enumerate_basis(full_region(build_chain(9)), sector=5)
    assert basis.dimension == 1287 > DENSE_NORM_CAP
    hop = local_observable(basis, {"kind": "normalized_hop", "sites": [3, 4]})
    assert operator_norm(hop) == pytest.approx(0.4564354645876384, rel=1e-15)
    assert operator_norm(hop) == pytest.approx(5.0 / (2.0 * math.sqrt(30.0)), rel=1e-15)


def test_operator_norm_of_connected_block_above_cap_raises():
    """A connected 1,287-state Hamiltonian is one block above DENSE_NORM_CAP:
    no estimate is returned, as an operator or as a bare matrix."""
    g = build_chain(9)
    basis = enumerate_basis(full_region(g), sector=5)
    H = assemble_hamiltonian(g, full_region(g), basis, ModelParams(hopping=1.0, onsite=1.0))
    for op in (H, H.matrix):
        with pytest.raises(ResourceLimitError, match="1287 states"):
            operator_norm(op)


def test_local_observable_kinds():
    g = build_chain(2)
    reg = full_region(g)
    basis = enumerate_sectors(reg, 3)
    f = local_observable(basis, {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"})
    vac = basis.index_of((0, 0))
    assert f.matrix.diagonal()[vac].real == pytest.approx(1.0)
    k3 = basis.index_of((3, 0))
    assert f.matrix.diagonal()[k3].real == pytest.approx(0.25)
    proj = local_observable(basis, {"kind": "indicator", "site": 0, "level": 1})
    assert proj.matrix.diagonal()[basis.index_of((1, 0))].real == 1.0
    assert proj.matrix.diagonal()[basis.index_of((0, 1))].real == 0.0
    hop = local_observable(basis, {"kind": "normalized_hop", "sites": [0, 1]})
    assert operator_norm(hop) <= 1.0 + 1e-12
    assert hop.support == (0, 1)
    table = local_observable(basis, {"kind": "number_function", "site": 1, "fn": [1.0, 0.5, 0.25, 0.125]})
    assert table.matrix.diagonal()[basis.index_of((0, 2))].real == pytest.approx(0.25)
    with pytest.raises(InvalidArgumentError):
        local_observable(basis, {"kind": "number_function", "site": 9, "fn": "inv_one_plus_n"})
    with pytest.raises(InvalidArgumentError):
        local_observable(basis, {"kind": "mystery"})


def test_number_functions_keep_the_bits_of_one_call_per_state():
    # a name and a table are read for every state at once; each entry is
    # what one call per state made, a short table names the first
    # occupation it misses, and a name or a table takes one site
    basis = enumerate_sectors(full_region(build_chain(3)), 4)
    occupations = basis.occupations[:, 1]
    table = [1.0, 0.3, 0.7, 0.1, 0.9]
    for fn, one in (("inv_one_plus_n", lambda n: 1.0 / (1.0 + n)), (table, lambda n: table[n])):
        op = local_observable(basis, {"kind": "number_function", "site": 1, "fn": fn})
        want = np.array([one(int(n)) for n in occupations])
        assert op.matrix.diagonal().tobytes() == want.tobytes()
    with pytest.raises(InvalidArgumentError, match="length 3 too short for occupation 3"):
        local_observable(basis, {"kind": "number_function", "site": 1, "fn": table[:3]})
    with pytest.raises(InvalidArgumentError, match="one site"):
        local_observable(basis, {"kind": "number_function", "sites": [0, 1], "fn": "inv_one_plus_n"})
    pair = local_observable(basis, {"kind": "number_function", "sites": [0, 2], "fn": lambda a, b: a - b})
    assert np.array_equal(pair.matrix.diagonal(), basis.occupations[:, 0] - basis.occupations[:, 2])


def test_same_matrix_exact_equality():
    from bosonlr.operators import same_matrix

    g = build_chain(3)
    reg = full_region(g)
    basis = enumerate_basis(reg, sector=2)
    params = ModelParams(hopping=1.0, onsite=1.0)
    H1 = assemble_hamiltonian(g, reg, basis, params)
    H2 = assemble_hamiltonian(g, reg, basis, params)
    assert same_matrix(H1, H2)
    ident = identity_operator(basis)
    assert same_matrix(sandwich(ident, H1), H1)
    H3 = assemble_hamiltonian(g, reg, basis, ModelParams(hopping=1.0, onsite=1.0 + 1e-14))
    assert not same_matrix(H1, H3)


def test_basis_mismatch_rejected():
    g = build_chain(2)
    reg = full_region(g)
    b1 = enumerate_basis(reg, sector=1)
    b2 = enumerate_basis(reg, sector=2)
    A = number_operator(b1, 0)
    B = number_operator(b2, 0)
    with pytest.raises(InvalidArgumentError):
        commutator(A, B)


def reference_hop_entries(basis, dst, src):
    """One move a^*_dst a_src (occupation columns) with its own lookup: the
    per-edge kernel the batched assembly replaced."""
    occ = basis.occupations
    cols = np.flatnonzero(occ[:, src])
    target = occ[cols]
    target[:, src] -= 1
    target[:, dst] += 1
    rows = basis.lookup(target)
    cols, rows = cols[rows >= 0], rows[rows >= 0]
    return rows, cols, np.sqrt(occ[cols, src] * (occ[cols, dst] + 1.0))


def reference_hopping(g, reg, basis, J):
    """The kinetic term edge by edge, one lookup per move."""
    member = reg.as_set()
    entries = [
        reference_hop_entries(basis, basis.site_column(dst), basis.site_column(src))
        for x, y in g.edges()
        if x in member and y in member
        for dst, src in ((x, y), (y, x))
    ]
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    rows, cols, vals = (np.concatenate(part) for part in zip(empty, *entries))
    return _hop_matrix(basis, rows, cols, -J * vals)


def reference_interaction(g, reg, basis, params):
    """The interaction term with one coupling call per site pair."""

    def coupling(x, y):
        return params.v(int(g.dist[x, y]))

    occ = basis.occupations
    values = np.zeros(basis.dimension)
    sites = list(reg.sites)
    for i, x in enumerate(sites):
        nx = occ[:, basis.site_column(x)]
        u = coupling(x, x)
        if u != 0.0:
            values += u * nx * (nx - 1)
        for y in sites[i + 1 :]:
            vxy = coupling(x, y)
            if vxy != 0.0:
                values += 2.0 * vxy * nx * occ[:, basis.site_column(y)]
    return sp.diags(values.astype(np.complex128), 0, format="csr")


def reference_op(basis, mat):
    """A reference matrix as an operator, pruned as assembly prunes."""
    return SparseOperator(_pruned(mat), basis, False)


def assembly_cases(seed):
    """(graph, basis, region, params) over chains, grids and edge graphs;
    capped and uncapped, one sector and several, every capped vector; the
    full region and random subregions; on-site and off-site couplings and
    ordered hopping."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 6))
    tree = [(k, int(rng.integers(k))) for k in range(1, n)]
    extra = [(int(x), int(y)) for x, y in rng.integers(n, size=(3, 2)) if x != y]
    graphs = [
        build_chain(int(rng.integers(3, 6))),
        build_grid([(2, 2), (2, 3), (3, 2)][rng.integers(3)]),
        build_from_edges(n, tree + extra),
    ]
    for g in graphs:
        full = full_region(g)
        bases = [
            enumerate_basis(full, sector=3),
            enumerate_basis(full, sector=3, cap=1),
            enumerate_sectors(full, 3),
            enumerate_sectors(full, 4, cap=2),
            enumerate_basis(full, cap=2),
        ]
        for basis in bases:
            sub = sorted(rng.choice(g.n_vertices, size=rng.integers(1, g.n_vertices), replace=False))
            for reg in (full, region(g, sub)):
                offsite = tuple(rng.uniform(-1.0, 1.0, rng.integers(0, 3)))
                params = ModelParams(
                    hopping=rng.uniform(0.1, 2.0),
                    onsite=rng.choice([0.0, rng.uniform(-1.0, 1.0)]),
                    offsite=offsite,
                )
                yield g, basis, reg, params


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_batched_assembly_matches_per_edge_and_per_pair_loops(seed):
    """One lookup per batch of moves and one coupling table give the same
    indptr, indices and data as one lookup per move and one coupling call
    per site pair."""
    for g, basis, reg, params in assembly_cases(seed):
        J = params.hopping
        hopping = reference_hopping(g, reg, basis, J)
        interaction = reference_interaction(g, reg, basis, params)
        assert same_matrix(assemble_hopping(g, reg, basis, J), reference_op(basis, hopping))
        assert same_matrix(assemble_interaction(g, reg, basis, params), reference_op(basis, interaction))
        assert same_matrix(assemble_hamiltonian(g, reg, basis, params), reference_op(basis, hopping + interaction))
        x, y = reg.sites[0], reg.sites[-1]
        if x != y:
            want = _hop_matrix(basis, *reference_hop_entries(basis, basis.site_column(x), basis.site_column(y)))
            assert same_matrix(hop_term(basis, x, y), reference_op(basis, want))


def test_batched_hop_lookup_splits_at_its_entry_budget(monkeypatch):
    """With the batch constant patched low the budget is occupations.size:
    the moves of a 6-site chain split into several lookups, none holding
    more target entries than the budget, and the matrix keeps its bits."""
    from bosonlr import operators
    from bosonlr.fock import FockBasis

    g = build_chain(6)
    basis = enumerate_sectors(full_region(g), 4, cap=2)
    want = reference_op(basis, reference_hopping(g, full_region(g), basis, 0.7))
    sizes = []
    lookup = FockBasis.lookup

    def spy(self, rows):
        sizes.append(np.asarray(rows).size)
        return lookup(self, rows)

    monkeypatch.setattr(operators, "HOP_BATCH_ENTRIES", 1)
    monkeypatch.setattr(FockBasis, "lookup", spy)
    got = assemble_hopping(g, full_region(g), basis, 0.7)
    assert len(sizes) >= 2
    assert max(sizes) <= basis.occupations.size
    assert same_matrix(got, want)
    monkeypatch.setattr(operators, "HOP_BATCH_ENTRIES", 2**20)
    sizes.clear()
    assert same_matrix(assemble_hopping(g, full_region(g), basis, 0.7), want)
    assert len(sizes) == 1


def test_operator_norm_of_an_all_zero_array_takes_no_svd(monkeypatch):
    """An exact difference of equal operators is 0.0 without an SVD, real,
    complex or empty; one 1e-300 entry is not zero and takes the SVD."""
    norm = np.linalg.norm
    seen = []

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called on an all-zero array")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    for zero in (np.zeros((3, 3)), np.zeros((4, 4), dtype=np.complex128), np.zeros((0, 0))):
        assert operator_norm(zero) == 0.0

    def spy(*args, **kwargs):
        seen.append(args[0].shape)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    tiny = np.zeros((3, 3), dtype=np.complex128)
    tiny[1, 2] = 1e-300
    assert operator_norm(tiny) == pytest.approx(1e-300, rel=1e-12)
    assert seen == [(3, 3)]
