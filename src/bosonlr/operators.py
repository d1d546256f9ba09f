"""Sparse operators on occupation bases.

Assembles the hopping and interaction parts of lattice-boson Hamiltonians,
number operators and their moments, per-site occupation cutoff projections,
and bounded gauge-invariant observables.  All matrix elements are exact
integer / square-root-of-integer arithmetic in double precision; entries
with magnitude at or below ``PRUNE_TOL`` are dropped so the stored pattern
is clean.  The hopping moves of all edges are ranked in the basis by one
batched ``FockBasis.lookup`` (split into batches of at most
max(occupations.size, ``HOP_BATCH_ENTRIES``) target entries), and the
interaction reads a site-pair coupling table built once.

Storage rule: ``SparseOperator`` stores its matrix as float64 unless a
stored entry has a nonzero imaginary part, and as complex128 then.  Every
operator this module assembles is real, so consumers read the dtype
(``np.iscomplexobj``) instead of scanning entries.  An operator owns its
sector blocks (``SparseOperator.blocks``), the one place the package slices
a matrix.

Conventions
-----------
* Hopping sums run over unordered edges once, each edge contributing
  ``-J (a_x^* a_y + a_y^* a_x)``.  The ordered-pair reading (every edge
  counted twice) is hopping 2J.
* The interaction sum follows the ordered-pair reading verbatim: off-site
  couplings are counted twice (once per order), on-site once, so a pure
  on-site coupling U yields the standard ``U * n (n - 1)`` per site.
* On a capped basis, hopping elements that would exceed the cap are
  dropped (hard-wall truncation); the resulting evolution is exactly the
  occupation-cutoff-projected dynamics generated by P H P.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .errors import InvalidArgumentError, ResourceLimitError
from .fock import FockBasis
from .lattice import LatticeGraph, Region

PRUNE_TOL = 1e-15
# target entries (moved states x sites) one batched hop lookup may hold
HOP_BATCH_ENTRIES = 2**20

DENSE_NORM_CAP = 1024


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the boson lattice model, in units of the hopping energy.

    ``offsite[k]`` is the two-body coupling at hop distance k+1; couplings
    are parameterized by distance, so the symmetry v(x, y) = v(y, x) holds
    by construction.  ``onsite`` is the coefficient of n (n - 1) per site.
    """

    hopping: float = 1.0
    onsite: float = 0.0
    offsite: tuple[float, ...] = ()

    @property
    def range_hops(self) -> int:
        """Smallest r with v(x, y) = 0 whenever d(x, y) >= r."""
        k = len(self.offsite)
        while k > 0 and self.offsite[k - 1] == 0.0:
            k -= 1
        return 1 + k

    def v(self, distance: int) -> float:
        if distance == 0:
            return self.onsite
        if distance - 1 < len(self.offsite):
            return self.offsite[distance - 1]
        return 0.0

    @property
    def v_inf(self) -> float:
        return max([abs(self.onsite)] + [abs(v) for v in self.offsite], default=0.0)


@dataclass(frozen=True)
class SparseOperator:
    """CSR operator bound to a basis, with structural flags.

    ``hermitian`` and ``diagonal`` are set by the assembly routines that
    guarantee them; ``support`` records the sites an observable acts on.
    ``matrix`` is stored as float64 unless some stored entry has a nonzero
    imaginary part, and as complex128 then; integer, boolean and
    single-precision data are cast on construction.

    ``blocks``, formed on first read and kept, is ``{(m, n): M_mn}`` for
    each sector pair where ``matrix`` stores an entry, in ascending order,
    each with the entries of ``matrix[sl_m, sl_n]`` in their storage
    order; on a single-sector basis the one block is ``matrix`` itself.
    """

    matrix: sparse.csr_matrix
    basis: FockBasis
    hermitian: bool
    diagonal: bool = False
    support: tuple[int, ...] | None = None

    def __post_init__(self):
        mat = self.matrix
        if np.iscomplexobj(mat) and not mat.data.imag.any():
            mat = mat.real
        dtype = np.complex128 if np.iscomplexobj(mat) else np.float64
        object.__setattr__(self, "matrix", mat.astype(dtype, copy=False))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @functools.cached_property
    def blocks(self) -> dict[tuple[int, int], sparse.csr_matrix]:
        slices = dict(self.basis.sector_slices())
        if len(slices) == 1:
            return {(n, n): self.matrix for n in slices} if self.matrix.nnz else {}
        # one key per entry, row total * width + column total, sorts as the pairs do
        coo, totals, width = self.matrix.tocoo(), self.basis.totals, self.basis.max_total + 1
        found = np.unique(totals[coo.row] * width + totals[coo.col])
        return {(int(m), int(n)): self.matrix[slices[m], slices[n]] for m, n in zip(*np.divmod(found, width))}

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        _check_same_basis(self, other)
        return SparseOperator(
            _pruned((self.matrix @ other.matrix).tocsr()),
            self.basis,
            False,
            self.diagonal and other.diagonal,
            _union_support(self.support, other.support),
        )


def _union_support(a, b):
    if a is None or b is None:
        return None
    return tuple(sorted(set(a) | set(b)))


def _check_same_basis(*ops: SparseOperator):
    ids = {op.basis.basis_id for op in ops}
    if len(ids) > 1:
        raise InvalidArgumentError("operators live on different bases")


def _pruned(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    mat = mat.tocsr()
    if mat.nnz:
        mat.data[np.abs(mat.data) <= PRUNE_TOL] = 0.0
        mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _diag_operator(basis: FockBasis, values: np.ndarray, support=None) -> SparseOperator:
    values = np.asarray(values)
    values = values.astype(np.result_type(values, np.float64), copy=False)
    # one entry per row, straight into CSR (``sparse.diags`` builds a DIA
    # matrix first); ``_pruned`` drops the zeros as the conversion did
    rows = np.arange(basis.dimension + 1)
    mat = _pruned(sparse.csr_matrix((values, rows[:-1], rows), shape=(basis.dimension, basis.dimension)))
    return SparseOperator(mat, basis, not values.imag.any(), diagonal=True, support=support)


def identity_operator(basis: FockBasis) -> SparseOperator:
    return _diag_operator(basis, np.ones(basis.dimension))


def zero_operator(basis: FockBasis) -> SparseOperator:
    return SparseOperator(sparse.csr_matrix((basis.dimension, basis.dimension)), basis, True, diagonal=True)


def _region_columns(basis: FockBasis, region: Region) -> list[int]:
    return [basis.site_column(x) for x in region.sites]


def _hop_entries(basis: FockBasis, moves):
    """(rows, cols, sqrt(n_src (n_dst + 1))) of ``sum a^*_dst a_src`` over
    ``moves``, an array of (dst, src) occupation-column pairs, with the
    entries of each move in turn.

    Every (move, state with a particle at src) pair is gathered, move-major,
    by one ``np.nonzero``, and the targets are ranked by one ``lookup`` per
    batch of moves whose targets hold at most
    max(occupations.size, HOP_BATCH_ENTRIES) entries (a single move never
    exceeds occupations.size).  Moves whose target leaves the basis (cap
    exceeded) are dropped, which is the hard-wall truncation convention.
    """
    occ = basis.occupations
    moves = np.asarray(moves, dtype=np.int64).reshape(-1, 2)
    held = (occ > 0).T  # held[c, k]: state k has a particle on column c
    budget = max(occ.size, HOP_BATCH_ENTRIES)
    # target entries per move, and the first move of each batch
    cost = held.sum(axis=1)[moves[:, 1]] * basis.n_sites
    starts, used = [0], 0
    for k, c in enumerate(cost.tolist()):
        if used + c > budget:
            starts.append(k)
            used = 0
        used += c
    parts = []
    for lo, hi in zip(starts, starts[1:] + [len(moves)]):
        move, cols = np.nonzero(held[moves[lo:hi, 1]])
        dst, src = moves[lo + move, 0], moves[lo + move, 1]
        pick = np.arange(cols.size)
        target = occ[cols]
        target[pick, src] -= 1
        target[pick, dst] += 1
        rows = basis.lookup(target)
        kept = rows >= 0
        cols, dst, src = cols[kept], dst[kept], src[kept]
        parts.append((rows[kept], cols, np.sqrt(occ[cols, src] * (occ[cols, dst] + 1.0))))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _hop_matrix(basis: FockBasis, rows, cols, vals) -> sparse.csr_matrix:
    shape = (basis.dimension, basis.dimension)
    return _pruned(sparse.csr_matrix((vals, (rows, cols)), shape=shape))


def hop_term(basis: FockBasis, x: int, y: int) -> SparseOperator:
    """Raw ``a_x^* a_y`` on the basis (not hermitian for x != y).

    Moves that would leave the basis (cap exceeded) are dropped, which is
    the hard-wall truncation convention.
    """
    if x == y:
        raise InvalidArgumentError("hop_term needs two distinct sites; use number_operator")
    mat = _hop_matrix(basis, *_hop_entries(basis, [(basis.site_column(x), basis.site_column(y))]))
    return SparseOperator(mat, basis, False, support=(min(x, y), max(x, y)))


def assemble_hopping(g: LatticeGraph, region: Region, basis: FockBasis, J: float = 1.0) -> SparseOperator:
    """Kinetic term ``-J sum_edges (a_x^* a_y + a_y^* a_x)`` within ``region``.

    ``region`` may be a subset of the basis region; only edges with both
    endpoints inside contribute, so the same basis can carry the
    Hamiltonians of nested volumes.
    """
    _check_region_in_basis(basis, region)
    member = region.as_set()
    cols_of = {x: basis.site_column(x) for x in region.sites}
    # a_x^* a_y moves one particle y -> x; the reverse move supplies the
    # conjugate entry, so hermiticity is exact as stored.
    moves = [
        (cols_of[dst], cols_of[src])
        for x, y in g.edges()
        if x in member and y in member
        for dst, src in ((x, y), (y, x))
    ]
    rows, cols, vals = _hop_entries(basis, moves)
    mat = _hop_matrix(basis, rows, cols, -J * vals)
    return SparseOperator(mat, basis, True, support=tuple(region.sites))


def _check_region_in_basis(basis: FockBasis, region: Region):
    missing = [x for x in region.sites if x not in basis.region.sites]
    if missing:
        raise InvalidArgumentError(f"sites {missing} of the region are not carried by the basis")


def assemble_interaction(
    g: LatticeGraph,
    region: Region,
    basis: FockBasis,
    params: ModelParams,
) -> SparseOperator:
    """Two-body density-density term, diagonal in the occupation basis.

    On occupation n the value is ``sum_x v(x,x) n_x (n_x - 1) +
    sum_{x != y} v(x,y) n_x n_y`` over ordered pairs in ``region``, with
    v read from ``params`` at the graph distance of x and y.
    """
    _check_region_in_basis(basis, region)
    sites = list(region.sites)
    # couplings[i, j] = v(sites[i], sites[j]), from each distinct distance
    dist, inverse = np.unique(g.dist[np.ix_(sites, sites)], return_inverse=True)
    couplings = np.array([params.v(int(k)) for k in dist])[inverse].reshape(len(sites), len(sites))
    occ = basis.occupations
    columns = [occ[:, basis.site_column(x)] for x in sites]
    values = np.zeros(basis.dimension)
    # the nonzero couplings of the upper triangle, row by row: the on-site
    # term of a site, then its pairs in site order
    for i, j in zip(*np.nonzero(np.triu(couplings))):
        nx = columns[i]
        if i == j:
            values += couplings[i, i] * nx * (nx - 1)
        else:
            values += 2.0 * couplings[i, j] * nx * columns[j]
    return _diag_operator(basis, values, support=tuple(region.sites))


def assemble_hamiltonian(
    g: LatticeGraph, region: Region, basis: FockBasis, params: ModelParams
) -> SparseOperator:
    """Full local Hamiltonian, kinetic plus interaction, on ``region``."""
    T = assemble_hopping(g, region, basis, J=params.hopping)
    V = assemble_interaction(g, region, basis, params)
    mat = _pruned((T.matrix + V.matrix).tocsr())
    return SparseOperator(mat, basis, True, support=tuple(region.sites))


def number_operator(basis: FockBasis, x: int) -> SparseOperator:
    """Diagonal particle number at site x."""
    col = basis.site_column(x)
    return _diag_operator(basis, basis.occupations[:, col].astype(float), support=(x,))


def number_moment(basis: FockBasis, x: int, p: float) -> SparseOperator:
    """Diagonal ``(1 + n_x)^p``; p >= 1 may be fractional."""
    if p < 1:
        raise InvalidArgumentError("moment exponent must satisfy p >= 1")
    col = basis.site_column(x)
    vals = (1.0 + basis.occupations[:, col]) ** float(p)
    return _diag_operator(basis, vals, support=(x,))


def total_number(basis: FockBasis, region: Region | None = None) -> SparseOperator:
    """Total particle number, optionally restricted to a subregion."""
    if region is None:
        vals = basis.totals.astype(float)
        support = tuple(basis.region.sites)
    else:
        cols = _region_columns(basis, region)
        vals = basis.occupations[:, cols].sum(axis=1).astype(float)
        support = tuple(region.sites)
    return _diag_operator(basis, vals, support=support)


def cutoff_projection(basis: FockBasis, Y: Region, lam: int) -> SparseOperator:
    """Projection onto configurations with at most ``lam`` particles on
    every site of Y.  Diagonal, idempotent, commutes with all number
    operators."""
    if lam < 0:
        raise InvalidArgumentError("cutoff level must be nonnegative")
    cols = _region_columns(basis, Y)
    if cols:
        ok = (basis.occupations[:, cols] <= lam).all(axis=1)
    else:
        ok = np.ones(basis.dimension, dtype=bool)
    return _diag_operator(basis, ok.astype(float), support=tuple(Y.sites))


def sandwich(P: SparseOperator, H: SparseOperator) -> SparseOperator:
    """P H P for a diagonal 0/1 projection P.

    Implemented by masking rows and columns, which keeps surviving entries
    bit-identical to H's; with P = identity the result equals H exactly.
    """
    _check_same_basis(P, H)
    if not P.diagonal:
        raise InvalidArgumentError("sandwich expects a diagonal projection")
    mask = P.matrix.diagonal()
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise InvalidArgumentError("sandwich expects a 0/1 projection")
    coo = H.matrix.tocoo()
    keep = (mask[coo.row] != 0.0) & (mask[coo.col] != 0.0)
    mat = sparse.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=H.matrix.shape
    )
    return SparseOperator(_pruned(mat), H.basis, H.hermitian, H.diagonal, H.support)


def same_matrix(A: SparseOperator, B: SparseOperator) -> bool:
    """Exact structural equality of the stored matrices (no tolerance)."""
    a, b = A.matrix, B.matrix
    return (
        a.shape == b.shape
        and a.nnz == b.nnz
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def commutator(A: SparseOperator, B: SparseOperator) -> SparseOperator:
    """A B - B A on a common basis."""
    _check_same_basis(A, B)
    if A.diagonal and B.diagonal:
        return zero_operator(A.basis)
    mat = _pruned((A.matrix @ B.matrix - B.matrix @ A.matrix).tocsr())
    return SparseOperator(mat, A.basis, False, support=_union_support(A.support, B.support))


def conserves_number(op: SparseOperator) -> bool:
    """True when no stored entry of ``op`` joins two different total
    particle numbers, so the operator is block-diagonal by sector."""
    return all(m == n for m, n in op.blocks)


def _exactly_hermitian(matrix) -> bool:
    """True when a sparse matrix equals its conjugate transpose entry for
    entry; O(nnz)."""
    return (matrix != matrix.conj().T).nnz == 0


def operator_norm(op, seed=None) -> float:
    """Largest singular value of an operator, exact.

    A dense array equal to its conjugate transpose entry for entry (the
    sector blocks of ``dynamics.heisenberg_blocks`` and the light-cone
    check's differences)
    takes one eigenvalue-only ``eigh``, its norm max |lambda|; any other
    dense array takes one SVD; one with no nonzero entry (an exact
    difference of equal operators) is 0.0 with neither.  A sparse matrix, bare
    or the ``matrix`` of a ``SparseOperator``, is block-diagonal over the
    connected components of its sparsity pattern, so its norm is the
    largest block norm; blocks of one size are stacked and take one
    batched SVD.  No flag of the operator is read: components are at least
    as fine as its sector blocks and its support blocks, and a matrix whose
    stored entries all sit on the diagonal gives 1x1 blocks, whose norm is
    its largest |entry| with no SVD.  A component above ``DENSE_NORM_CAP``
    raises ``ResourceLimitError``; an estimate, which could undercut a
    bound that scales with the norm, is never returned.

    ``seed`` is read by nothing; it is kept because the benchmark's
    ``thermal-spectral`` workload passes it.
    """
    mat = op.matrix if isinstance(op, SparseOperator) else op
    if not sparse.issparse(mat):
        dense = _real_if_exact(np.asarray(mat))
        if not dense.any():
            return 0.0
        if dense.ndim == 2 and np.array_equal(dense, dense.conj().T):
            eig = scipy.linalg.eigh(dense, eigvals_only=True, check_finite=False, driver="ev")
            return float(max(-eig[0], eig[-1]))
        return float(np.linalg.norm(dense, 2))
    if mat.shape[0] != mat.shape[1]:
        raise InvalidArgumentError(f"operator norm of a sparse matrix needs a square shape, got {mat.shape}")
    coo = sparse.coo_matrix(mat)
    coo.sum_duplicates()
    if coo.nnz == 0:
        return 0.0
    if np.array_equal(coo.row, coo.col):  # 1x1 components: the norm is max |entry|
        return float(np.abs(coo.data).max())
    labels, sizes = _components(coo)
    if sizes.max() > DENSE_NORM_CAP:
        raise ResourceLimitError(
            f"operator norm: a connected block of {sizes.max()} states is above "
            f"DENSE_NORM_CAP = {DENSE_NORM_CAP}; no estimate is returned"
        )
    stacks = _component_stacks(coo, _real_if_exact(coo.data), labels, sizes)
    return max(float(np.linalg.norm(stack, 2, axis=(1, 2)).max()) for _, stack in stacks)


def _components(coo):
    """(labels, sizes) of the connected components of the sparsity pattern
    of a square COO matrix: the component of each row, and the number of
    rows of each component."""
    # imported here: ``import bosonlr`` stays clear of csgraph's modules
    from scipy.sparse import csgraph

    pattern = sparse.csr_matrix((np.ones(coo.nnz), (coo.row, coo.col)), shape=coo.shape)
    _, labels = csgraph.connected_components(pattern, directed=False)
    return labels, np.bincount(labels)


def _component_stacks(coo, data, labels, sizes):
    """Per component size k, in ascending order, ``(rows, stack)``: the
    rows of each component of that size, ascending, as a (count, k) array,
    and the entries ``data`` of a COO matrix (duplicates summed) on them,
    as a (count, k, k) stack of dense blocks for one batched LAPACK call."""
    # position of each row inside its component, and of each component
    # among the components of its size
    order = np.argsort(labels, kind="stable")
    rank = np.empty_like(labels)
    rank[order] = np.arange(len(labels)) - (np.cumsum(sizes) - sizes)[labels[order]]
    slot = np.empty_like(sizes)
    comp = labels[coo.row]
    for size in np.unique(sizes):
        members = sizes == size
        count = np.count_nonzero(members)
        slot[members] = np.arange(count)
        sel = members[comp]
        stack = np.zeros((count, size, size), dtype=data.dtype)
        stack[slot[comp[sel]], rank[coo.row[sel]], rank[coo.col[sel]]] = data[sel]
        rows = np.empty((count, size), dtype=labels.dtype)
        inside = np.flatnonzero(members[labels])
        rows[slot[labels[inside]], rank[inside]] = inside
        yield rows, stack


def _real_if_exact(values: np.ndarray) -> np.ndarray:
    # a dense or bare scipy input may be complex with no imaginary entry
    # (the Heisenberg blocks at t = 0); a real SVD or eigvalsh costs half
    if np.iscomplexobj(values) and not values.imag.any():
        return values.real
    return values


_NAMED_FUNCTIONS = {
    "inv_one_plus_n": lambda n: 1.0 / (1.0 + n),
}


def local_observable(basis: FockBasis, spec: dict) -> SparseOperator:
    """Bounded gauge-invariant observable from a declarative spec.

    Supported kinds:

    * ``{"kind": "number_function", "site": x, "fn": name | [table] | callable}``
      -- a bounded function of the on-site particle number;
    * ``{"kind": "number_function", "sites": [..], "fn": callable}``
      -- a function of several on-site numbers (in-process use only);
    * ``{"kind": "indicator", "site": x, "level": k}`` -- the spectral
      projection onto n_x = k;
    * ``{"kind": "normalized_hop", "sites": [x, y]}`` -- the symmetrized
      hop divided by 2 sqrt(cap (cap + 1)), so its norm is at most one.

    The support region is recorded on the returned operator.
    """
    kind = spec.get("kind")
    if kind == "number_function":
        fn = spec.get("fn")
        sites = [spec["site"]] if "site" in spec else list(spec["sites"])
        occ = basis.occupations[:, [basis.site_column(s) for s in sites]]
        if callable(fn):
            vals = np.array([fn(*(int(v) for v in row)) for row in occ])
        elif len(sites) != 1:
            raise InvalidArgumentError("a function name or a table takes one site")
        elif isinstance(fn, str):
            if fn not in _NAMED_FUNCTIONS:
                raise InvalidArgumentError(f"unknown observable function {fn!r}")
            vals = _NAMED_FUNCTIONS[fn](occ[:, 0])  # elementwise, the bits of one call per state
        elif isinstance(fn, (list, tuple, np.ndarray)):
            table = np.asarray(fn, dtype=float)
            short = occ[:, 0] >= len(table)
            if short.any():
                raise InvalidArgumentError(
                    f"observable table of length {len(table)} too short for occupation {occ[short, 0][0]}"
                )
            vals = table[occ[:, 0]]
        else:
            raise InvalidArgumentError("number_function needs fn as name, table, or callable")
        return _diag_operator(basis, vals, support=tuple(sorted(sites)))
    if kind == "indicator":
        x, k = spec["site"], spec["level"]
        col = basis.site_column(x)
        return _diag_operator(basis, (basis.occupations[:, col] == k).astype(float), support=(x,))
    if kind == "normalized_hop":
        x, y = spec["sites"]
        cap = basis.site_cap if basis.site_cap is not None else basis.max_total
        cap = max(int(cap), 1)
        h = hop_term(basis, x, y)
        mat = _pruned(((h.matrix + h.matrix.conj().T) / (2.0 * np.sqrt(cap * (cap + 1.0)))).tocsr())
        return SparseOperator(mat, basis, True, support=(min(x, y), max(x, y)))
    raise InvalidArgumentError(f"unknown observable kind {kind!r}")

