"""Time evolution engines, the correlation kernel, and exact free-particle
references.

Two propagators: dense spectral (exact up to the eigensolver) for sector
blocks below ``DENSE_CAP``, each diagonalized as its even and odd halves
under the site reversal when it commutes with that reversal exactly, and
scipy's ``expm_multiply`` action of the sparse generator
(``_krylov_evolve``, engine "krylov") for everything else, which takes a
block of columns over a whole time grid in one call.
``correlations`` is the one kernel for every time-evolved expectation
and two-point value, for a pure or a thermal state, of many observable
pairs over a whole time grid.  Its dense route takes a thermal state into
the generator's eigenbasis once and sums spectrally, O(n^3) once per
sector pair and O(n^2) per time; a pure state propagates its one column
per time, and the sparse route propagates weighted columns over the grid.
``heisenberg_blocks`` evolves an observable over a time grid as its
nonzero sector blocks: one rotation into the eigenbasis per sector pair,
then phases and a back-rotation per time; ``heisenberg_operator`` is its
one-time scatter into a dense array.  Natural units throughout: hbar = 1,
time in inverse units of the hopping energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg
from scipy.linalg import blas

from .errors import InvalidArgumentError, ResourceLimitError
from .fock import FockBasis
from .operators import SparseOperator, _component_stacks, _components

DENSE_CAP = 4096
# smallest sector block diagonalized as two mirror halves: below it the
# fixed cost of a second eigh and the reordering outweighs the cubic saving
MIRROR_MIN = 64
# columns per dense propagation block: temporaries stay O(D * chunk)
PROPAGATE_CHUNK = 64
# smallest sparse block ``rotate`` takes over the rows it acts on: below it
# finding those rows costs more than the GEMM it saves.  Measured on a
# 2-CPU host, one BLAS thread, chain sectors: a two-site hop (half to two
# thirds of the rows active) took 1.0-1.5x the plain time up to 210 states
# and 0.6-0.8x from 220 on; a one-site 1/(1+n) crossed over near 165
ACTIVE_ROWS_MIN = 220
# smallest real symmetric block ``rotate_lower`` factors for two SYRKs:
# below it the components, batched eigh and row gathers (about 1 ms)
# cost more than the halved GEMM saves.  Measured as above, chain
# sectors, against ``rotate``: a two-site hop took 1.8-1.95x at 210-252
# states, 1.05x at 330 and 0.55-0.83x from 462 on (0.59x at 1,287); a
# one-site 1/(1+n) 1.3x at 330, 0.78-1.08x at 462-495, 0.61x at 1,287
SYRK_ROWS_MIN = 450


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector on a FockBasis, with a cached norm."""

    basis: FockBasis
    amplitudes: np.ndarray
    norm: float = field(default=float("nan"))

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InvalidArgumentError("state vector has non-finite amplitudes")
        if amps.shape != (self.basis.dimension,):
            raise InvalidArgumentError(
                f"amplitude shape {amps.shape} does not match basis dimension {self.basis.dimension}"
            )
        object.__setattr__(self, "amplitudes", amps)
        computed = float(np.linalg.norm(amps))
        if math.isnan(self.norm):
            object.__setattr__(self, "norm", computed)
        elif abs(self.norm - computed) > 1e-12 * max(1.0, computed):
            raise InvalidArgumentError("declared norm disagrees with amplitudes")


def basis_vector(basis: FockBasis, occ) -> StateVector:
    """Unit vector on a single occupation configuration."""
    amps = np.zeros(basis.dimension, dtype=np.complex128)
    amps[basis.index_of(occ)] = 1.0
    return StateVector(basis, amps)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a hermitian operator, grouped by particle-number sector.

    Columns of ``vectors`` are orthonormal eigenvectors; eigenpairs are
    ordered by (sector, energy) and each eigenvector carries a fixed global
    phase (largest-magnitude component real positive) so repeated runs are
    bit-reproducible.  ``vectors`` is float64 when the operator has no
    imaginary entry (a real symmetric generator has real eigenvectors) and
    complex128 otherwise; every method takes real or complex operands and
    multiplies a real block with ``_real_matmul``.
    """

    basis: FockBasis
    energies: np.ndarray
    vectors: np.ndarray
    sectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.energies.shape[0]

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied through the eigenbasis."""
        return self.propagate_block(amplitudes[:, None], t)[:, 0]

    def propagate_block(self, columns: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied to every column of a (D, k) block.

        The eigenvectors are block-diagonal by sector, so each sector n
        takes V_n (phases * V_n^* X_n) on its own rows; sectors where the
        block is zero are skipped, and no D x D temporary is formed.
        """
        out = np.zeros(columns.shape, dtype=np.complex128)
        phases = np.exp(-1j * self.energies * t)
        for _, sl in self.sector_slices():
            X = columns[sl]
            if not X.any():
                continue
            Vn = self.vectors[sl, sl]
            # conj(V_n^T conj(X)) = V_n^* X without copying conj(V_n); it is
            # real for real V_n and X, so the phases multiply out of place
            coeff = _real_matmul(Vn.T, X.conj()).conj() * phases[sl, None]
            out[sl] = _real_matmul(Vn, coeff)
        return out

    def rotate(self, matrix, rows: slice = slice(None), cols: slice | None = None) -> np.ndarray:
        """V^* M V: the operator in the eigenbasis (dense), or, for sector
        slices ``rows`` and ``cols`` (default: the same as ``rows``), the
        block V_m^* M_mn V_n.

        A sparse block of at least ``ACTIVE_ROWS_MIN`` rows and columns is
        rotated over the rows it acts on: with c its most frequent diagonal
        value (0 off the diagonal sector pairs), V_m^* M V_n is
        V_m[R]^* (M - cI)[R] V_n + cI, where R are the rows at which
        M - cI stores an entry.  A local observable leaves most rows alone
        (1/(1+n_x) is 1 wherever site x is empty), so the GEMM shrinks by
        the share of rows it touches.  A block that acts on every row keeps
        the plain formula, bit for bit.
        """
        cols = rows if cols is None else cols
        Vm, Vn = self.vectors[rows, rows], self.vectors[cols, cols]
        block = matrix[rows, cols]
        if sparse.issparse(block) and min(block.shape) >= ACTIVE_ROWS_MIN:
            block = block.tocsr()
            active, c = _active_rows(block, square=rows == cols)
            if active.size < block.shape[0]:
                if c:  # only on a square block
                    block = block - c * sparse.identity(block.shape[0], format="csr")
                out = _real_matmul(Vm[active].conj().T, _real_matmul(block[active], Vn))
                if c:
                    out[np.diag_indices(len(out))] += c
                return out
        return _real_matmul(Vm.conj().T, _real_matmul(block, Vn))

    def rotate_lower(self, matrix, rows: slice) -> np.ndarray:
        """The lower triangle of V_n^* M V_n for the sector slice ``rows``;
        the upper triangle of the result is unspecified.

        A real, exactly symmetric sparse block of at least
        ``SYRK_ROWS_MIN`` rows under real eigenvectors is factored
        instead of multiplied.  With c and R as in ``rotate``, M - cI is
        block-diagonal over the connected components of its pattern on R;
        one batched ``eigh`` per component size gives
        (M - cI)[r, r] = U diag(lam) U^T on each component's rows r, so with
        X+- = sqrt|lam+-| U+-^T V[r] over the positive and the other
        eigenvalues of all components, V^T M V = X+^T X+ - X-^T X- + cI:
        two ``dsyrk`` calls that write the lower triangle alone, half the
        flops of the GEMM in ``rotate``.  A block whose components are too
        large for that to pay, and any other block, takes ``rotate``.
        """
        V = self.vectors[rows, rows]
        n = V.shape[0]
        if n < SYRK_ROWS_MIN or np.iscomplexobj(V) or not sparse.issparse(matrix):
            return self.rotate(matrix, rows)
        block = matrix[rows, rows].tocsr()
        if np.iscomplexobj(block):
            if block.data.imag.any():
                return self.rotate(matrix, rows)
            block = block.real
        if (block != block.T).nnz:
            return self.rotate(matrix, rows)
        active, c = _active_rows(block, square=True)
        shifted = block[active][:, active] - c * sparse.identity(active.size, format="csr")
        coo = shifted.tocoo()
        coo.sum_duplicates()
        coo.eliminate_zeros()
        labels, sizes = _components(coo)
        # the component products cost 2 n sum k^2 flops, the SYRK saves
        # n^2 |R| over the GEMM
        if 2 * np.sum(sizes.astype(np.float64) ** 2) >= n * active.size > 0:
            return self.rotate(matrix, rows)
        # X+ fills X from the top, X- from the bottom
        X = np.empty((active.size, n))
        top, bottom = 0, active.size
        for comp_rows, stack in _component_stacks(coo, coo.data, labels, sizes):
            lam, U = np.linalg.eigh(stack)
            W = V[active[comp_rows]]
            if stack.shape[1] > 1:
                W = np.matmul(U.transpose(0, 2, 1), W)
            lam, W = lam.ravel(), W.reshape(lam.size, n)
            W *= np.sqrt(np.abs(lam))[:, None]
            pos = lam > 0
            k = np.count_nonzero(pos)
            np.compress(pos, W, axis=0, out=X[top : top + k])
            np.compress(~pos, W, axis=0, out=X[bottom - (lam.size - k) : bottom])
            top, bottom = top + k, bottom - (lam.size - k)
            del W
        out = np.zeros((n, n), order="F")
        for alpha, part in ((1.0, X[:top]), (-1.0, X[top:])):
            if len(part):
                out = blas.dsyrk(alpha, part.T, beta=1.0, c=out, lower=1, overwrite_c=1)
        out[np.diag_indices(n)] += c
        return out

    def sector_slices(self) -> list[tuple[int, slice]]:
        return self.basis.sector_slices()


def _real_matmul(a, b) -> np.ndarray:
    """a @ b for a dense or sparse ``a`` and a dense ``b``, never upcasting
    a real factor to complex.

    When exactly one factor is complex, the real one multiplies the real
    and the imaginary part of the other.  A complex vector takes two real
    GEMVs (a GEMM with two columns packs ``a`` first, which costs more than
    reading it twice); a complex block is read as the real matrix of its
    interleaved parts, one real GEMM on both at once.  A sparse complex
    ``a`` with no imaginary entry multiplies as real, giving a real result.
    """
    a_complex, b_complex = np.iscomplexobj(a), np.iscomplexobj(b)
    if sparse.issparse(a) and a_complex and not b_complex:
        out = a.real @ b
        return out + 1j * (a.imag @ b) if a.data.imag.any() else out
    if a_complex == b_complex:
        return a @ b
    if a_complex:  # dense complex @ real = (real^T @ complex^T)^T
        return _real_matmul(b.T, a.T).T
    if b.ndim == 1:
        return a @ b.real + 1j * (a @ b.imag)
    parts = np.ascontiguousarray(b).view(np.float64)
    return (a @ parts).view(np.complex128)


def _active_rows(block, square: bool):
    """(R, c) for a CSR block: c is the most frequent value on the
    diagonal of a square block (the smallest of equally frequent ones; 0.0
    when it is not real, or off the diagonal sector pairs), and R the rows
    where M - cI has a nonzero entry."""
    row_of = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    stored = block.data != 0
    if not square:
        return np.unique(row_of[stored]), 0.0
    diagonal = block.diagonal()
    values, counts = np.unique(diagonal, return_counts=True)
    c = values[np.argmax(counts)]
    c = float(c.real) if c.imag == 0 else 0.0
    active = diagonal != c
    active[row_of[stored & (block.indices != row_of)]] = True
    return np.flatnonzero(active), c


def _fix_phases(vecs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Scale each column, in place, so its largest-magnitude entry (the
    first, on ties) is real positive; real columns are scaled by +-1.
    Ties go to the smallest of ``rows``, the block rows that the rows of
    ``vecs`` stand for (default: their own order)."""
    mags = np.abs(vecs)
    if rows is None:
        first = np.argmax(mags, axis=0)
    else:
        order = np.argsort(rows)
        first = order[np.argmax(mags[order], axis=0)]
    pivots = vecs[first, np.arange(vecs.shape[1])]
    mags = np.abs(pivots)
    nonzero = mags > 0
    factors = np.ones_like(pivots)
    factors[nonzero] = np.conj(pivots[nonzero]) / mags[nonzero]
    vecs *= factors
    return vecs


def _mirror_layout(matrix, basis: FockBasis) -> list | None:
    """Per sector of ``basis`` (as ``sector_slices`` lists them), the rows
    of its block under the site reversal p (occupations read back to
    front): ``(q, a, b)`` with ``q`` the rows as [lo | fixed | hi], where
    lo[k] < hi[k] = p(lo[k]), ``a`` pairs and ``b - a`` fixed rows, or None
    for a sector without a pair or below ``MIRROR_MIN`` states.  None for
    the whole operator when no sector reaches ``MIRROR_MIN``, a reversed
    state lies outside the basis, or the diagonal of ``matrix`` already
    differs from its mirror image."""
    slices = basis.sector_slices()
    if all(sl.stop - sl.start < MIRROR_MIN for _, sl in slices):
        return None
    mirror = basis.lookup(basis.occupations[:, ::-1])
    diagonal = matrix.diagonal()
    if (mirror < 0).any() or not np.array_equal(diagonal[mirror], diagonal):
        return None
    rows = np.arange(basis.dimension)
    kind = np.sign(rows - mirror) + 1  # 0 lo, 1 fixed, 2 hi
    order = np.lexsort((np.minimum(rows, mirror), kind, basis.totals))
    layout = []
    for _, sl in slices:
        a, b = np.searchsorted(kind[order[sl]], (1, 2))
        big = a and sl.stop - sl.start >= MIRROR_MIN
        layout.append((order[sl] - sl.start, a, b) if big else None)
    return layout


def _mirror_eigh(block, q: np.ndarray, a: int, b: int, out: np.ndarray):
    """Eigenvalues of a sparse sector block through its two halves under
    the site reversal p, with the eigenvectors written into ``out`` (the
    block's zeroed slice of the result), or None, writing nothing, unless
    M[p(x), p(y)] == M[x, y] holds entry for entry (``q``, ``a``, ``b`` as
    in ``_mirror_layout``).

    M then commutes with p, so it is block-diagonal on the even vectors
    (e_lo + e_hi)/sqrt2 and the fixed e_x, where it reads
    [[M_ll + M_lh, sqrt2 M_lf], [sqrt2 M_fl, M_ff]], and on the odd
    vectors (e_lo - e_hi)/sqrt2, where it reads M_ll - M_lh.  The block is
    densified once, already permuted.  Each half's eigenvectors get their
    phases and go straight to their rows of ``out``; the columns are then
    merged by a stable sort on energy, even before odd on a tie.
    """
    # the dense block, rows and columns in the order q, scattered from the
    # CSR arrays: duplicates add up in storage order, as ``toarray`` adds them
    block, at = block.tocsr(), np.empty_like(q)
    at[q] = np.arange(q.size)
    m = np.zeros(block.shape, dtype=block.dtype)
    np.add.at(m, (np.repeat(at, np.diff(block.indptr)), at[block.indices]), block.data)
    lo, fx, hi = slice(0, a), slice(a, b), slice(b, None)
    if not (
        np.array_equal(m[hi, hi], m[lo, lo])
        and np.array_equal(m[hi, lo], m[lo, hi])
        and np.array_equal(m[hi, fx], m[lo, fx])
        and np.array_equal(m[fx, hi], m[fx, lo])
    ):
        return None
    odd = m[lo, lo] - m[lo, hi]
    even = m[:b, :b]
    even[lo, lo] += m[lo, hi]
    even[lo, fx] *= math.sqrt(2.0)
    even[fx, lo] *= math.sqrt(2.0)
    e_even, w_even = np.linalg.eigh(even)
    e_odd, w_odd = np.linalg.eigh(odd)
    del m, even, odd  # the dense block is read; free it before the phases
    w_even[lo] *= math.sqrt(0.5)
    w_odd *= math.sqrt(0.5)
    # a lo row comes before its hi image, so each half's own rows decide
    # the phase its columns would get in the whole block, and a hi row
    # copies (or negates) an already scaled lo row
    _fix_phases(w_even, q[:b])
    _fix_phases(w_odd, q[:a])
    energies = np.concatenate([e_even, e_odd])
    out[q[:b], :b] = w_even
    out[q[b:], :b] = w_even[lo]
    out[q[:a], b:] = w_odd
    out[q[b:], b:] = np.negative(w_odd, out=w_odd)
    # columns into (energy, even before odd) order, a band of rows at a time
    merged = np.argsort(energies, kind="stable")
    for start in range(0, q.size, PROPAGATE_CHUNK):
        band = out[start : start + PROPAGATE_CHUNK]
        band[:] = band[:, merged]
    return energies[merged]


def eigendecompose(H: SparseOperator, dense_cap: int = DENSE_CAP) -> SpectralDecomposition:
    """Full eigensystem of a hermitian operator, sector block by block.

    Each particle-number block is densified and diagonalized separately,
    which keeps sector labels exact; blocks larger than ``dense_cap``
    raise a resource error (use the sparse engine "krylov" instead).  When no
    stored entry of ``H`` has an imaginary part, the blocks are
    diagonalized as real symmetric matrices and ``vectors`` is float64;
    otherwise they are complex hermitian and ``vectors`` is complex128.

    A block of at least ``MIRROR_MIN`` states that equals its image under
    the site reversal entry for entry (a uniform chain, or a row-major
    grid under point inversion) is diagonalized as its even and odd halves
    (``_mirror_eigh``), about a quarter of the LAPACK work.  Any other
    block, or a basis not closed under the reversal, takes one ``eigh``,
    with the same bits as without the split.  Either way the eigenpairs
    are in (sector, energy) order with the phases of ``_fix_phases``.
    """
    if not H.hermitian:
        raise InvalidArgumentError("eigendecompose expects a hermitian operator")
    basis = H.basis
    dim = basis.dimension
    real = not H.matrix.data.imag.any()
    matrix = H.matrix.real if real else H.matrix
    energies = np.empty(dim)
    vectors = np.zeros((dim, dim), dtype=np.float64 if real else np.complex128)
    sectors = np.empty(dim, dtype=np.int64)
    slices = basis.sector_slices()
    layout = _mirror_layout(matrix, basis) or [None] * len(slices)
    for (n, sl), halves in zip(slices, layout):
        size = sl.stop - sl.start
        if size > dense_cap:
            raise ResourceLimitError(
                f"sector {n} has dimension {size}, above the dense cap {dense_cap}"
            )
        block = matrix[sl, sl]
        evals = None if halves is None else _mirror_eigh(block, *halves, vectors[sl, sl])
        if evals is None:
            evals, evecs = np.linalg.eigh(block.toarray())
            vectors[sl, sl] = _fix_phases(evecs)
        energies[sl] = evals
        sectors[sl] = n
    return SpectralDecomposition(basis, energies, vectors, sectors)


def _krylov_evolve(H, X: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) X for every t in ``times``, stacked as (len(times), D, k).

    scipy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33
    (2011) 488) works to double precision.  An ascending grid equal to
    ``np.linspace(t0, t1, n)`` takes its time-grid algorithm (section 5
    there), which selects the Taylor degree and step count once for the
    whole grid: one call from 0 to t1 - t0 on X propagated to t0 (one more
    call unless t0 = 0).  Any other list takes one call per time, and
    t = 0 is a copy.  It reads no spectral decomposition.
    """
    X = np.asarray(X, dtype=np.complex128)
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    span = times[-1] - times[0] if n else 0.0
    # scipy's grid algorithm (1.17) is wrong on a descending grid, divides
    # by zero when span * H underflows, and reuses the span's parameters
    # for the step to t0 (2e-10 off on [-1, -0.75]); a span that moves no
    # state past rounding gains nothing from it
    grid = span * np.abs(H.data).max(initial=0.0) > np.finfo(np.float64).eps

    def at(t):
        return X.copy() if t == 0.0 else scipy.sparse.linalg.expm_multiply(-1j * t * H, X)

    if grid and np.array_equal(times, np.linspace(times[0], times[-1], n)):
        return scipy.sparse.linalg.expm_multiply(
            -1j * H, at(times[0]), start=0.0, stop=span, num=n, endpoint=True
        )
    return np.stack([at(t) for t in times])


def _spectral_route(H, basis, decomposition, engine) -> SpectralDecomposition | None:
    """Check the generator against ``basis`` and resolve ``engine``: the
    decomposition the dense spectral route propagates with, or None for
    the sparse route.  "auto" is dense when a decomposition is supplied
    and sparse otherwise; "dense" computes the decomposition on demand."""
    if not H.hermitian:
        raise InvalidArgumentError("the generator must be hermitian")
    if H.basis.basis_id != basis.basis_id:
        raise InvalidArgumentError("state and generator live on different bases")
    if engine not in ("auto", "dense", "krylov"):
        raise InvalidArgumentError(f"unknown engine {engine!r}")
    if engine == "dense" or (engine == "auto" and decomposition is not None):
        return decomposition if decomposition is not None else eigendecompose(H)
    return None


def evolve_state(
    H: SparseOperator,
    psi: StateVector,
    t: float,
    decomposition: SpectralDecomposition | None = None,
    engine: str = "auto",
) -> StateVector:
    """exp(-i H t) applied to a state.

    Engine "auto" uses the dense spectral route when a decomposition is
    supplied and the sparse route "krylov" (``_krylov_evolve``: scipy's
    ``expm_multiply`` on the sparse generator, no decomposition) otherwise;
    "dense" computes the decomposition on demand.
    """
    decomp = _spectral_route(H, psi.basis, decomposition, engine)
    X = psi.amplitudes[:, None]
    U = _krylov_evolve(H.matrix, X, [t])[0] if decomp is None else decomp.propagate_block(X, t)
    return StateVector(psi.basis, U[:, 0])


def correlations(
    H: SparseOperator,
    state,
    pairs,
    times,
    decomposition: SpectralDecomposition | None = None,
    engine: str = "auto",
):
    """gamma(tau_t(A) B), gamma(B tau_t(A)) and gamma(tau_t(A)), with
    tau_t(A) = e^{iHt} A e^{-iHt}, for every pair (A, B) and every t in
    ``times``, as three complex arrays of shape (len(pairs), len(times));
    B = None makes all three the plain value.

    ``state`` is a StateVector or a thermal state, whose density-matrix
    eigenvectors evolve under ``H`` (which may differ from the state's own
    Hamiltonian, e.g. after a quench).  Engines are as in ``evolve_state``.
    The dense route of a thermal state is the double spectral sum of
    ``_thermal_correlations``: O(n^3) once per sector pair, then O(n^2)
    per time.  Every other case propagates weighted columns psi,
    PROPAGATE_CHUNK at a time, as one block [psi | B_1 psi | B_1^* psi |
    ...] (B^* psi left out for a hermitian B): a StateVector on the dense
    route takes one ``propagate_block`` call per time, since one column
    costs O(D^2) a time where rotating A costs O(D^3), and the sparse
    route takes one ``_krylov_evolve`` call over the grid, which reads no
    decomposition, so temporaries stay O(D chunk (1 + 2 len(pairs))).
    """
    if isinstance(state, StateVector):
        basis, weights, columns = state.basis, np.ones(1), state.amplitudes[:, None]
    else:  # thermal state (duck-typed to avoid a module cycle)
        basis, weights, columns = state.decomp.basis, state.weights, state.decomp.vectors
    decomp = _spectral_route(H, basis, decomposition, engine)
    if decomp is not None and not isinstance(state, StateVector):
        return _thermal_correlations(decomp, state, pairs, times)
    ab, ba, plain = np.zeros((3, len(pairs), len(times)), dtype=np.complex128)
    kept = np.flatnonzero(weights)
    for start in range(0, kept.size, PROPAGATE_CHUNK):
        cols = kept[start : start + PROPAGATE_CHUNK]
        psi = columns[:, cols]
        blocks = [psi]
        # per pair: the block holding B psi (AB's ket) and B^* psi (BA's bra)
        where = []
        for _, B in pairs:
            if B is None:
                where.append((0, 0))
                continue
            ket = len(blocks)
            blocks.append(_real_matmul(B.matrix, psi))
            if not B.hermitian:
                blocks.append(_real_matmul(B.matrix.conj().T, psi))
            where.append((ket, len(blocks) - 1))
        X = np.hstack(blocks)
        if decomp is None:
            grid = _krylov_evolve(H.matrix, X, times)
        else:
            grid = (decomp.propagate_block(X, t) for t in times)
        k, w = len(cols), weights[cols]
        for i, U in enumerate(grid):
            evolved = [U[:, b * k : (b + 1) * k] for b in range(len(blocks))]
            for p, (A, _) in enumerate(pairs):
                ket, bra = where[p]
                a_psi = A.matrix @ evolved[0]
                a_ket = a_psi if ket == 0 else A.matrix @ evolved[ket]
                plain[p, i] += np.einsum("ij,ij->j", evolved[0].conj(), a_psi) @ w
                ab[p, i] += np.einsum("ij,ij->j", evolved[0].conj(), a_ket) @ w
                ba[p, i] += np.einsum("ij,ij->j", evolved[bra].conj(), a_psi) @ w
    return ab, ba, plain


def _sector_pairs(matrix, basis: FockBasis) -> list[tuple[int, int]]:
    """The (row sector, column sector) pairs where ``matrix`` stores an
    entry, in ascending order."""
    coo = matrix.tocoo()
    found = np.unique(np.column_stack([basis.totals[coo.row], basis.totals[coo.col]]), axis=0)
    return [(int(m), int(n)) for m, n in found]


def _thermal_correlations(d: SpectralDecomposition, state, pairs, times):
    """``correlations`` of a thermal state on the dense route, as the exact
    double spectral sum over the eigenpairs (e, U) of the generator:
    gamma(tau_t(A) B) = sum_{m n} sum_kl e^{i(e_k - e_l)t} A~_kl M_lk over
    the sector pairs (m, n) where A has entries, with A~ = U_m^* A_mn U_n.

    Everything but the phases P = e^{-iet} is formed once.  The state's
    weighted columns on sector m, R_m = V_m sqrt(w_m), and their B-images
    go into the eigenbasis: Y_m = U_m^* R_m and Z_(n<-m) = U_n^* B_nm R_m,
    plus U_n^* (B^*)_nm R_m for BA's bra when B is not hermitian.  M is
    the Gram block Z_(n<-m) Y_m^* for AB, Y_n Z_(m<-n)^* for BA and
    Y_m Y_m^* for the plain value; each array is then
    einsum(conj(P_m), (A~ o M^T) P_n) over the whole grid.  A~ is rotated
    once per distinct A object of the call and sector pair.  Temporaries
    are O(n_m n_n) per sector pair, the size of the decomposition's own
    blocks, plus the O(D len(times)) phases.
    """
    slices = dict(d.sector_slices())
    weights = state.weights
    phases = np.exp(-1j * np.multiply.outer(d.energies, np.asarray(times, dtype=np.float64)))

    def into(n, X):
        """U_n^* X"""
        return _real_matmul(d.vectors[slices[n], slices[n]].conj().T, X)

    roots = {}
    for m, sl in slices.items():
        kept = np.flatnonzero(weights[sl])
        if kept.size:
            roots[m] = state.decomp.vectors[sl, sl][:, kept] * np.sqrt(weights[sl][kept])
    Y = {m: into(m, R) for m, R in roots.items()}

    def images(op):
        """Z_(n<-m) keyed (n, m), for every weighted sector m and every
        sector n that ``op`` reaches from it."""
        Z = {}
        for m, R in roots.items():
            image = _real_matmul(op[:, slices[m]], R)
            for n, sl in slices.items():
                if image[sl].any():
                    Z[n, m] = into(n, image[sl])
        return Z

    def gram(X, W):
        # X W^*; np.conjugate copies even a real W, so numpy never takes its
        # same-buffer SYRK path and Y Y^* has the bits of Z Y^* when Z == Y
        return _real_matmul(X, np.conjugate(W).T)

    def spectral_sum(terms):
        """sum_kl conj(P_mk) C_kl P_nl over the grid, summed over the
        (m, n, C) of ``terms``."""
        total = np.zeros(len(times), dtype=np.complex128)
        for m, n, C in terms:
            total += np.einsum("kt,kt->t", phases[slices[m]].conj(), _real_matmul(C, phases[slices[n]]))
        return total

    M_plain = {m: gram(Ym, Ym) for m, Ym in Y.items()}
    ab, ba, plain = np.zeros((3, len(pairs), len(times)), dtype=np.complex128)
    groups = {}
    for p, (A, _) in enumerate(pairs):
        groups.setdefault(id(A), (A, []))[1].append(p)
    for A, members in groups.values():
        rotated = {}

        def tilde(m, n):
            if (m, n) not in rotated:
                rotated[m, n] = d.rotate(A.matrix, slices[m], slices[n])
            return rotated[m, n]

        a_pairs = _sector_pairs(A.matrix, d.basis)
        plain_A = spectral_sum((m, n, tilde(m, n) * M_plain[m].T) for m, n in a_pairs if m == n and m in Y)
        for p in members:
            B = pairs[p][1]
            plain[p] = plain_A
            if B is None:
                ab[p] = ba[p] = plain_A
                continue
            Z = images(B.matrix)
            Zh = Z if B.hermitian else images(B.matrix.conj().T)
            ab[p] = spectral_sum((m, n, tilde(m, n) * gram(Z[n, m], Y[m]).T) for m, n in a_pairs if (n, m) in Z)
            ba[p] = spectral_sum((m, n, tilde(m, n) * gram(Y[n], Zh[m, n]).T) for m, n in a_pairs if (m, n) in Zh)
    return ab, ba, plain


def heisenberg_expectation(
    H: SparseOperator,
    A: SparseOperator,
    state,
    B: SparseOperator | None = None,
    t: float = 0.0,
    decomposition: SpectralDecomposition | None = None,
    engine: str = "auto",
) -> complex:
    """Expectation of the time-evolved observable, gamma(e^{iHt} A e^{-iHt} B),
    for a pure or a thermal state: one pair at one time of ``correlations``."""
    return complex(correlations(H, state, [(A, B)], [t], decomposition, engine)[0][0, 0])


def heisenberg_blocks(
    H: SparseOperator,
    A: SparseOperator,
    times,
    decomposition: SpectralDecomposition | None = None,
) -> list[dict[tuple[int, int], np.ndarray]]:
    """The nonzero sector blocks of e^{iHt} A e^{-iHt} for every t in
    ``times``: one dict {(m, n): block} per time.

    The eigenvectors are block-diagonal by sector, so only the sector pairs
    (m, n) where ``A`` has entries give a nonzero block,
    V_m (e^{iE_m t} A~_mn e^{-iE_n t}) V_n^*; a number-conserving ``A`` has
    the diagonal pairs only.  A~_mn = V_m^* A_mn V_n is rotated once per
    sector pair, and only the phases and the back-rotation are repeated per
    time, so the result holds len(times) sum_(m, n) n_m n_n entries and no
    D x D array.
    """
    d = decomposition if decomposition is not None else eigendecompose(H)
    slices = dict(d.sector_slices())
    rotated = {(m, n): d.rotate(A.matrix, slices[m], slices[n]) for m, n in _sector_pairs(A.matrix, d.basis)}
    out = []
    for t in times:
        phases = np.exp(1j * d.energies * t)
        blocks = {}
        for (m, n), tilde in rotated.items():
            sm, sn = slices[m], slices[n]
            evolved = (phases[sm, None] * tilde) * phases[sn].conj()
            Vm, Vn = d.vectors[sm, sm], d.vectors[sn, sn]
            blocks[m, n] = _real_matmul(_real_matmul(Vm, evolved), Vn.conj().T)
        out.append(blocks)
    return out


def heisenberg_operator(
    H: SparseOperator,
    A: SparseOperator,
    t: float,
    decomposition: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Dense e^{iHt} A e^{-iHt} through the spectral decomposition: the
    blocks of ``heisenberg_blocks`` at the one time ``t``, scattered into a
    D x D array that is zero off them."""
    d = decomposition if decomposition is not None else eigendecompose(H)
    slices = dict(d.sector_slices())
    out = np.zeros((d.dimension, d.dimension), dtype=np.complex128)
    for (m, n), block in heisenberg_blocks(H, A, [t], d)[0].items():
        out[slices[m], slices[n]] = block
    return out


def free_particle_amplitude(x: int, t: float) -> complex:
    """Amplitude at displacement x after free evolution from a point source.

    For the nearest-neighbor kinetic term at unit hopping the exact answer
    is i^{|x|} J_{|x|}(2t); the Bessel value is summed from its absolutely
    convergent power series with term-ratio termination at 1e-16, which is
    stable at all desk-scale arguments (upward recurrences are not).
    """
    n = abs(int(x))
    t = float(t)
    if t == 0.0:
        return complex(1.0 if n == 0 else 0.0)
    # leading term t^n / n!, through logs to dodge factorial overflow
    mag = math.exp(n * math.log(abs(t)) - math.lgamma(n + 1)) if n else 1.0
    term = mag if (t > 0 or n % 2 == 0) else -mag
    total = term
    k = 0
    while True:
        term *= -(t * t) / ((k + 1) * (k + n + 1))
        total += term
        k += 1
        if abs(term) <= 1e-16 * (abs(total) + 1e-300) or k > 1000:
            break
    return (1j**n) * total


def binomial_inverse_moment(m: int, p: float) -> float:
    """E[1 / (1 + X)] for X ~ Binomial(m, p), in closed form."""
    if m < 1:
        raise InvalidArgumentError("need at least one trial")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return 1.0
    return float((1.0 - (1.0 - p) ** (m + 1)) / ((m + 1) * p))


def inverse_moment_upper_bound(m: int, p: float) -> float:
    """Mean-plus-fluctuation upper bound (1 + sqrt(m(p - p^2))) / (m p)."""
    if p <= 0.0:
        return math.inf
    return float((1.0 + math.sqrt(m * (p - p * p))) / (m * p))


def condensate_nonlocality_expectation(m: int, x: int, t: float) -> float:
    """Expectation of 1/(1+N_x) after m condensate particles spread from the
    origin for time t: the occupation at x is Binomial(m, |amplitude|^2)."""
    if m < 1:
        raise InvalidArgumentError("condensate particle count m must be >= 1")
    p = abs(free_particle_amplitude(x, t)) ** 2
    return binomial_inverse_moment(m, min(p, 1.0))
