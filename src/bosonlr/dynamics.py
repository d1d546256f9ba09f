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
pairs over a whole time grid; it computes only the arrays its caller
names, each with the bits the full call gives it.  Its dense route takes
a thermal state into the generator's eigenbasis once and sums spectrally,
O(n^3) once per sector pair and O(n^2) per time; a pure state propagates
its one column per time, and the sparse route propagates weighted columns
over the grid.
``heisenberg_blocks`` evolves an observable over a time grid as its
nonzero sector blocks: one rotation into the eigenbasis per sector pair,
then phases and a back-rotation per time.  Natural units throughout: hbar = 1,
time in inverse units of the hopping energy.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg
from scipy.linalg import blas

from .errors import InvalidArgumentError, ResourceLimitError
from .fock import FockBasis
from .operators import SparseOperator, _component_stacks, _components, _exactly_hermitian

DENSE_CAP = 4096
# smallest sector block diagonalized as two mirror halves: below it the
# fixed cost of a second eigh and the reordering outweighs the cubic saving
MIRROR_MIN = 64
# columns per dense propagation block, and per rotation panel or factor
# batch (``_rotate_panels``, ``_syrk_factor``): temporaries stay O(D * chunk)
PROPAGATE_CHUNK = 64
# smallest real symmetric block ``_syrk_factor`` factors: below it the
# components, batched eigh and row gathers cost more than the halved GEMM
# saves.  Measured with the factor summed by two whole SYRKs, against
# ``rotate`` on a 2-CPU host, one BLAS thread, chain sectors, two runs:
# a two-site hop took 1.24-1.36x at 455-462 states, 1.07-1.10x at 715,
# 0.97-1.04x at 792 and 0.73-0.94x from 816 on (0.70x at 1,287); a
# one-site 1/(1+n) took 0.98-1.19x at 455-560 and 0.73-0.83x from 715
# on (0.65x at 1,287)
SYRK_ROWS_MIN = 800


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

    The eigenvectors are block-diagonal by sector, and only the blocks are
    stored: ``sector_vectors[k]`` is the (n_k, n_k) array of sector k in
    ``sector_slices()`` order, whose columns are orthonormal eigenvectors
    on that sector's rows, so a decomposition holds sum_k n_k^2 entries.
    Eigenpairs are ordered by (sector, energy), so eigenpair j lies in
    sector ``basis.totals[j]``, and each eigenvector carries a fixed global
    phase (largest-magnitude component real positive) so repeated runs are
    bit-reproducible.  The arrays are float64 for a real operator (a real
    symmetric generator has real eigenvectors) and complex128 for a
    complex one; every method takes real or complex operands and
    multiplies a real block with ``_real_matmul``.
    """

    basis: FockBasis
    energies: np.ndarray
    sector_vectors: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return self.energies.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """The D x D eigenvector matrix: on a single-sector basis the
        stored array itself, otherwise assembled on each read, with its
        off-sector blocks zero.  Nothing in the package reads it."""
        if len(self.sector_vectors) == 1:
            return self.sector_vectors[0]
        return self._window(slice(None), slice(None))

    def _window(self, rows: slice, cols: slice) -> np.ndarray:
        """``vectors[rows, cols]`` for two basic slices, from the sector
        arrays: a view of one sector's array where the window lies inside
        it (a sector's own slice twice gives the whole array), otherwise a
        new C-ordered array with the off-sector entries zero.  No array
        past the window is formed."""
        (r0, r1, _), (c0, c1, _) = rows.indices(self.dimension), cols.indices(self.dimension)
        for lo, hi, V in self._sectors:
            if lo <= min(r0, c0) and max(r1, c1) <= hi:
                return V[r0 - lo : r1 - lo, c0 - lo : c1 - lo]
        out = np.zeros((r1 - r0, c1 - c0), dtype=np.result_type(np.float64, *self.sector_vectors))
        for lo, hi, V in self._sectors:
            a, b, c, e = max(r0, lo), min(r1, hi), max(c0, lo), min(c1, hi)
            if a < b and c < e:
                out[a - r0 : b - r0, c - c0 : e - c0] = V[a - lo : b - lo, c - lo : e - lo]
        return out

    @functools.cached_property
    def _sectors(self) -> list[tuple[int, int, np.ndarray]]:
        """(first row, row stop, eigenvector array) per sector, formed once:
        ``_window`` reads it hundreds of times a pass."""
        return [(sl.start, sl.stop, V) for (_, sl), V in zip(self.sector_slices(), self.sector_vectors)]

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied through the eigenbasis."""
        return self.propagate_block(amplitudes[:, None], t)[:, 0]

    def propagate_block(self, columns: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) applied to every column of a (D, k) block.

        Each sector n takes V_n (phases * V_n^* X_n) on its own rows;
        sectors where the block is zero are skipped, and no D x D
        temporary is formed.
        """
        out = np.zeros(columns.shape, dtype=np.complex128)
        phases = np.exp(-1j * self.energies * t)
        for (_, sl), Vn in zip(self.sector_slices(), self.sector_vectors):
            X = columns[sl]
            if not X.any():
                continue
            # conj(V_n^T conj(X)) = V_n^* X without copying conj(V_n); it is
            # real for real V_n and X, so the phases multiply out of place
            coeff = _real_matmul(Vn.T, X.conj()).conj() * phases[sl, None]
            out[sl] = _real_matmul(Vn, coeff)
        return out

    def rotate(self, matrix, rows: slice = slice(None), cols: slice | None = None) -> np.ndarray:
        """V^* M V: the operator in the eigenbasis (dense), or, for sector
        slices ``rows`` and ``cols`` (default: the same as ``rows``), the
        block V_m^* M_mn V_n."""
        cols = rows if cols is None else cols
        Vm, Vn = self._window(rows, rows), self._window(cols, cols)
        return _real_matmul(Vm.conj().T, _real_matmul(matrix[rows, cols], Vn))

    def strip_block(self, A, B, rows: slice, lower: bool) -> np.ndarray:
        """C = A~ o B~^T, with X~ = V_n^* X V_n for the sector slice
        ``rows``: the matrix of the thermal strip sum (``GreenFunction``).

        For ``lower`` (real symmetric A and B under real eigenvectors, so
        A~ and B~ are symmetric and C_jk = A~_jk B~_jk) only the lower
        triangle is formed, in Fortran order; the upper triangle is
        unspecified.  A~ is summed as X+^T X+ - X-^T X- + cI by ``dsyrk``
        calls, one pair per batch of its SYRK factor (``_syrk_factor``), so
        the factor is never held whole, or filled from ``_rotate_panels``
        where A has no factor.  Otherwise all of C is formed, also in
        Fortran order, with A~ whole from ``rotate``.  Either way B~ is
        multiplied into A~'s buffer one column panel of ``_rotate_panels``
        at a time, so B~ is never held whole: past the eigenvectors a
        block peaks at about C plus B's factor, 1.45 D^2 doubles
        (tracemalloc) on the canonical 9-site chain with 5 particles
        (D = 1,287, a hop and a 1/(1+n)).
        """
        V = self._window(rows, rows)
        if not lower:
            # C^T = A~^T o B~ in C order, A~^T = conj(V^* A^H V): C comes out
            # in Fortran order, so a real block of columns multiplies a
            # complex C as one real GEMM on its interleaved parts, in place
            CT = self.rotate(A.conj().T, rows)
            CT = np.conjugate(CT, out=CT).astype(np.result_type(V, A, B), copy=False)
            for cols, panel in self._rotate_panels(B, rows):
                CT[:, cols] *= panel
                del panel  # one panel alive at a time
            return CT.T
        n = V.shape[0]
        C = np.zeros((n, n), order="F")
        factor = self._syrk_factor(A, rows)
        if factor is None:
            for cols, panel in self._rotate_panels(A, rows, lower=True):
                C[cols.start :, cols] = panel
                del panel
        else:
            c, _, batches = factor
            for pos, W in batches:
                for alpha, part in ((1.0, W[pos]), (-1.0, W[~pos])):
                    if len(part):
                        C = blas.dsyrk(alpha, part.T, beta=1.0, c=C, lower=1, overwrite_c=1)
                del W, part  # freed before the next batch is formed
            C[np.diag_indices(n)] += c
        for cols, panel in self._rotate_panels(B, rows, lower=True, factor=self._syrk_factor(B, rows)):
            C[cols.start :, cols] *= panel
            del panel
        return C

    def _rotate_panels(self, matrix, rows: slice, lower: bool = False, factor=None):
        """V_n^* M V_n for the sector slice ``rows`` as column panels of
        PROPAGATE_CHUNK columns: yields ``(cols, panel)`` with panel the
        rows ``lo:`` of the columns ``cols``, where lo is ``cols.start``
        for ``lower`` (the lower triangle of a real symmetric M, with the
        panel's upper corner unspecified) and 0 otherwise.  No n x n array
        is formed.

        With ``factor`` (M's ``_syrk_factor``, computed by the caller;
        ``lower`` only) the factor is taken whole, X with signs S (+1 for
        X+, -1 for X-): panel = X[:, lo:]^T (S X[:, cols]) + cI, one
        ``dgemm`` on views of X, the flops of the ``dsyrk`` pair.  Without,
        a panel is V[:, lo:]^* (M V[:, cols]); under real eigenvectors, one
        panel covering the block has the bits of ``rotate``.
        """
        V = self._window(rows, rows)
        n = V.shape[0]
        if factor is None:
            block = matrix[rows, rows]
        else:
            # the factor whole, in Fortran order: both GEMM operands below
            # are views of it, and each panel comes out in Fortran order
            c, size, batches = factor
            X, sign = np.empty((size, n), order="F"), np.empty((size, 1))
            at = 0
            for pos, W in batches:
                X[at : at + len(W)], sign[at : at + len(W), 0] = W, np.where(pos, 1.0, -1.0)
                at += len(W)
                del W  # freed before the next batch is formed
        for start in range(0, n, PROPAGATE_CHUNK):
            cols = slice(start, min(start + PROPAGATE_CHUNK, n))
            lo = start if lower else 0
            if factor is None:
                # V^* Y as conj(V^T conj Y): a complex V is never copied
                panel = _real_matmul(V[:, lo:].T, _real_matmul(block, V[:, cols]).conj()).conj()
            else:
                panel = blas.dgemm(1.0, X[:, lo:], sign * X[:, cols], trans_a=1)
                width = cols.stop - start
                panel[np.arange(width), np.arange(width)] += c
            yield cols, panel
            del panel  # one panel alive at a time, if the caller drops its own

    def _syrk_factor(self, matrix, rows: slice):
        """The factor of V_n^T M V_n for the sector slice ``rows`` that
        ``strip_block`` sums by ``dsyrk`` or hands to ``_rotate_panels``,
        or None where a GEMM is cheaper: ``(c, size, batches)``.

        A real, exactly symmetric sparse block of at least
        ``SYRK_ROWS_MIN`` rows under real eigenvectors is factored.  With
        c and R from ``_active_rows``, M - cI is block-diagonal over the
        connected components of its pattern on R; one batched ``eigh`` per
        component size gives (M - cI)[r, r] = U diag(lam) U^T on each
        component's rows r, so with X+- = sqrt|lam+-| U+-^T V[r] over the
        positive and the other eigenvalues of all components,
        V^T M V = X+^T X+ - X-^T X- + cI.  ``batches`` yields the
        ``size`` = |R| rows of X as ``(lam > 0, W)``, W = sqrt|lam| U^T V[r]
        over whole components of one size, at most PROPAGATE_CHUNK rows at
        a time (a larger component alone).  A block whose components are
        too large for the SYRK to pay, and any other block, gives None.
        """
        V = self._window(rows, rows)
        n = V.shape[0]
        if n < SYRK_ROWS_MIN or np.iscomplexobj(V) or np.iscomplexobj(matrix) or not sparse.issparse(matrix):
            return None
        block = matrix[rows, rows].tocsr()
        if (block != block.T).nnz:
            return None
        active, c = _active_rows(block)
        shifted = block[active][:, active] - c * sparse.identity(active.size, format="csr")
        coo = shifted.tocoo()
        coo.sum_duplicates()
        coo.eliminate_zeros()
        labels, sizes = _components(coo)
        # the component products cost 2 n sum k^2 flops, the SYRK saves
        # n^2 |R| over the GEMM
        if 2 * np.sum(sizes.astype(np.float64) ** 2) >= n * active.size > 0:
            return None

        def batches():
            for comp_rows, stack in _component_stacks(coo, coo.data, labels, sizes):
                lam, U = np.linalg.eigh(stack)
                step = max(1, PROPAGATE_CHUNK // stack.shape[1])
                for first in range(0, len(stack), step):
                    part = slice(first, first + step)
                    W = V[active[comp_rows[part]]]
                    if stack.shape[1] > 1:
                        W = np.matmul(U[part].transpose(0, 2, 1), W)
                    lam_part = lam[part].ravel()
                    W = W.reshape(lam_part.size, n)
                    W *= np.sqrt(np.abs(lam_part))[:, None]
                    yield lam_part > 0, W
                    del W  # freed before the next batch is formed

        return c, active.size, batches()

    def sector_slices(self) -> list[tuple[int, slice]]:
        return self.basis.sector_slices()


def _real_matmul(a, b) -> np.ndarray:
    """a @ b for a dense or sparse ``a`` and a dense ``b``, never upcasting
    a real factor to complex.

    When exactly one factor is complex, the real one multiplies the real
    and the imaginary part of the other.  A complex vector takes two real
    GEMVs (a GEMM with two columns packs ``a`` first, which costs more than
    reading it twice); a complex block is read as the real matrix of its
    interleaved parts, one real GEMM on both at once.
    """
    a_complex, b_complex = np.iscomplexobj(a), np.iscomplexobj(b)
    if sparse.issparse(a) and a_complex and not b_complex:
        return a.real @ b + 1j * (a.imag @ b)
    if a_complex == b_complex:
        return a @ b
    if a_complex:  # dense complex @ real = (real^T @ complex^T)^T
        return _real_matmul(b.T, a.T).T
    if b.ndim == 1:
        return a @ b.real + 1j * (a @ b.imag)
    parts = np.ascontiguousarray(b).view(np.float64)
    return (a @ parts).view(np.complex128)


def _active_rows(block):
    """(R, c) for a square CSR block: c is the most frequent value on its
    diagonal (the smallest of equally frequent ones; 0.0 when it is not
    real), and R the rows where M - cI has a nonzero entry."""
    row_of = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    diagonal = block.diagonal()
    values, counts = np.unique(diagonal, return_counts=True)
    c = values[np.argmax(counts)]
    c = float(c.real) if c.imag == 0 else 0.0
    active = diagonal != c
    active[row_of[(block.data != 0) & (block.indices != row_of)]] = True
    return np.flatnonzero(active), c


def _fix_phases(vecs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Scale each column, in place, so its largest-magnitude entry (the
    first, on ties) is real positive; real columns are scaled by +-1.
    Ties go to the smallest of ``rows``, the block rows that the rows of
    ``vecs`` stand for (default: their own order)."""
    real = not np.iscomplexobj(vecs)
    # where each column peaks, as booleans: only they are read in the
    # order of ``rows``.  A real column peaks at its max or its min,
    # whichever is larger in magnitude, and at both where max == -min:
    # no float copy of |vecs| is needed
    if real:
        hi, lo = vecs.max(axis=0), vecs.min(axis=0)
        peaks = vecs == np.where(hi >= -lo, hi, lo)
        both = np.flatnonzero(hi == -lo)
        peaks[:, both] |= vecs[:, both] == lo[both]
    else:
        mags = np.abs(vecs)
        peaks = mags == mags.max(axis=0)
    order = np.arange(len(vecs)) if rows is None else np.argsort(rows)
    first = order[np.argmax(peaks[order], axis=0)]
    pivots = vecs[first, np.arange(vecs.shape[1])]
    if real:  # a sign flip is exact: the bits of the general formula
        vecs *= np.where(pivots < 0, -1.0, 1.0)
        return vecs
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


def _mirror_eigh(block, q: np.ndarray, a: int, b: int):
    """Eigenvalues and eigenvectors of a sparse sector block through its
    two halves under the site reversal p, or None unless M[p(x), p(y)] ==
    M[x, y] holds entry for entry (``q``, ``a``, ``b`` as in
    ``_mirror_layout``).

    M then commutes with p, so it is block-diagonal on the even vectors
    (e_lo + e_hi)/sqrt2 and the fixed e_x, where it reads
    [[M_ll + M_lh, sqrt2 M_lf], [sqrt2 M_fl, M_ff]], and on the odd
    vectors (e_lo - e_hi)/sqrt2, where it reads M_ll - M_lh.  Both halves
    are filled from the stored entries, and the symmetry is checked on
    them, O(nnz log nnz): no dense copy of the whole block is formed.
    Each half's eigenvectors get their phases and go straight to their
    rows and their columns of the block's eigenvector array, merged by a
    stable sort on energy, even before odd on a tie.
    """
    n = q.size
    block, at = block.tocsr(), np.empty_like(q)
    at[q] = np.arange(n)
    # the stored entries at (row, column) in the order q, keyed row * n +
    # column: duplicates add up in storage order, as ``toarray`` adds them,
    # and zeros are dropped, so equal keys and values mean equal matrices
    stored = at[np.repeat(np.arange(n), np.diff(block.indptr))] * n + at[block.indices]
    keys, where = np.unique(stored, return_inverse=True)
    vals = np.zeros(keys.size, dtype=block.dtype)
    np.add.at(vals, where, block.data)
    keys, vals = keys[vals != 0], vals[vals != 0]
    rows, cols = np.divmod(keys, n)
    mirror = np.arange(n)  # p in the order q: lo k <-> hi b + k
    mirror[:a] += b
    mirror[b:] -= b
    image = mirror[rows] * n + mirror[cols]
    order = np.argsort(image)
    if not (np.array_equal(image[order], keys) and np.array_equal(vals[order], vals)):
        return None
    # one half at a time, each freed once diagonalized
    lo_row, inner, lh = rows < a, (rows < b) & (cols < b), (rows < a) & (cols >= b)
    even = np.zeros((b, b), dtype=block.dtype)
    cross = lo_row != (cols < a)  # M_lf and M_fl, on the inner entries
    even[rows[inner], cols[inner]] = np.where(cross, vals * math.sqrt(2.0), vals)[inner]
    even[rows[lh], cols[lh] - b] += vals[lh]
    e_even, w_even = np.linalg.eigh(even)
    del even
    # a lo row comes before its hi image, so each half's own rows decide
    # the phase its columns would get in the whole block, and a hi row
    # copies (or negates) an already scaled lo row
    w_even[:a] *= math.sqrt(0.5)
    _fix_phases(w_even, q[:b])
    ll = lo_row & (cols < a)
    odd = np.zeros((a, a), dtype=block.dtype)
    odd[rows[ll], cols[ll]] = vals[ll]
    odd[rows[lh], cols[lh] - b] -= vals[lh]
    e_odd, w_odd = np.linalg.eigh(odd)
    del odd
    w_odd *= math.sqrt(0.5)
    _fix_phases(w_odd, q[:a])
    energies = np.concatenate([e_even, e_odd])
    merged = np.argsort(energies, kind="stable")
    place = np.empty(n, dtype=np.intp)  # the column of each eigenpair
    place[merged] = np.arange(n)
    even_cols, odd_cols = place[:b], place[b:]
    out = np.zeros((n, n), dtype=block.dtype)  # the fixed rows of odd columns stay 0
    out[np.ix_(q[:b], even_cols)] = w_even
    out[np.ix_(q[b:], even_cols)] = w_even[:a]
    out[np.ix_(q[:a], odd_cols)] = w_odd
    out[np.ix_(q[b:], odd_cols)] = np.negative(w_odd, out=w_odd)
    return energies[merged], out


def eigendecompose(H: SparseOperator) -> SpectralDecomposition:
    """Full eigensystem of a hermitian operator, sector block by block.

    Each particle-number block is densified and diagonalized separately,
    which keeps sector labels exact; blocks larger than ``DENSE_CAP``
    raise a resource error (use the sparse engine "krylov" instead).
    Each block's eigenvectors are kept as their own array
    (``SpectralDecomposition.sector_vectors``), so no D x D array is
    formed.  They take the dtype of ``H.matrix``: a real ``H`` (float64 by
    the storage rule of ``SparseOperator``) is diagonalized as real
    symmetric blocks, a complex one as complex hermitian blocks.

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
    matrix = H.matrix
    energies, vectors = np.empty(basis.dimension), []
    slices = basis.sector_slices()
    layout = _mirror_layout(matrix, basis) or [None] * len(slices)
    for (n, sl), halves in zip(slices, layout):
        size = sl.stop - sl.start
        if size > DENSE_CAP:
            raise ResourceLimitError(f"sector {n} has dimension {size}, above the dense cap {DENSE_CAP}")
        block = matrix[sl, sl]
        pair = None if halves is None else _mirror_eigh(block, *halves)
        if pair is None:
            evals, evecs = np.linalg.eigh(block.toarray())
            pair = evals, _fix_phases(evecs)
        energies[sl] = pair[0]
        vectors.append(pair[1])
    return SpectralDecomposition(basis, energies, tuple(vectors))


def _krylov_evolve(H, X: np.ndarray, times) -> np.ndarray:
    """exp(-i H t) X for every t in ``times``, stacked as (len(times), D, k).

    scipy's ``expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33
    (2011) 488) works to double precision.  An ascending grid equal to
    ``np.linspace(t0, t1, n)`` takes its time-grid algorithm (section 5
    there), which selects the Taylor degree and step count once for the
    whole grid: one call from 0 to t1 - t0 on X propagated to t0 (one more
    call unless t0 = 0).  Any other list takes one call per time.  A step
    t with |t| ||H||_1 <= eps, t = 0 among them, moves no state past
    rounding and is a copy; an empty list gives an empty stack.  It reads
    no spectral decomposition.
    """
    X = np.asarray(X, dtype=np.complex128)
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    span = times[-1] - times[0] if n else 0.0
    # the exact 1-norm (largest column sum), which scipy's parameter
    # selection reads: where t ||H||_1 underflows, scipy (1.17) picks
    # s = 0 steps and divides by it.  Its grid algorithm is also wrong on
    # a descending grid and reuses the span's parameters for the step to
    # t0 (2e-10 off on [-1, -0.75])
    norm = float(np.asarray(abs(H).sum(axis=0)).max(initial=0.0))
    eps = np.finfo(np.float64).eps

    def at(t):
        return X.copy() if abs(t) * norm <= eps else scipy.sparse.linalg.expm_multiply(-1j * t * H, X)

    if span * norm > eps and np.array_equal(times, np.linspace(times[0], times[-1], n)):
        return scipy.sparse.linalg.expm_multiply(
            -1j * H, at(times[0]), start=0.0, stop=span, num=n, endpoint=True
        )
    return np.stack([at(t) for t in times]) if n else np.empty((0, *X.shape), dtype=np.complex128)


def _spectral_route(H, basis, decomposition, engine) -> SpectralDecomposition | None:
    """Check the generator and a supplied decomposition against ``basis``
    and resolve ``engine``: the decomposition the dense spectral route
    propagates with, or None for the sparse route.  "auto" is dense when a
    decomposition is supplied and sparse otherwise; "dense" computes the
    decomposition on demand."""
    if not H.hermitian:
        raise InvalidArgumentError("the generator must be hermitian")
    if H.basis.basis_id != basis.basis_id:
        raise InvalidArgumentError("state and generator live on different bases")
    if decomposition is not None and decomposition.basis.basis_id != basis.basis_id:
        raise InvalidArgumentError("state and decomposition live on different bases")
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


CORRELATION_ARRAYS = ("ab", "ba", "plain")


def correlations(
    H: SparseOperator,
    state,
    pairs,
    times,
    decomposition: SpectralDecomposition | None = None,
    engine: str = "auto",
    want=CORRELATION_ARRAYS,
):
    """gamma(tau_t(A) B) ("ab"), gamma(B tau_t(A)) ("ba") and gamma(tau_t(A))
    ("plain"), with tau_t(A) = e^{iHt} A e^{-iHt}, for every pair (A, B) and
    every t in ``times``: one complex array of shape (len(pairs),
    len(times)) per name in ``want``, in that order; B = None makes all
    three the plain value.  Only the arrays named in ``want`` are
    computed, and each has the same bits whichever others are named.

    ``state`` is a StateVector or a thermal state, whose density-matrix
    eigenvectors evolve under ``H`` (which may differ from the state's own
    Hamiltonian, e.g. after a quench).  Engines are as in ``evolve_state``.
    The dense route of a thermal state is the double spectral sum of
    ``_thermal_correlations``: O(n^3) once per sector pair, then O(n^2)
    per time.  Every other case propagates weighted columns psi,
    PROPAGATE_CHUNK at a time, as one block [psi | B_1 psi | B_2 psi | ...]
    and, when "ba" is wanted, a second block [B_j^* psi | ...] of the
    non-hermitian B_j; the first block is the same whatever is wanted,
    because the sparse route's step control reads the whole block.  A
    StateVector on the dense route takes one ``propagate_block`` call per
    block and time, since one column costs O(D^2) a time where rotating A
    costs O(D^3), and the sparse route takes one ``_krylov_evolve`` call per
    block over the grid, which reads no decomposition, so temporaries stay
    O(D chunk (1 + 2 len(pairs))).
    """
    want = tuple(want)
    if not want or not set(want) <= set(CORRELATION_ARRAYS):
        raise InvalidArgumentError(f"want names one or more of {CORRELATION_ARRAYS}, got {want!r}")
    pure = isinstance(state, StateVector)
    if pure:
        basis, weights = state.basis, np.ones(1)
    else:  # thermal state (duck-typed to avoid a module cycle)
        basis, weights = state.decomp.basis, state.weights
    decomp = _spectral_route(H, basis, decomposition, engine)
    if decomp is not None and not pure:
        return _thermal_correlations(decomp, state, pairs, times, want)
    out = {name: np.zeros((len(pairs), len(times)), dtype=np.complex128) for name in want}
    kept = np.flatnonzero(weights)
    for start in range(0, kept.size, PROPAGATE_CHUNK):
        cols = kept[start : start + PROPAGATE_CHUNK]
        if pure:
            psi = state.amplitudes[:, None]
        else:  # the kept columns of their D x (span of cols) window
            psi = state.decomp._window(slice(None), slice(cols[0], cols[-1] + 1))[:, cols - cols[0]]
        kets, bras = [psi], []
        # per pair: the block holding B psi (AB's ket) and B^* psi (BA's bra),
        # numbered across [kets | bras]
        where = []
        for _, B in pairs:
            if B is None:
                where.append((0, 0))
                continue
            kets.append(_real_matmul(B.matrix, psi))
            where.append((len(kets) - 1, len(kets) - 1))
        if "ba" in want:
            for p, (_, B) in enumerate(pairs):
                if B is not None and not B.hermitian:
                    bras.append(_real_matmul(B.matrix.conj().T, psi))
                    where[p] = (where[p][0], len(kets) + len(bras) - 1)
        grids = [_evolved(H, decomp, np.hstack(X), times) for X in (kets, bras) if X]
        k, w = len(cols), weights[cols]
        for i, U in enumerate(zip(*grids)):
            evolved = [part[:, b * k : (b + 1) * k] for part in U for b in range(part.shape[1] // k)]
            for p, (A, _) in enumerate(pairs):
                ket, bra = where[p]
                a_psi = A.matrix @ evolved[0]
                if "plain" in out:
                    out["plain"][p, i] += np.einsum("ij,ij->j", evolved[0].conj(), a_psi) @ w
                if "ab" in out:
                    a_ket = a_psi if ket == 0 else A.matrix @ evolved[ket]
                    out["ab"][p, i] += np.einsum("ij,ij->j", evolved[0].conj(), a_ket) @ w
                if "ba" in out:
                    out["ba"][p, i] += np.einsum("ij,ij->j", evolved[bra].conj(), a_psi) @ w
    return tuple(out[name] for name in want)


def _evolved(H, decomp, X, times):
    """exp(-i H t) X for every t in ``times``: through ``decomp``, one
    ``propagate_block`` call per time, or by ``_krylov_evolve`` when it is
    None."""
    if decomp is None:
        return _krylov_evolve(H.matrix, X, times)
    return (decomp.propagate_block(X, t) for t in times)


def _sector_pairs(matrix, basis: FockBasis) -> list[tuple[int, int]]:
    """The (row sector, column sector) pairs where ``matrix`` stores an
    entry, in ascending order."""
    coo = matrix.tocoo()
    # one integer key per entry, row total * width + column total: it sorts
    # as the (row, column) pairs do, and a 1-D unique is far cheaper
    width = basis.max_total + 1
    found = np.unique(basis.totals[coo.row] * width + basis.totals[coo.col])
    return [(int(m), int(n)) for m, n in zip(*np.divmod(found, width))]


def _thermal_correlations(d: SpectralDecomposition, state, pairs, times, want=CORRELATION_ARRAYS):
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
    once per distinct A object of the call and sector pair.  Only the
    arrays in ``want`` are summed, and only the images they read are
    formed.  Temporaries are O(n_m n_n) per sector pair, the size of the
    decomposition's own blocks, plus the O(D len(times)) phases.
    """
    slices = dict(d.sector_slices())
    U, V = dict(zip(slices, d.sector_vectors)), dict(zip(slices, state.decomp.sector_vectors))
    weights = state.weights
    phases = np.exp(-1j * np.multiply.outer(d.energies, np.asarray(times, dtype=np.float64)))

    def into(n, X):
        """U_n^* X"""
        return _real_matmul(U[n].conj().T, X)

    roots = {}
    for m, sl in slices.items():
        kept = np.flatnonzero(weights[sl])
        if kept.size:
            roots[m] = V[m][:, kept] * np.sqrt(weights[sl][kept])
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

    M_plain = {}
    out = {name: np.zeros((len(pairs), len(times)), dtype=np.complex128) for name in want}
    groups = {}
    for p, (A, _) in enumerate(pairs):
        groups.setdefault(id(A), (A, []))[1].append(p)
    for A, members in groups.values():
        rotated = {}
        a_pairs = _sector_pairs(A.matrix, d.basis)

        def tilde(m, n):
            if (m, n) not in rotated:
                rotated[m, n] = d.rotate(A.matrix, slices[m], slices[n])
            return rotated[m, n]

        if "plain" in out or any(pairs[p][1] is None for p in members):
            M_plain = M_plain or {m: gram(Ym, Ym) for m, Ym in Y.items()}
            plain_A = spectral_sum((m, n, tilde(m, n) * M_plain[m].T) for m, n in a_pairs if m == n and m in Y)
        for p in members:
            B = pairs[p][1]
            if B is None:
                for name in want:
                    out[name][p] = plain_A
                continue
            if "plain" in out:
                out["plain"][p] = plain_A
            if "ab" in out or ("ba" in out and B.hermitian):
                Z = images(B.matrix)
            if "ab" in out:
                out["ab"][p] = spectral_sum(
                    (m, n, tilde(m, n) * gram(Z[n, m], Y[m]).T) for m, n in a_pairs if (n, m) in Z
                )
            if "ba" in out:
                Zh = Z if B.hermitian else images(B.matrix.conj().T)
                out["ba"][p] = spectral_sum(
                    (m, n, tilde(m, n) * gram(Y[n], Zh[m, n]).T) for m, n in a_pairs if (m, n) in Zh
                )
    return tuple(out[name] for name in want)


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
    (ab,) = correlations(H, state, [(A, B)], [t], decomposition, engine, want=("ab",))
    return complex(ab[0, 0])


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
    D x D array.  When A equals its conjugate transpose entry for entry,
    each diagonal block is returned as (X + X^*)/2 of its back-rotation X,
    formed in place, so it is exactly hermitian, as tau_t(A) is, and not
    only up to rounding: ``operator_norm`` then takes its ``eigh`` route.
    Each block is formed with no spare block-sized temporary: the phases
    multiply a copy of A~ in place, and that copy is freed before the
    back-rotation's second product.  One time of a two-site hop on the
    9-site, 5-particle chain (D = 1,287) peaks (tracemalloc) at 7 D^2
    doubles, the result included.
    """
    d = decomposition if decomposition is not None else eigendecompose(H)
    hermitian = _exactly_hermitian(A.matrix)
    slices = dict(d.sector_slices())
    vecs = dict(zip(slices, d.sector_vectors))
    rotated = {(m, n): d.rotate(A.matrix, slices[m], slices[n]) for m, n in _sector_pairs(A.matrix, d.basis)}
    out = []
    for t in times:
        phases = np.exp(1j * d.energies * t)
        blocks = {}
        for (m, n), tilde in rotated.items():
            sm, sn = slices[m], slices[n]
            evolved = phases[sm, None] * tilde
            evolved *= phases[sn].conj()
            left = _real_matmul(vecs[m], evolved)
            del evolved  # freed before the back-rotation's product is formed
            X = _real_matmul(left, vecs[n].conj().T)
            del left
            if hermitian and m == n:  # in place: x 0.5 is exact, so the bits of 0.5 (X + X^*)
                X.real += X.real.T
                X.imag -= X.imag.T
                X *= 0.5
            blocks[m, n] = X
        out.append(blocks)
    return out


def free_particle_amplitude(x: int, t: float) -> complex:
    """Amplitude at displacement x after free evolution from a point source.

    For the nearest-neighbor kinetic term at unit hopping the exact answer
    is i^{|x|} J_{|x|}(2t), with the Bessel value from scipy's ``jv``.
    """
    # imported here: ``import bosonlr`` stays clear of scipy.special
    from scipy.special import jv

    n = abs(int(x))
    return complex((1j**n) * jv(n, 2.0 * float(t)))


def binomial_inverse_moment(m: int, p: float) -> float:
    """E[1 / (1 + X)] for X ~ Binomial(m, p), in closed form."""
    if m < 1:
        raise InvalidArgumentError("need at least one trial")
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 1.0 / (m + 1)
    # 1 - (1 - p)^(m + 1) without cancellation at small p
    return -math.expm1((m + 1) * math.log1p(-p)) / ((m + 1) * p)


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
