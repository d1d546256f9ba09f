"""Finite-volume thermal states and their equilibrium diagnostics.

The grand-canonical state is a sector-truncated Boltzmann ensemble over a
spectral decomposition; every state carries an estimate of the relative
weight of the neglected sectors (a geometric ratio test on the sector
partition sums, which assumes they keep decaying, so it is not a bound).
The two-point function extends off the real axis
to the strip -beta <= Im z <= 0 through the double spectral sum, which is
exact at finite dimension (``GreenFunction``: for a real hermitian pair
it builds and reads only the lower triangle of C = A~ o B~^T, one block
per sector, formed in A~'s buffer one column panel of B~ at a time, so
B~ is never held whole; it reads points asked for one at a time a grid
row at a time, and evaluates one point of each exact time-mirror pair,
F(-t - i s) = conj F(t - i s)); equilibrium checks compare it against
independently time-evolved expectations: ``evolved_two_points``, the
sparse route of ``dynamics.correlations`` over a whole time grid, which
reads no energies and no spectral sum.  ``gibbs_state`` is the one
constructor of both ensembles: canonical on a single-sector basis,
grand-canonical otherwise.  ``expectation`` and ``moment_sup`` read the
eigenvectors in chunks of columns or rows and form no D x D array.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .dynamics import (
    CORRELATION_ARRAYS,
    PROPAGATE_CHUNK,
    SpectralDecomposition,
    StateVector,
    _real_matmul,
    correlations,
    eigendecompose,
)
from .errors import (
    DivergingPartitionFunctionError,
    InvalidArgumentError,
    TruncationError,
)
from .operators import SparseOperator, _exactly_hermitian, conserves_number

DEFAULT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class GibbsState:
    """Thermal density matrix exp(-beta (H - mu N)) / Z, sector-truncated.

    ``weights[j]`` is the normalized Boltzmann weight of eigenpair j
    (zero beyond ``n_max``); ``shifted`` holds E_j - mu n_j minus its
    minimum, the overflow-safe exponents reused by the strip evaluation;
    ``tail_estimate`` estimates the relative weight of all neglected
    sectors (see ``gibbs_state``).
    """

    decomp: SpectralDecomposition
    hamiltonian: SparseOperator
    beta: float
    mu: float
    n_max: int
    weights: np.ndarray
    shifted: np.ndarray
    z_scaled: float
    tail_estimate: float

    @property
    def basis(self):
        return self.decomp.basis

    def included_slices(self):
        return [(n, sl) for n, sl in self.decomp.sector_slices() if n <= self.n_max]


def gibbs_state(
    H: SparseOperator,
    beta: float,
    mu: float = 0.0,
    n_max: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decomposition: SpectralDecomposition | None = None,
) -> GibbsState:
    """The thermal state of H: grand-canonical over sectors 0..n_max with
    an estimated tail, or canonical on a single-sector basis, where ``mu``
    and ``n_max`` are not read (the chemical potential drops out) and the
    tail is 0.

    The tail estimate extrapolates the sector partition sums geometrically:
    with q = z[n_max] / z[n_max - 1] < 1, it takes the neglected weight as
    z[n_max] q / (1 - q) relative to the kept sum.  That holds only while
    the ratio of successive sector sums keeps falling past n_max, which
    nothing checks, so the value is an estimate, not a bound.  Sector sums
    that do not decay at the edge (q >= 1) mean the chemical potential is
    too large for the model, and the state is refused.
    """
    if beta <= 0:
        raise InvalidArgumentError("inverse temperature must be positive")
    canonical = H.basis.sector is not None
    if canonical:
        mu, n_max = 0.0, H.basis.sector
    elif n_max is None or n_max < 1:
        raise InvalidArgumentError("need n_max >= 1 on a multi-sector basis: sectors 0 and 1 for the ratio test")
    if decomposition is None:
        decomposition = eigendecompose(H)
    missing = set(range(n_max + 1)) - {n for n, _ in decomposition.sector_slices()}
    if missing and not canonical:
        raise InvalidArgumentError(f"spectra for sectors {sorted(missing)} are not available")
    G = decomposition.energies - mu * decomposition.basis.totals
    shifted = G - G.min()
    boltzmann = np.exp(-beta * shifted)
    z_sector: dict[int, float] = {}
    weights = np.zeros_like(boltzmann)
    for n, sl in decomposition.sector_slices():
        z_sector[n] = float(boltzmann[sl].sum())
        if n <= n_max:
            weights[sl] = boltzmann[sl]
    z_scaled = float(sum(z for n, z in z_sector.items() if n <= n_max))
    weights /= z_scaled
    tail = 0.0
    if not canonical:
        q = z_sector[n_max] / z_sector[n_max - 1]
        if q >= 1.0:
            raise DivergingPartitionFunctionError(
                f"sector sums are not decaying at the truncation edge (q = {q:.3f}); "
                "lower the chemical potential or raise n_max"
            )
        tail = z_sector[n_max] * q / (1.0 - q) / z_scaled
        if tail >= tail_tol:
            raise TruncationError(
                f"estimated tail {tail:.3e} exceeds the configured tolerance {tail_tol:.1e}; "
                "raise n_max"
            )
    return GibbsState(
        decomp=decomposition,
        hamiltonian=H,
        beta=float(beta),
        mu=float(mu),
        n_max=int(n_max),
        weights=weights,
        shifted=shifted,
        z_scaled=z_scaled,
        tail_estimate=float(tail),
    )


def fixed_sector_gibbs(
    H: SparseOperator,
    beta: float,
    decomposition: SpectralDecomposition | None = None,
) -> GibbsState:
    """The canonical ``gibbs_state`` of H on its single-sector basis, under
    the name the benchmark's ``thermal-spectral`` workload and span tracer
    call."""
    return gibbs_state(H, beta, decomposition=decomposition)


def expectation(state: GibbsState, A: SparseOperator) -> complex:
    """Trace of the density matrix against A: sum_j w_j (V^* A V)_jj,
    summed PROPAGATE_CHUNK / 2 columns of V at a time, each column with
    the bits it has in the whole product A V, which is never formed."""
    if A.basis.basis_id != state.basis.basis_id:
        raise InvalidArgumentError("observable lives on a different basis")
    V = state.decomp.vectors
    # a chunk holds two (D, width) arrays: the columns, copied
    # contiguous for the sparse product, and their image
    diag = np.concatenate(
        [
            np.einsum("ij,ij->j", V[:, cols].conj(), _real_matmul(A.matrix, V[:, cols]))
            for cols in _chunks(V.shape[1], PROPAGATE_CHUNK // 2)
        ]
    )
    return complex(np.dot(state.weights, diag))


def moment_sup(state, p: float) -> float:
    """max over sites x of the expectation of (1 + n_x)^p in a thermal
    state or in a pure StateVector (normalized here).  A thermal state's
    occupation probabilities (|V|^2) w are formed PROPAGATE_CHUNK rows
    of V at a time, each with the bits of the whole product."""
    if p < 1:
        raise InvalidArgumentError("moment exponent must satisfy p >= 1")
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
        probs = probs / probs.sum()
    else:
        V = state.decomp.vectors
        probs = np.concatenate([_squared(np.abs(V[rows])) @ state.weights for rows in _chunks(V.shape[0])])
    occ = state.basis.occupations
    return float(np.max(((1.0 + occ) ** float(p)).T @ probs))


def _chunks(n: int, width: int = PROPAGATE_CHUNK):
    """Slices of ``width`` indices covering range(n)."""
    return [slice(start, start + width) for start in range(0, n, width)]


def _squared(x: np.ndarray) -> np.ndarray:
    """x ** 2, in place."""
    return np.square(x, out=x)


def _require_number_conserving(op: SparseOperator, name: str):
    if not conserves_number(op):
        raise InvalidArgumentError(f"{name} must conserve the total particle number")


class GreenFunction:
    """Two-point function of a thermal state on the strip -beta <= Im z <= 0.

    F(t) is the time-ordered expectation of the evolved first observable
    against the second; F(t - i beta) swaps the operator order.  Values
    come from the double spectral sum with overflow-safe exponents, O(D^2)
    per point after a one-time O(D^3) rotation into the eigenbasis: each
    included sector keeps one block C_jk = A_jk B_kj, read once per point
    (the BLAS calls below are per block).  Small sectors are not merged
    into larger blocks: on the six sectors of a grand-canonical 6-site
    chain to n = 5 (2-CPU host, one BLAS thread), a merge into [210 | 252]
    rows read a t-major 21 x 21 grid in 13.6-22.8 ms against 14.3-23.0 ms
    as six blocks, within the spread between runs.

    A real hermitian pair (``_real``) builds and reads only the lower
    triangle of C: A~ and B~ are symmetric, so C_jk = A~_jk B~_jk there.
    A~ comes from ``SpectralDecomposition.rotate_lower`` (``dsyrk`` calls
    over batches of its factor for a local observable on a sector of at
    least ``SYRK_ROWS_MIN`` states), and B~ is multiplied into it in place,
    one column panel of ``_rotate_panels`` at a time, so B~ is never held
    whole; any other pair multiplies the rows of B~^T into A~ the same
    way.  Past the eigenvectors, the build so peaks at about C plus B's
    factor: 1.45 D^2 doubles (tracemalloc) on the canonical 9-site chain
    with 5 particles (D = 1,287, a hop and a 1/(1+n)), where A~, B~ and
    a factor held at once took 2.39 D^2.  Under real eigenvectors, a
    block of at most PROPAGATE_CHUNK states outside the SYRK route fits
    one panel and has the bits of two whole ``rotate`` calls.
    Its points are summed in real arithmetic (``_real_points``): a lone
    point takes two ``dsymv`` calls per block, a list of points one
    ``dsymm``.  Any other pair reads the whole of C (``_sum``).
    Evaluations are cached per point.

    Points asked for one at a time are read a row at a time: ``__call__``
    keeps the t of the last point read and the depths read at it, and a
    miss at a new t, at one of two or more of those depths, evaluates the
    new row at all of them in one ``values`` call.  Every other miss is a
    lone point, which forms its own factors.  A t-major grid so takes its
    first row point by point and each later row as one ``dsymm``; s-major,
    shuffled and scattered reads form no row, and a caller leaving a grid
    evaluates at most one row it did not ask for, once.  Measured on a
    2-CPU host, one BLAS thread, the canonical 9-site chain with 5
    particles (D = 1,287): two ``dsymv`` 0.33-0.35 ms a point, its
    factors 52-56 us; one ``dsymm`` on 2 columns 0.8-1.1 ms, on the 42
    columns of a 21-depth row 2.3-2.5 ms; the 21 x 21 grid read t-major
    142-149 ms point by point, 69-71 ms a row at a time.  A point
    evaluated alone has the same bits whatever was read before it.  A
    point first evaluated in a row, like every point of ``values``,
    carries ``dsymm`` bits, which may differ from a lone evaluation in the
    last places (OpenBLAS changes a column's bits with the width of the
    call and the column's place in it): up to 3.2e-16, or 5.7e-15 of
    max |F|, on that grid.

    A real pair under a real generator is time-reversal symmetric:
    F(-t - i s) = conj F(t - i s) (Bratteli & Robinson, vol. 2, 5.3).
    So evaluating a real hermitian pair at t - i s also caches the
    conjugate at the exact key -t - i s, never over a computed value,
    and ``values`` evaluates one point of each such pair.  The folded
    value has the bits of a direct evaluation at -t by the same kernel
    (alone, or in a row of the same depths): cos is even and sin
    odd to the last bit, and every product and sum of the point negates
    exactly.  Only exact mirrors fold: the 21 x 21 grid on
    ``np.linspace(-2, 2, 21)`` pairs t = +-1.0, +-1.6 and +-2.0 (126 of
    441 points, 63 evaluations saved), an 11 x 11 ``kms`` grid on [-1, 1]
    t = +-0.8 and +-1.0 (22 saved).  A complex or non-hermitian pair is
    never folded, and the reflection s -> beta - s, which does not hold
    bit for bit, is not used.
    """

    def __init__(self, state: GibbsState, A: SparseOperator, B: SparseOperator):
        if A.basis.basis_id != state.basis.basis_id or B.basis.basis_id != state.basis.basis_id:
            raise InvalidArgumentError("observables live on a different basis")
        _require_number_conserving(A, "first observable")
        _require_number_conserving(B, "second observable")
        self.state = state
        self.beta = state.beta
        decomp = state.decomp
        # from the stored matrices, not the flags a caller may have set wrongly
        self._hermitian = _exactly_hermitian(A.matrix) and _exactly_hermitian(B.matrix)
        real = not any(map(np.iscomplexobj, (decomp.vectors, A.matrix, B.matrix)))
        self._real = self._hermitian and real
        slices = [sl for _, sl in state.included_slices()]
        # sectors ascend, so the included rows are the first ``_stop``
        self._stop = slices[-1].stop
        dtype = np.result_type(decomp.vectors, A.matrix, B.matrix)
        self._blocks = []
        for sl in slices:
            # C is formed in A~'s buffer, one column panel of B~ at a time,
            # so B~ is never held whole, and each panel is dropped before
            # the next is formed
            if self._real:
                # the lower triangle, in Fortran order, so the symmetric
                # BLAS calls read it in place
                C = decomp.rotate_lower(A.matrix, sl)
                for cols, panel in decomp._rotate_panels(B.matrix, sl, lower=True):
                    C[cols.start :, cols] *= panel
                    del panel
            else:
                # all of C = A~ o B~^T: rows ``cols`` of B~^T per panel
                C = decomp.rotate(A.matrix, sl).astype(dtype, copy=False)
                for cols, panel in decomp._rotate_panels(B.matrix, sl):
                    C[cols] *= panel.T
                    del panel
            self._blocks.append((sl, C))
        self._cache: dict[complex, complex] = {}
        # the real part of the last point read, and the depths read at it
        # (clamped, in first-read order): the row a new t may batch
        self._row_t: float | None = None
        self._row_depths: dict[float, None] = {}

    def _depth(self, z: complex) -> float:
        """-Im z clamped to [0, beta]; a point off the strip raises."""
        s = -z.imag
        if not -1e-12 <= s <= self.beta + 1e-12:
            raise InvalidArgumentError(
                f"point {z} lies outside the strip -beta <= Im z <= 0 (beta = {self.beta})"
            )
        return min(max(s, 0.0), self.beta)

    def _phases_at(self, t):
        """[cos Et; sin Et] over the included rows: (2, rows) for a scalar
        t, (2, rows, points) for an array."""
        phase = np.multiply.outer(self.state.decomp.energies[: self._stop], t)
        return np.stack([np.cos(phase), np.sin(phase)])

    def _decays_at(self, s):
        """[e^{-(beta - s) g}; e^{-s g}] over the included rows, shaped as
        in ``_phases_at``."""
        shifted = self.state.shifted[: self._stop]
        return np.exp(-np.stack([np.multiply.outer(shifted, self.beta - s), np.multiply.outer(shifted, s)]))

    def _sum(self, t, s):
        """F(t - i s) for scalar t and s, or for equal-length arrays: the
        bra and ket are vectors or (D_n, points) blocks.  The exponentials
        are taken once over all included rows, sharing the phase
        e^{-iEt}: bra = e^{-(beta - s) g} conj(phase), ket = e^{-s g} phase,
        both real factors at most 1.  ``_real_matmul`` reads the whole of
        C: two real GEMVs for one point of a real C, otherwise one GEMV or
        GEMM."""
        outer = np.multiply.outer
        shifted = self.state.shifted[: self._stop]
        phase = np.exp(-1j * outer(self.state.decomp.energies[: self._stop], t))
        bra = np.exp(-outer(shifted, self.beta - s)) * phase.conj()
        ket = np.exp(-outer(shifted, s)) * phase
        total = 0.0
        for rows, C in self._blocks:
            total += np.einsum("i...,i...->...", bra[rows], _real_matmul(C, ket[rows]))
        return total / self.state.z_scaled

    def _real_points(self, t, s):
        """F(t - i s) for a real hermitian pair in real arithmetic, at one
        point (scalar t and s) or at every (t, s) pair of two equal-length
        arrays.  With a = e^{-(beta - s) g}, b = e^{-s g}, c = cos(Et) and
        n = sin(Et), the bra is a(c + i n) and the ket b(c - i n), so
        C ket = u - i v with u = C (b c) and v = C (b n), read from the
        lower triangle of each block, and bra . C ket is
        a c . u + a n . v + i (a n . u - a c . v).  One point takes two
        ``dsymv`` calls per block, or one at t = 0, where n = 0 and the
        imaginary part is exactly 0; arrays take one ``dsymm`` per block
        on the columns [b c | b n] of all points."""
        (cos, sin), (bra, ket) = self._phases_at(t), self._decays_at(s)
        ac, an, bc, bn = bra * cos, bra * sin, ket * cos, ket * sin
        re = im = 0.0
        if np.ndim(t) == 0:
            for rows, C in self._blocks:
                u = blas.dsymv(1.0, C, bc[rows], lower=1)
                if t == 0.0:
                    re += ac[rows] @ u
                    continue
                v = blas.dsymv(1.0, C, bn[rows], lower=1)
                re += ac[rows] @ u + an[rows] @ v
                im += an[rows] @ u - ac[rows] @ v
            return complex(re, im) / self.state.z_scaled
        kets = np.concatenate([bc, bn], axis=1)
        for rows, C in self._blocks:
            uv = blas.dsymm(1.0, C, kets[rows], lower=1)
            u, v = uv[:, : len(t)], uv[:, len(t) :]
            re = re + (ac[rows] * u + an[rows] * v).sum(axis=0)
            im = im + (an[rows] * u - ac[rows] * v).sum(axis=0)
        return (re + 1j * im) / self.state.z_scaled

    def _keep(self, z: complex, value: complex):
        """Cache F(z); for a real hermitian pair also F(-t - i s) =
        conj F(t - i s) at the exact mirror key, unless that is cached."""
        self._cache[z] = value
        if self._real:
            self._cache.setdefault(complex(-z.real, z.imag), value.conjugate())

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        t, s = z.real, self._depth(z)
        row = []
        if t != self._row_t:
            if len(self._row_depths) > 1 and s in self._row_depths:
                row = [complex(t, -d) for d in self._row_depths]
            self._row_t, self._row_depths = t, {}
        self._row_depths.setdefault(s)
        if z not in self._cache:
            row = [p for p in row if p != z and p not in self._cache]
            if row:
                self.values([z, *row])
            else:
                point = self._real_points if self._real else self._sum
                self._keep(z, complex(point(t, s)))
        return self._cache[z]

    def values(self, points) -> np.ndarray:
        """F at every point of ``points``, as one complex array.

        Uncached points are evaluated PROPAGATE_CHUNK at a time, one
        ``dsymm`` (real hermitian pair) or GEMM per block; a real hermitian
        pair evaluates only the first point of each exact time-mirror pair
        and takes the other as its conjugate.  Every point is checked
        against the strip before any is evaluated, and the values join the
        per-point cache.
        """
        zs = [complex(z) for z in points]
        depth = {z: self._depth(z) for z in zs}
        todo = [z for z in depth if z not in self._cache]
        if self._real:  # the first point of each exact mirror pair
            first = {}
            for z in todo:
                first.setdefault(complex(abs(z.real), z.imag), z)
            todo = list(first.values())
        evaluate = self._real_points if self._real else self._sum
        for start in range(0, len(todo), PROPAGATE_CHUNK):
            chunk = todo[start : start + PROPAGATE_CHUNK]
            t, s = np.array([z.real for z in chunk]), np.array([depth[z] for z in chunk])
            for z, value in zip(chunk, evaluate(t, s).tolist()):
                self._keep(z, value)
        return np.array([self._cache[z] for z in zs], dtype=np.complex128)


def evolved_two_points(state: GibbsState, pairs, times, want=CORRELATION_ARRAYS):
    """``correlations`` of the state under its own Hamiltonian on the sparse
    route, the arrays named in ``want``: the oracle for the strip boundary
    values.  It reads the state's eigenvectors and weights, never its
    energies or the spectral sum."""
    return correlations(state.hamiltonian, state, pairs, times, engine="krylov", want=want)

