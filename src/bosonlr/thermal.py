"""Finite-volume thermal states and their equilibrium diagnostics.

The grand-canonical state is a sector-truncated Boltzmann ensemble over a
spectral decomposition; every state carries an estimate of the relative
weight of the neglected sectors (a geometric ratio test on the sector
partition sums, which assumes they keep decaying, so it is not a bound).
The two-point function extends off the real axis
to the strip -beta <= Im z <= 0 through the double spectral sum, which is
exact at finite dimension (``GreenFunction``: one block C = A~ o B~^T
per included sector, each from one ``SpectralDecomposition.strip_block``
call, only its lower triangle for a real hermitian pair; ``values`` is
the one code that evaluates points, and a point asked for alone goes
through it, a grid row at a time where it can; a real hermitian pair
evaluates one point of each exact time-mirror pair,
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
    elif decomposition.basis.basis_id != H.basis.basis_id:
        raise InvalidArgumentError("decomposition and Hamiltonian live on different bases")
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
    the bits it has in the whole product A V.  Neither A V nor V is
    formed whole: each chunk of columns comes from the sector arrays."""
    if A.basis.basis_id != state.basis.basis_id:
        raise InvalidArgumentError("observable lives on a different basis")
    d = state.decomp
    diag = []
    for cols in _chunks(d.dimension, PROPAGATE_CHUNK // 2):
        # two (D, width) arrays: the columns, contiguous for the sparse
        # product (formed with their zero rows, or copied from a view of
        # one sector's array by the product), and their image
        V = d._window(slice(None), cols)
        diag.append(np.einsum("ij,ij->j", V.conj(), _real_matmul(A.matrix, V)))
    return complex(np.dot(state.weights, np.concatenate(diag)))


def moment_sup(state, p: float) -> float:
    """max over sites x of the expectation of (1 + n_x)^p in a thermal
    state or in a pure StateVector (normalized here).  A thermal state's
    occupation probabilities (|V|^2) w are formed PROPAGATE_CHUNK rows
    of V at a time, formed from the sector arrays, each with the bits of
    the whole product."""
    if p < 1:
        raise InvalidArgumentError("moment exponent must satisfy p >= 1")
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
        probs = probs / probs.sum()
    else:
        d, parts = state.decomp, []
        for rows in _chunks(d.dimension):
            V = d._window(rows, slice(None))
            # |V| in place where the rows were formed, not viewed
            parts.append(_squared(np.abs(V, out=V if V.flags.owndata else None)) @ state.weights)
            del V  # freed before the next rows are formed
        probs = np.concatenate(parts)
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
    included sector keeps one block C_jk = A_jk B_kj, built by one
    ``SpectralDecomposition.strip_block`` call (only the lower triangle
    for a real hermitian pair, ``_real``) and read once per point.  Small
    sectors are not merged into larger blocks: on the six sectors of a
    grand-canonical 6-site chain to n = 5 (2-CPU host, one BLAS thread),
    a merge into [210 | 252] rows read a t-major 21 x 21 grid in
    13.6-22.8 ms against 14.3-23.0 ms as six blocks, within the spread
    between runs.

    ``values`` is the one code that evaluates F, by ``_points``; every
    value is cached per point.  ``__call__`` is a cache lookup in front
    of it, which reads points asked for one at a time a row at a time: it
    keeps the t of the last point read and the depths read at it, and a
    miss at a new t, at one of two or more of those depths, evaluates the
    new row at all of them in one ``values`` call; every other miss is
    ``values([z])``.  A t-major grid so takes its first row point by
    point and each later row as one ``dsymm``; s-major, shuffled and
    scattered reads form no row, and a caller leaving a grid evaluates at
    most one row it did not ask for, once.  Rows pay: on a 2-CPU host,
    one BLAS thread, the canonical 9-site chain with 5 particles, two
    ``dsymv`` take 0.33-0.35 ms a point and one ``dsymm`` on the 42
    columns of a 21-depth row 2.3-2.5 ms.  A point evaluated alone has
    the same bits whatever was read before it.  A point evaluated with
    others carries ``dsymm`` bits, which may differ from a lone
    evaluation in the last places (OpenBLAS changes a column's bits with
    the width of the call and the column's place in it): up to 3.2e-16,
    or 5.7e-15 of max |F|, on that grid.

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
        real = not any(map(np.iscomplexobj, (*decomp.sector_vectors, A.matrix, B.matrix)))
        self._real = self._hermitian and real
        slices = [sl for _, sl in state.included_slices()]
        # sectors ascend, so the included rows are the first ``_stop``
        self._stop = slices[-1].stop
        self._blocks = [(sl, decomp.strip_block(A.matrix, B.matrix, sl, self._real)) for sl in slices]
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

    def _points(self, t: np.ndarray, s: np.ndarray) -> list[complex]:
        """F(t - i s) at every (t, s) pair of two equal-length arrays.

        With a = e^{-(beta - s) g}, b = e^{-s g}, c = cos(Et) and
        n = sin(Et) over the included rows (the exponentials taken once,
        real factors at most 1), the bra is a(c + i n) and the ket
        b(c - i n), so C ket = u - i v with u = C (b c) and v = C (b n),
        and bra . C ket is a c . u + a n . v + i (a n . u - a c . v).  A
        real hermitian pair reads the lower triangle of each block: one
        point by two ``dsymv`` calls (one at t = 0, where n = 0 and the
        imaginary part is exactly 0) and four dot products, summed in
        Python floats, several by one ``dsymm`` on the columns [b c | b n]
        of all points.  Any other pair takes one product of its whole C
        with those columns: C is in Fortran order, so ``_real_matmul``
        reads a complex C's interleaved parts in place and forms no D x D
        array.
        """
        E, g = self.state.decomp.energies[: self._stop], self.state.shifted[: self._stop]
        k = len(t)
        # at most six (rows, points) arrays: the phase becomes cos, the
        # decays are negated and exponentiated in place, and a c, a n
        # overwrite cos and sin.  Each transcendental runs on a contiguous
        # array, so every value has the bits of the out-of-place form
        cos = np.multiply.outer(E, t)
        sin = np.sin(cos)
        np.cos(cos, out=cos)
        bra, ket = decays = np.empty((2, len(g), k))
        np.multiply.outer(g, self.beta - s, out=bra)
        np.multiply.outer(g, s, out=ket)
        np.exp(np.negative(decays, out=decays), out=decays)
        kets = np.empty((len(g), 2 * k))
        np.multiply(ket, cos, out=kets[:, :k])
        np.multiply(ket, sin, out=kets[:, k:])
        ac, an = np.multiply(bra, cos, out=cos), np.multiply(bra, sin, out=sin)
        del bra, ket, decays
        re = im = 0.0
        if self._real and k == 1:
            for rows, C in self._blocks:
                u = blas.dsymv(1.0, C, kets[rows, 0], lower=1)
                if t[0] == 0.0:
                    re += ac[rows, 0] @ u
                    continue
                v = blas.dsymv(1.0, C, kets[rows, 1], lower=1)
                re += ac[rows, 0] @ u + an[rows, 0] @ v
                im += an[rows, 0] @ u - ac[rows, 0] @ v
            # Python's complex division: numpy's differs in the last bit
            return [complex(re, im) / self.state.z_scaled]
        for rows, C in self._blocks:
            uv = blas.dsymm(1.0, C, kets[rows], lower=1) if self._real else _real_matmul(C, kets[rows])
            u, v = uv[:, :k], uv[:, k:]
            re = re + (ac[rows] * u + an[rows] * v).sum(axis=0)
            im = im + (an[rows] * u - ac[rows] * v).sum(axis=0)
        return ((re + 1j * im) / self.state.z_scaled).tolist()

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
            self.values([z, *(p for p in row if p != z and p not in self._cache)])
        return self._cache[z]

    def values(self, points) -> np.ndarray:
        """F at every point of ``points``, as one complex array.

        Uncached points are evaluated PROPAGATE_CHUNK at a time by
        ``_points``, one BLAS product per block (two ``dsymv`` calls for a
        lone point of a real hermitian pair); a real hermitian pair
        evaluates only the first point of each exact time-mirror pair and
        takes the other as its conjugate.  Every point is checked
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
        for start in range(0, len(todo), PROPAGATE_CHUNK):
            chunk = todo[start : start + PROPAGATE_CHUNK]
            t, s = np.array([z.real for z in chunk]), np.array([depth[z] for z in chunk])
            for z, value in zip(chunk, self._points(t, s)):
                self._keep(z, value)
        return np.array([self._cache[z] for z in zs], dtype=np.complex128)


def evolved_two_points(state: GibbsState, pairs, times, want=CORRELATION_ARRAYS):
    """``correlations`` of the state under its own Hamiltonian on the sparse
    route, the arrays named in ``want``: the oracle for the strip boundary
    values.  It reads the state's eigenvectors and weights, never its
    energies or the spectral sum."""
    return correlations(state.hamiltonian, state, pairs, times, engine="krylov", want=want)

