"""Finite-volume thermal states and their equilibrium diagnostics.

The grand-canonical state is a sector-truncated Boltzmann ensemble over a
spectral decomposition; every state carries an estimate of the relative
weight of the neglected sectors (a geometric ratio test on the sector
partition sums, which assumes they keep decaying, so it is not a bound).
The two-point function extends off the real axis
to the strip -beta <= Im z <= 0 through the double spectral sum, which is
exact at finite dimension (``GreenFunction``: for a real hermitian pair
it builds and reads only the lower triangle of C = A~ o B~^T, rotated by
two SYRKs per large block, merges small sector blocks up to
``MERGE_ROWS_MAX`` rows and keeps each point's phase and decay factors);
equilibrium checks compare it against independently time-evolved
expectations.  Those come from
``dynamics.correlations``: ``two_point`` is one pair at one time of it,
and ``evolved_two_points`` is its sparse route over a whole time grid,
which reads no energies and no spectral sum.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .dynamics import (
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
from .operators import SparseOperator, conserves_number

DEFAULT_TAIL_TOL = 1e-10
# most rows of one block of merged sector blocks in ``GreenFunction``.
# Measured per point of a real hermitian pair on a 2-CPU host, one BLAS
# thread, grand-canonical chains: the six sectors of 6 sites to n = 5
# took 62-65 us as six blocks, 40-45 us as [210 | 252] rows and 48-52 us
# as one 462-row block; 8 sites to n = 4, 55-79 us as [165 | 330] and
# 72-101 us as one 495-row block; no merge past 256 rows ever gained
MERGE_ROWS_MAX = 256
# t values and depths s whose point factors ``GreenFunction`` keeps: a
# strip grid of up to this many depths reuses every decay factor
FACTOR_CACHE_MAX = 32


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
    log_z: float
    tail_estimate: float

    @property
    def basis(self):
        return self.decomp.basis

    def included_slices(self):
        return [(n, sl) for n, sl in self.decomp.sector_slices() if n <= self.n_max]


def gibbs_state(
    H: SparseOperator,
    beta: float,
    mu: float,
    n_max: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
    decomposition: SpectralDecomposition | None = None,
) -> GibbsState:
    """Grand-canonical state over sectors 0..n_max with an estimated tail.

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
    if n_max < 1:
        raise InvalidArgumentError("need at least sectors 0 and 1 for the ratio test")
    if decomposition is None:
        decomposition = eigendecompose(H)
    sectors_present = {n for n, _ in decomposition.sector_slices()}
    missing = set(range(n_max + 1)) - sectors_present
    if missing:
        raise InvalidArgumentError(f"spectra for sectors {sorted(missing)} are not available")
    G = decomposition.energies - mu * decomposition.sectors
    g_min = float(G.min())
    shifted = G - g_min
    boltzmann = np.exp(-beta * shifted)
    z_sector: dict[int, float] = {}
    weights = np.zeros_like(boltzmann)
    for n, sl in decomposition.sector_slices():
        z_sector[n] = float(boltzmann[sl].sum())
        if n <= n_max:
            weights[sl] = boltzmann[sl]
    z_scaled = float(sum(z for n, z in z_sector.items() if n <= n_max))
    weights /= z_scaled
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
        log_z=float(np.log(z_scaled) - beta * g_min),
        tail_estimate=float(tail),
    )


def fixed_sector_gibbs(
    H: SparseOperator,
    beta: float,
    decomposition: SpectralDecomposition | None = None,
) -> GibbsState:
    """Canonical (fixed particle number) thermal state on a single-sector
    basis; the chemical potential drops out and there is no truncation."""
    if beta <= 0:
        raise InvalidArgumentError("inverse temperature must be positive")
    if H.basis.sector is None:
        raise InvalidArgumentError("fixed_sector_gibbs needs a single-sector basis")
    if decomposition is None:
        decomposition = eigendecompose(H)
    shifted = decomposition.energies - decomposition.energies.min()
    boltzmann = np.exp(-beta * shifted)
    z_scaled = float(boltzmann.sum())
    return GibbsState(
        decomp=decomposition,
        hamiltonian=H,
        beta=float(beta),
        mu=0.0,
        n_max=int(H.basis.sector),
        weights=boltzmann / z_scaled,
        shifted=shifted,
        z_scaled=z_scaled,
        log_z=float(np.log(z_scaled) - beta * decomposition.energies.min()),
        tail_estimate=0.0,
    )


def expectation(state: GibbsState, A: SparseOperator) -> complex:
    """Trace of the density matrix against A."""
    if A.basis.basis_id != state.basis.basis_id:
        raise InvalidArgumentError("observable lives on a different basis")
    V = state.decomp.vectors
    AV = _real_matmul(A.matrix, V)
    diag = np.einsum("ij,ij->j", V.conj(), AV)
    return complex(np.dot(state.weights, diag))


def moment_sup(state, p: float) -> float:
    """max over sites x of the expectation of (1 + n_x)^p in a thermal
    state or in a pure StateVector (normalized here)."""
    if p < 1:
        raise InvalidArgumentError("moment exponent must satisfy p >= 1")
    if isinstance(state, StateVector):
        probs = np.abs(state.amplitudes) ** 2
        probs = probs / probs.sum()
    else:
        probs = (np.abs(state.decomp.vectors) ** 2) @ state.weights
    occ = state.basis.occupations
    return float(np.max(((1.0 + occ) ** float(p)).T @ probs))


def _require_number_conserving(op: SparseOperator, name: str):
    if not conserves_number(op):
        raise InvalidArgumentError(f"{name} must conserve the total particle number")


def _exactly_hermitian(matrix) -> bool:
    """True when a sparse matrix equals its conjugate transpose entry for
    entry; O(nnz)."""
    return (matrix != matrix.conj().T).nnz == 0


def _hermitian_matvec(C: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """C @ ket for a complex hermitian Fortran-ordered C, reading only its
    lower triangle: one ``zhemv``."""
    return blas.zhemv(1.0, C, ket, lower=1)


def _kept(cache: dict, key, make):
    """make(key), kept in ``cache`` for the last FACTOR_CACHE_MAX keys."""
    if key not in cache:
        if len(cache) >= FACTOR_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[key] = make(key)
    return cache[key]


class GreenFunction:
    """Two-point function of a thermal state on the strip -beta <= Im z <= 0.

    F(t) is the time-ordered expectation of the evolved first observable
    against the second; F(t - i beta) swaps the operator order.  Values
    come from the double spectral sum with overflow-safe exponents, O(D^2)
    per point after a one-time O(D^3) rotation into the eigenbasis: each
    sector block C_jk = A_jk B_kj is read once per point.  Adjacent sector
    blocks are held as one block-diagonal block while it stays within
    ``MERGE_ROWS_MAX`` rows, so a point makes its BLAS calls per block, not
    per sector.

    For a hermitian pair C is hermitian, and one point reads the lower
    triangle of C alone.  A real hermitian pair (``_real``) builds only
    that triangle: A~ and B~ are symmetric, so C_jk = A~_jk B~_jk there,
    from ``SpectralDecomposition.rotate_lower`` (two ``dsyrk`` calls for
    a local observable on a sector of at least ``SYRK_ROWS_MIN`` states).
    Its point takes two ``dsymv`` calls summed in real arithmetic
    (``_real_point``), with cos and sin of E t kept per t and both decay
    factors per depth s for the last ``FACTOR_CACHE_MAX`` of each;
    ``values`` reads the same triangle with ``dsymm``.  Under a complex
    generator a hermitian point takes one complex hermitian mat-vec.
    Evaluations are cached per point.
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
        real = not (np.iscomplexobj(decomp.vectors) or A.matrix.data.imag.any() or B.matrix.data.imag.any())
        self._real = self._hermitian and real
        slices = [sl for _, sl in state.included_slices()]
        # sectors ascend, so the included rows are the first ``_stop``
        self._stop = slices[-1].stop
        groups = [[slices[0]]]
        for sl in slices[1:]:
            if sl.stop - groups[-1][0].start <= MERGE_ROWS_MAX:
                groups[-1].append(sl)
            else:
                groups.append([sl])
        self._blocks = []
        for group in groups:
            span = slice(group[0].start, group[-1].stop)
            C = None
            if len(group) > 1:
                size = span.stop - span.start
                C = np.zeros((size, size), dtype=np.float64 if real else np.complex128, order="F")
            for sl in group:
                if self._real:
                    An, Bt = decomp.rotate_lower(A.matrix, sl), decomp.rotate_lower(B.matrix, sl)
                else:
                    An, Bt = decomp.rotate(A.matrix, sl), decomp.rotate(B.matrix, sl).T
                if C is None:
                    # C in Fortran order, so the symmetric BLAS calls read it
                    # in place; formed in B~'s buffer when that is laid out so
                    own = Bt.flags.f_contiguous and Bt.dtype == np.result_type(An, Bt)
                    C = np.multiply(An, Bt, out=Bt if own else None, order="F")
                else:
                    at = slice(sl.start - span.start, sl.stop - span.start)
                    np.multiply(An, Bt, out=C[at, at])
            self._blocks.append((span, C))
        self._cache: dict[complex, complex] = {}
        self._phases: dict[float, tuple] = {}
        self._decays: dict[float, tuple] = {}

    def _depth(self, z: complex) -> float:
        """-Im z clamped to [0, beta]; a point off the strip raises."""
        s = -z.imag
        if not -1e-12 <= s <= self.beta + 1e-12:
            raise InvalidArgumentError(
                f"point {z} lies outside the strip -beta <= Im z <= 0 (beta = {self.beta})"
            )
        return min(max(s, 0.0), self.beta)

    def _factors(self, t, s):
        """(cos Et, sin Et) and the decays (e^{-(beta - s) g}, e^{-s g}) over
        the included rows, for scalar t and s or for equal-length arrays
        (then of shape (rows, points)).  Scalar factors are kept for the
        last ``FACTOR_CACHE_MAX`` values of t and of s."""
        outer = np.multiply.outer
        energies, shifted = self.state.decomp.energies[: self._stop], self.state.shifted[: self._stop]

        def phases(t):
            phase = outer(energies, t)
            return np.cos(phase), np.sin(phase)

        def decays(s):
            return np.exp(-outer(shifted, self.beta - s)), np.exp(-outer(shifted, s))

        if np.ndim(t):
            return phases(t), decays(s)
        return _kept(self._phases, t, phases), _kept(self._decays, s, decays)

    def _sum(self, t, s):
        """F(t - i s) for scalar t and s, or for equal-length arrays: the
        bra and ket are vectors or (D_n, points) blocks.  The exponentials
        are taken once over all included rows, sharing the phase
        e^{-iEt}: bra = e^{-(beta - s) g} conj(phase), ket = e^{-s g} phase,
        both real factors at most 1.  One point of a hermitian pair (here
        with a complex C) reads C by ``_hermitian_matvec``; otherwise
        ``_real_matmul`` reads it as two real GEMVs for one point or one
        GEMM for many."""
        outer = np.multiply.outer
        shifted = self.state.shifted[: self._stop]
        phase = np.exp(-1j * outer(self.state.decomp.energies[: self._stop], t))
        bra = np.exp(-outer(shifted, self.beta - s)) * phase.conj()
        ket = np.exp(-outer(shifted, s)) * phase
        matvec = _hermitian_matvec if self._hermitian and np.ndim(t) == 0 else _real_matmul
        total = 0.0
        for rows, C in self._blocks:
            total += np.einsum("i...,i...->...", bra[rows], matvec(C, ket[rows]))
        return total / self.state.z_scaled

    def _real_point(self, t: float, s: float) -> complex:
        """F(t - i s) for a real hermitian pair in real arithmetic.  With
        a = e^{-(beta - s) g}, b = e^{-s g}, c = cos(Et) and n = sin(Et),
        the bra is a(c + i n) and the ket b(c - i n), so C ket = u - i v
        with u = C (b c) and v = C (b n), two ``dsymv`` calls over the
        lower triangle of C, and bra . C ket is
        a c . u + a n . v + i (a n . u - a c . v).  At t = 0, n = 0: one
        ``dsymv``, and the imaginary part is exactly 0."""
        (cos, sin), (bra, ket) = self._factors(t, s)
        if t == 0.0:
            re = sum(bra[rows] @ blas.dsymv(1.0, C, ket[rows], lower=1) for rows, C in self._blocks)
            return complex(re, 0.0) / self.state.z_scaled
        bra_c, bra_s, ket_c, ket_s = bra * cos, bra * sin, ket * cos, ket * sin
        re = im = 0.0
        for rows, C in self._blocks:
            u = blas.dsymv(1.0, C, ket_c[rows], lower=1)
            v = blas.dsymv(1.0, C, ket_s[rows], lower=1)
            re += bra_c[rows] @ u + bra_s[rows] @ v
            im += bra_s[rows] @ u - bra_c[rows] @ v
        return complex(re, im) / self.state.z_scaled

    def _real_points(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """``_real_point`` at every (t, s) pair of two equal-length arrays,
        reading the lower triangle of each block with one ``dsymm`` on the
        columns [b c | b n] of all points."""
        (cos, sin), (bra, ket) = self._factors(t, s)
        bra_c, bra_s = bra * cos, bra * sin
        kets = np.concatenate([ket * cos, ket * sin], axis=1)
        re = im = 0.0
        for rows, C in self._blocks:
            uv = blas.dsymm(1.0, C, kets[rows], lower=1)
            u, v, ac, an = uv[:, : len(t)], uv[:, len(t) :], bra_c[rows], bra_s[rows]
            re = re + (ac * u + an * v).sum(axis=0)
            im = im + (an * u - ac * v).sum(axis=0)
        return (re + 1j * im) / self.state.z_scaled

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        s = self._depth(z)
        if z not in self._cache:
            point = self._real_point if self._real else self._sum
            self._cache[z] = complex(point(z.real, s))
        return self._cache[z]

    def values(self, points) -> np.ndarray:
        """F at every point of ``points``, as one complex array.

        Uncached points are evaluated PROPAGATE_CHUNK at a time, one
        ``dsymm`` (real hermitian pair) or GEMM per block.  Every point is
        checked against the strip before any is evaluated, and the values
        join the per-point cache.
        """
        zs = [complex(z) for z in points]
        depth = {z: self._depth(z) for z in zs}
        todo = [z for z in depth if z not in self._cache]
        evaluate = self._real_points if self._real else self._sum
        for start in range(0, len(todo), PROPAGATE_CHUNK):
            chunk = todo[start : start + PROPAGATE_CHUNK]
            t, s = np.array([z.real for z in chunk]), np.array([depth[z] for z in chunk])
            self._cache.update(zip(chunk, evaluate(t, s).tolist()))
        return np.array([self._cache[z] for z in zs], dtype=np.complex128)


def two_point(
    state: GibbsState,
    A: SparseOperator,
    B: SparseOperator | None,
    t: float,
    order: str = "AB",
    generator: SparseOperator | None = None,
    generator_decomp: SpectralDecomposition | None = None,
    engine: str = "krylov",
) -> complex:
    """gamma(tau_t(A) B) or gamma(B tau_t(A)) by direct time evolution: one
    pair at one time of ``correlations``.

    The evolution ``generator`` defaults to the state's own Hamiltonian but
    may be any hermitian operator on the same basis (quenches, restricted
    volumes).  ``B=None`` gives the plain evolved expectation gamma(tau_t(A)).
    """
    if order not in ("AB", "BA"):
        raise InvalidArgumentError("order must be 'AB' or 'BA'")
    if engine == "dense" and generator_decomp is None and generator is None:
        generator_decomp = state.decomp
    H = generator if generator is not None else state.hamiltonian
    ab, ba, _ = correlations(H, state, [(A, B)], [t], generator_decomp, engine)
    return complex((ab if order == "AB" else ba)[0, 0])


def evolved_two_points(state: GibbsState, pairs, times):
    """``correlations`` of the state under its own Hamiltonian on the sparse
    route: the oracle for the strip boundary values.  It reads the state's
    eigenvectors and weights, never its energies or the spectral sum."""
    return correlations(state.hamiltonian, state, pairs, times, engine="krylov")


def kms_residual(
    state: GibbsState,
    A: SparseOperator,
    B: SparseOperator,
    t: float,
    gf: GreenFunction | None = None,
) -> tuple[float, float]:
    """Boundary-value residuals of the strip function at real time t.

    Returns (|F(t) - gamma(tau_t(A) B)|, |F(t - i beta) - gamma(B tau_t(A))|),
    the two sides computed by independent code paths (the spectral sum
    against ``evolved_two_points`` on the one time t).
    """
    if gf is None:
        gf = GreenFunction(state, A, B)
    upper = gf(complex(t, 0.0))
    lower = gf(complex(t, -state.beta))
    direct_ab, direct_ba, _ = evolved_two_points(state, [(A, B)], [t])
    return (abs(upper - direct_ab[0, 0]), abs(lower - direct_ba[0, 0]))


def invariance_residual(state: GibbsState, A: SparseOperator, t: float) -> float:
    """|gamma(tau_t(A)) - gamma(A)|: stationarity of the thermal state."""
    _, _, evolved = evolved_two_points(state, [(A, None)], [t])
    return abs(evolved[0, 0] - expectation(state, A))
