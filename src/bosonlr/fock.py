"""Occupation-number bases of truncated Fock spaces over a region.

States are occupation vectors (one nonnegative integer per site of the
region), enumerated in a deterministic order: ascending total particle
number, then lexicographic.  A state's key is the big-endian bytes of
(total, occupations); bytewise order of the keys is that basis order, so
the key array is sorted and ``np.searchsorted`` ranks any batch of
occupation vectors at once.  The symmetric tensor product is never
materialized; creation/annihilation square-root factors live in the
operator assembly (:mod:`bosonlr.operators`).
"""

import math
from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import InvalidArgumentError, NotInBasisError, ResourceLimitError
from .lattice import Region

MAX_STATES = 2_000_000

_basis_counter = itertools.count()


@dataclass(frozen=True)
class FockBasis:
    """Enumerated occupation basis, ranked through sorted row keys.

    ``occupations`` has shape (dimension, n_sites); row k is state k.
    ``totals[k]`` is the particle-number sector of state k.  ``sector``
    is set when all states share one total, else None.  ``keys[k]`` is
    the sort key of state k (see :func:`_row_keys`); the keys ascend
    strictly, which is what :meth:`lookup` relies on.
    """

    region: Region
    site_cap: int | None
    sector: int | None
    max_total: int
    occupations: np.ndarray
    totals: np.ndarray
    keys: np.ndarray
    basis_id: int = field(default_factory=lambda: next(_basis_counter))

    @property
    def dimension(self) -> int:
        return self.occupations.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.region)

    def site_column(self, x: int) -> int:
        """Column of site ``x`` in the occupation array."""
        try:
            return self.region.sites.index(x)
        except ValueError:
            raise InvalidArgumentError(f"site {x} not in basis region {self.region.sites}") from None

    def state(self, k: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.occupations[k])

    def lookup(self, rows) -> np.ndarray:
        """Index of each occupation vector in ``rows`` (shape (m, n_sites)),
        -1 where a vector is not in the basis (cap or sector violated)."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.n_sites)
        query = _row_keys(rows.sum(axis=1), rows)
        pos = np.searchsorted(self.keys, query)
        found = pos < self.dimension
        found[found] = self.keys[pos[found]] == query[found]
        return np.where(found, pos, -1)

    def index_of(self, occ) -> int:
        key = tuple(int(v) for v in occ)
        k = int(self.lookup([key])[0]) if len(key) == self.n_sites else -1
        if k < 0:
            raise NotInBasisError(f"occupation {key} violates the cap/sector of this basis")
        return k

    def sector_slices(self) -> list[tuple[int, slice]]:
        """(total_n, index slice) per sector; states are sector-contiguous."""
        if self.dimension == 0:
            return []
        cuts = [0, *(np.flatnonzero(np.diff(self.totals)) + 1).tolist(), self.dimension]
        return [(int(self.totals[a]), slice(a, b)) for a, b in zip(cuts, cuts[1:])]


def sector_dimension(n_sites: int, n: int, cap: int | None) -> int:
    """Number of occupation vectors with total ``n`` via inclusion-exclusion."""
    if n < 0:
        return 0
    if cap is None:
        return math.comb(n + n_sites - 1, n)
    if cap < 0:
        raise InvalidArgumentError("cap must be nonnegative")
    total = 0
    for j in range(n_sites + 1):
        rem = n - j * (cap + 1)
        if rem < 0:
            break
        total += (-1) ** j * math.comb(n_sites, j) * math.comb(rem + n_sites - 1, n_sites - 1)
    return total


def _enumerate_sector(n_sites: int, n: int, cap: int | None) -> np.ndarray:
    """All occupation vectors with total n, lexicographically ascending, as
    an (count, n_sites) int64 array.

    Built one site at a time: each prefix is repeated once per value its
    next site can take, in ascending order, so the prefixes stay in
    lexicographic order.  A value is feasible when the particles left fit
    on the remaining sites under ``cap``, so every prefix completes and no
    stage holds more prefixes than the result has rows.  Each stage keeps
    only the parent and the value of its prefixes; the rows are read back
    through the parents at the end.
    """
    left = np.array([n], dtype=np.int64)  # particles still to place, per prefix
    stages = []
    for pos in range(n_sites - 1):
        lo = np.zeros_like(left) if cap is None else np.maximum(left - cap * (n_sites - pos - 1), 0)
        hi = left if cap is None else np.minimum(left, cap)
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(left.size), counts)
        values = lo[parent] + np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
        stages.append((parent, values))
        left = left[parent] - values
    # the last site takes what is left, which the bounds above keep within
    # the cap; a single site takes all n or nothing
    rows = np.arange(left.size) if cap is None else np.flatnonzero(left <= cap)
    out = np.empty((rows.size, n_sites), dtype=np.int64)
    out[:, -1] = left[rows]
    for pos in range(n_sites - 2, -1, -1):
        parent, values = stages[pos]
        out[:, pos] = values[rows]
        rows = parent[rows]
    return out


def _row_keys(totals: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """One opaque key per row: the big-endian int64 bytes of (total,
    occupations).  For nonnegative entries bytewise order is numeric order,
    so the keys sort by sector, then lexicographically."""
    rows = np.column_stack([totals, occupations]).astype(">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _build_basis(region: Region, sectors, cap: int | None, sector: int | None) -> FockBasis:
    """Basis of every vector whose total lies in ``sectors`` (ascending)."""
    if len(region) == 0:
        raise InvalidArgumentError("cannot enumerate a basis over an empty region")
    s = len(region)
    dim = sum(sector_dimension(s, n, cap) for n in sectors)
    if dim > MAX_STATES:
        raise ResourceLimitError(f"basis would hold {dim} states, above the {MAX_STATES} cap")
    occupations = np.concatenate([_enumerate_sector(s, n, cap) for n in sectors])
    totals = occupations.sum(axis=1)
    return FockBasis(
        region=region,
        site_cap=cap,
        sector=sector,
        max_total=sectors[-1] if dim else 0,
        occupations=occupations,
        totals=totals,
        keys=_row_keys(totals, occupations),
    )


def enumerate_basis(region: Region, sector: int | None = None, cap: int | None = None) -> FockBasis:
    """Enumerate the occupation basis of a region.

    With ``sector`` set, only vectors with that total particle number are
    kept; with ``cap`` set, every site occupation is at most ``cap``.  An
    infeasible (sector, cap) combination yields an empty basis, not an
    error.  At least one of the two must be given, otherwise the space is
    infinite.
    """
    if sector is None and cap is None:
        raise InvalidArgumentError("need a sector or a per-site cap to obtain a finite basis")
    if sector is not None and sector < 0:
        raise InvalidArgumentError("sector must be a nonnegative total particle number")
    if cap is not None and cap < 0:
        raise InvalidArgumentError("per-site cap must be nonnegative")
    sectors = [sector] if sector is not None else range(len(region) * cap + 1)
    return _build_basis(region, sectors, cap, sector)


def enumerate_sectors(region: Region, n_max: int, cap: int | None = None) -> FockBasis:
    """Multi-sector basis covering total particle numbers 0..n_max.

    States are ordered by sector, then lexicographically, so operators that
    conserve particle number are block-contiguous.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be nonnegative")
    return _build_basis(region, range(n_max + 1), cap, None)

