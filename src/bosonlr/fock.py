"""Occupation-number bases of truncated Fock spaces over a region.

States are occupation vectors (one nonnegative integer per site of the
region), enumerated in a deterministic order: ascending total particle
number, then lexicographic.  The symmetric tensor product is never
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
    """Enumerated occupation basis with an exact reverse index.

    ``occupations`` has shape (dimension, n_sites); row k is state k.
    ``totals[k]`` is the particle-number sector of state k.  ``sector``
    is set when all states share one total, else None.
    """

    region: Region
    site_cap: int | None
    sector: int | None
    max_total: int
    occupations: np.ndarray
    totals: np.ndarray
    index: dict[tuple[int, ...], int]
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

    def index_of(self, occ) -> int:
        key = tuple(int(v) for v in occ)
        try:
            return self.index[key]
        except KeyError:
            raise NotInBasisError(f"occupation {key} violates the cap/sector of this basis") from None

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


def _enumerate_sector(n_sites: int, n: int, cap: int | None) -> list[tuple[int, ...]]:
    """All occupation vectors with total n, lexicographically ascending."""
    out: list[tuple[int, ...]] = []
    occ = [0] * n_sites

    def rec(pos: int, remaining: int):
        if pos == n_sites - 1:
            if cap is None or remaining <= cap:
                occ[pos] = remaining
                out.append(tuple(occ))
            return
        top = remaining if cap is None else min(remaining, cap)
        for v in range(top + 1):
            occ[pos] = v
            rec(pos + 1, remaining - v)

    if n_sites == 0:
        return []
    rec(0, n)
    return out


def enumerate_basis(region: Region, sector: int | None = None, cap: int | None = None) -> FockBasis:
    """Enumerate the occupation basis of a region.

    With ``sector`` set, only vectors with that total particle number are
    kept; with ``cap`` set, every site occupation is at most ``cap``.  An
    infeasible (sector, cap) combination yields an empty basis, not an
    error.  At least one of the two must be given, otherwise the space is
    infinite.
    """
    if len(region) == 0:
        raise InvalidArgumentError("cannot enumerate a basis over an empty region")
    if sector is None and cap is None:
        raise InvalidArgumentError("need a sector or a per-site cap to obtain a finite basis")
    if sector is not None and sector < 0:
        raise InvalidArgumentError("sector must be a nonnegative total particle number")
    if cap is not None and cap < 0:
        raise InvalidArgumentError("per-site cap must be nonnegative")
    s = len(region)
    if sector is not None:
        totals_range = [sector]
    else:
        totals_range = list(range(s * cap + 1))
    dim = sum(sector_dimension(s, n, cap) for n in totals_range)
    if dim > MAX_STATES:
        raise ResourceLimitError(f"basis would hold {dim} states, above the {MAX_STATES} cap")
    states: list[tuple[int, ...]] = []
    for n in totals_range:
        states.extend(_enumerate_sector(s, n, cap))
    occupations = np.array(states, dtype=np.int64).reshape(len(states), s)
    totals = occupations.sum(axis=1) if states else np.zeros(0, dtype=np.int64)
    index = {st: k for k, st in enumerate(states)}
    max_total = int(totals.max()) if len(states) else 0
    return FockBasis(
        region=region,
        site_cap=cap,
        sector=sector,
        max_total=max_total,
        occupations=occupations,
        totals=totals,
        index=index,
    )


def enumerate_sectors(region: Region, n_max: int, cap: int | None = None) -> FockBasis:
    """Multi-sector basis covering total particle numbers 0..n_max.

    States are ordered by sector, then lexicographically, so operators that
    conserve particle number are block-contiguous.
    """
    if len(region) == 0:
        raise InvalidArgumentError("cannot enumerate a basis over an empty region")
    if n_max < 0:
        raise InvalidArgumentError("n_max must be nonnegative")
    s = len(region)
    dim = sum(sector_dimension(s, n, cap) for n in range(n_max + 1))
    if dim > MAX_STATES:
        raise ResourceLimitError(f"basis would hold {dim} states, above the {MAX_STATES} cap")
    states: list[tuple[int, ...]] = []
    for n in range(n_max + 1):
        states.extend(_enumerate_sector(s, n, cap))
    occupations = np.array(states, dtype=np.int64).reshape(len(states), s)
    totals = occupations.sum(axis=1) if states else np.zeros(0, dtype=np.int64)
    index = {st: k for k, st in enumerate(states)}
    return FockBasis(
        region=region,
        site_cap=cap,
        sector=None,
        max_total=n_max,
        occupations=occupations,
        totals=totals,
        index=index,
    )


def dimension(basis: FockBasis) -> int:
    return basis.dimension


def index_of(basis: FockBasis, occ) -> int:
    return basis.index_of(occ)
