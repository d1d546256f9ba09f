import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlr import (
    InvalidArgumentError,
    NotInBasisError,
    ResourceLimitError,
    build_chain,
    enumerate_basis,
    enumerate_sectors,
    full_region,
)
from bosonlr.fock import _enumerate_sector, sector_dimension


def reg(n):
    return full_region(build_chain(n))


def brute_states(sites, n, cap):
    top = n if cap is None else min(n, cap)
    out = [
        occ
        for occ in itertools.product(range(top + 1), repeat=sites)
        if sum(occ) == n and (cap is None or max(occ) <= cap)
    ]
    return sorted(out)


def test_stars_and_bars():
    basis = enumerate_basis(reg(2), sector=2)
    assert basis.dimension == 3
    assert [basis.state(k) for k in range(3)] == [(0, 2), (1, 1), (2, 0)]
    assert enumerate_basis(reg(3), sector=2).dimension == math.comb(4, 2) == 6
    assert enumerate_basis(reg(4), sector=3).dimension == math.comb(6, 3) == 20


def test_capped_enumeration():
    basis = enumerate_basis(reg(3), sector=2, cap=1)
    assert basis.dimension == 3
    assert [basis.state(k) for k in range(3)] == brute_states(3, 2, 1)


@pytest.mark.parametrize("sites,n,cap", [(3, 4, 2), (4, 5, 3), (2, 7, None), (5, 3, 1)])
def test_enumeration_matches_brute_force(sites, n, cap):
    basis = enumerate_basis(reg(sites), sector=n, cap=cap)
    assert [basis.state(k) for k in range(basis.dimension)] == brute_states(sites, n, cap)
    assert basis.dimension == sector_dimension(sites, n, cap)


def test_infeasible_is_empty_not_error():
    assert enumerate_basis(reg(2), sector=5, cap=2).dimension == 0


def test_vacuum_sector():
    assert enumerate_basis(reg(1), sector=0).dimension == 1


def test_index_round_trip():
    basis = enumerate_basis(reg(3), sector=3, cap=2)
    assert basis.index_of(basis.state(0)) == 0
    for k in range(basis.dimension):
        assert basis.index_of(basis.state(k)) == k
    with pytest.raises(NotInBasisError):
        basis.index_of((3, 0, 0))  # violates the cap
    with pytest.raises(NotInBasisError):
        basis.index_of((1, 1, 0))  # wrong sector
    with pytest.raises(NotInBasisError):
        basis.index_of((1, 2))  # wrong length
    with pytest.raises(NotInBasisError):
        basis.index_of((1, 1, 0, 1))  # wrong length, right total
    with pytest.raises(NotInBasisError):
        basis.index_of((2, 2, -1))  # negative entry, right total


def test_sector_decomposition_sums_to_truncated_space():
    sites, cap = 3, 2
    total = sum(
        enumerate_basis(reg(sites), sector=n, cap=cap).dimension
        for n in range(sites * cap + 1)
    )
    assert total == (cap + 1) ** sites


def test_multisector_ordering():
    basis = enumerate_sectors(reg(2), 2)
    assert [basis.state(k) for k in range(basis.dimension)] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert basis.sector_slices() == [(0, slice(0, 1)), (1, slice(1, 3)), (2, slice(3, 6))]


def test_enumeration_deterministic():
    a = enumerate_basis(reg(4), sector=3, cap=2)
    b = enumerate_basis(reg(4), sector=3, cap=2)
    assert [a.state(k) for k in range(a.dimension)] == [b.state(k) for k in range(b.dimension)]


def test_guards():
    with pytest.raises(InvalidArgumentError):
        enumerate_basis(reg(2))  # neither sector nor cap: infinite
    with pytest.raises(ResourceLimitError):
        enumerate_basis(reg(30), sector=100)  # astronomically large, caught before allocation
    g = build_chain(2)
    from bosonlr.lattice import Region

    with pytest.raises(InvalidArgumentError):
        enumerate_basis(Region((), g.graph_id), sector=1)


def recursive_sector(n_sites, n, cap):
    """The depth-first enumerator ``_enumerate_sector`` replaced: each
    site takes 0..min(remaining, cap) in turn, and the last site takes the
    remainder when the cap allows it."""
    out, occ = [], [0] * n_sites

    def rec(pos, remaining):
        if pos == n_sites - 1:
            if cap is None or remaining <= cap:
                occ[pos] = remaining
                out.append(tuple(occ))
            return
        for v in range((remaining if cap is None else min(remaining, cap)) + 1):
            occ[pos] = v
            rec(pos + 1, remaining - v)

    rec(0, n)
    return out


@settings(max_examples=200, deadline=None)
@given(sites=st.integers(1, 7), n=st.integers(0, 9), cap=st.one_of(st.none(), st.integers(0, 4)))
def test_sector_enumeration_matches_the_recursive_reference(sites, n, cap):
    """The site-by-site numpy expansion gives the recursive enumerator's
    rows in its lexicographic order, as int64, infeasible sectors empty."""
    got = _enumerate_sector(sites, n, cap)
    want = np.array(recursive_sector(sites, n, cap), dtype=np.int64).reshape(-1, sites)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
