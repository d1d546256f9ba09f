import itertools
import math

import pytest

from bosonlr import (
    InvalidArgumentError,
    NotInBasisError,
    ResourceLimitError,
    build_chain,
    dimension,
    enumerate_basis,
    enumerate_sectors,
    full_region,
    index_of,
)
from bosonlr.fock import sector_dimension


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
    assert dimension(basis) == 3
    assert [basis.state(k) for k in range(3)] == [(0, 2), (1, 1), (2, 0)]
    assert dimension(enumerate_basis(reg(3), sector=2)) == math.comb(4, 2) == 6
    assert dimension(enumerate_basis(reg(4), sector=3)) == math.comb(6, 3) == 20


def test_capped_enumeration():
    basis = enumerate_basis(reg(3), sector=2, cap=1)
    assert dimension(basis) == 3
    assert [basis.state(k) for k in range(3)] == brute_states(3, 2, 1)


@pytest.mark.parametrize("sites,n,cap", [(3, 4, 2), (4, 5, 3), (2, 7, None), (5, 3, 1)])
def test_enumeration_matches_brute_force(sites, n, cap):
    basis = enumerate_basis(reg(sites), sector=n, cap=cap)
    assert [basis.state(k) for k in range(basis.dimension)] == brute_states(sites, n, cap)
    assert basis.dimension == sector_dimension(sites, n, cap)


def test_infeasible_is_empty_not_error():
    assert dimension(enumerate_basis(reg(2), sector=5, cap=2)) == 0


def test_vacuum_sector():
    assert dimension(enumerate_basis(reg(1), sector=0)) == 1


def test_index_round_trip():
    basis = enumerate_basis(reg(3), sector=3, cap=2)
    assert index_of(basis, basis.state(0)) == 0
    for k in range(basis.dimension):
        assert index_of(basis, basis.state(k)) == k
    with pytest.raises(NotInBasisError):
        index_of(basis, (3, 0, 0))  # violates the cap
    with pytest.raises(NotInBasisError):
        index_of(basis, (1, 1, 0))  # wrong sector
    with pytest.raises(NotInBasisError):
        index_of(basis, (1, 2))  # wrong length
    with pytest.raises(NotInBasisError):
        index_of(basis, (1, 1, 0, 1))  # wrong length, right total
    with pytest.raises(NotInBasisError):
        index_of(basis, (2, 2, -1))  # negative entry, right total


def test_sector_decomposition_sums_to_truncated_space():
    sites, cap = 3, 2
    total = sum(
        dimension(enumerate_basis(reg(sites), sector=n, cap=cap))
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
