import os
import subprocess
import sys

import numpy as np
import pytest

from bosonlr import (
    InvalidArgumentError,
    boundary,
    build_chain,
    build_from_edges,
    build_grid,
    enlargement,
    full_region,
    region,
    surface_parameter,
)


def brute_enlargement(g, sites, ell):
    return sorted(v for v in range(g.n_vertices) if min(g.dist[v, s] for s in sites) <= ell)


def brute_boundary(g, sites):
    comp = [v for v in range(g.n_vertices) if v not in sites]
    if not comp:
        return []
    return sorted(x for x in sites if min(g.dist[x, c] for c in comp) == 1)


def brute_surface(g, ell_max):
    """Independent enumeration of the ball-boundary growth constant."""
    best = 0.0
    for x in range(g.n_vertices):
        for ell in range(1, ell_max + 1):
            ball = brute_enlargement(g, [x], ell)
            best = max(best, len(brute_boundary(g, ball)) / ell ** (g.dim_hint - 1))
    return best


def test_chain_metric():
    g = build_chain(5)
    assert g.dist[0, 4] == 4
    assert build_chain(1).dist[0, 0] == 0
    assert set(build_chain(3).edges()) == {(0, 1), (1, 2)}


def test_chain_rejects_zero_length():
    with pytest.raises(InvalidArgumentError):
        build_chain(0)


def test_grid_taxicab():
    g = build_grid([2, 2])
    # row-major: (0,0)=0, (0,1)=1, (1,0)=2, (1,1)=3
    assert g.dist[0, 3] == 2
    assert build_grid([2, 3]).n_vertices == 6
    with pytest.raises(InvalidArgumentError):
        build_grid([])


def test_grid_3_matches_chain_3():
    g3 = build_grid([3])
    c3 = build_chain(3)
    assert np.array_equal(g3.dist, c3.dist)
    assert g3.edges() == c3.edges()


def test_metric_invariants():
    for g in (build_chain(7), build_grid([3, 4])):
        assert np.array_equal(g.dist, g.dist.T)
        assert np.all(np.diag(g.dist) == 0)
        edge_mask = g.dist == 1
        for x, y in g.edges():
            assert edge_mask[x, y]
        n = g.n_vertices
        for x in range(n):
            for y in range(n):
                assert np.all(g.dist[x, :] + g.dist[:, y] >= g.dist[x, y])


def test_disconnected_rejected():
    with pytest.raises(InvalidArgumentError):
        build_from_edges(4, [(0, 1), (2, 3)])


def test_enlargement_basics():
    g = build_chain(5)
    assert enlargement(g, region(g, [2]), 1).sites == (1, 2, 3)
    X = region(g, [0, 3])
    assert enlargement(g, X, 0).sites == X.sites
    assert enlargement(g, region(g, [0]), 10).sites == (0, 1, 2, 3, 4)
    with pytest.raises(InvalidArgumentError):
        enlargement(g, region(g, []), 1)


def test_enlargement_matches_brute_force():
    g = build_grid([3, 3])
    for sites in ([0], [4], [0, 8]):
        for ell in range(4):
            got = enlargement(g, region(g, sites), ell).sites
            assert list(got) == brute_enlargement(g, sites, ell)


def test_enlargement_monotone_and_composes():
    for g in (build_chain(9), build_grid([4, 3])):
        X = region(g, [1])
        for a in range(3):
            assert set(enlargement(g, X, a).sites) <= set(enlargement(g, X, a + 1).sites)
            for bb in range(3):
                inner = enlargement(g, enlargement(g, X, a), bb)
                assert inner.sites == enlargement(g, X, a + bb).sites


def test_boundary_cases():
    g = build_chain(5)
    assert boundary(g, region(g, [0, 1, 2])).sites == (2,)
    assert boundary(g, full_region(g)).sites == ()
    # plus-shape in the 3x3 grid: boundary is the four arm tips
    g9 = build_grid([3, 3])
    plus = enlargement(g9, region(g9, [4]), 1)
    tips = brute_boundary(g9, plus.sites)
    assert list(boundary(g9, plus).sites) == tips == [1, 3, 5, 7]


def test_boundary_inside_region():
    g = build_grid([3, 3])
    X = region(g, [0, 1, 3, 4])
    b = boundary(g, X)
    assert set(b.sites) <= set(X.sites)
    comp = set(range(g.n_vertices)) - set(X.sites)
    assert not set(b.sites) & comp


def test_surface_parameter_chains():
    # expected values frozen from the brute-force enumeration oracle
    g21 = build_chain(21)
    est = surface_parameter(g21, 5)
    assert est.sigma == brute_surface(g21, 5) == 2.0
    assert est.max_degree == 2
    g3 = build_chain(3)
    est3 = surface_parameter(g3, 5)
    assert est3.sigma == brute_surface(g3, 5) == 1.0


def test_surface_parameter_grid():
    g = build_grid([9, 9])
    est = surface_parameter(g, 3)
    assert est.sigma == brute_surface(g, 3) == 4.0
    assert 2.0 <= est.sigma <= 4.0
    assert est.max_degree == 4
    assert est.counting >= est.sigma


def test_ball_volume_growth():
    # |x[l]| <= sigma l^d + 1 for non-saturating balls
    for g in (build_chain(21), build_grid([9, 9])):
        est = surface_parameter(g, 4)
        d = g.dim_hint
        for x in range(g.n_vertices):
            for ell in range(1, 5):
                ball = enlargement(g, region(g, [x]), ell)
                if len(ball) < g.n_vertices:
                    assert len(ball) <= est.sigma * ell**d + 1


def test_region_validation():
    g = build_chain(3)
    with pytest.raises(InvalidArgumentError):
        region(g, [5])
    r = region(g, [2, 0, 2])
    assert r.sites == (0, 2)


def test_import_leaves_csgraph_unloaded():
    """``import bosonlr`` loads none of scipy's csgraph or special
    modules, whose resident memory a run that never builds a graph, splits
    an operator into components or evaluates the free propagator would
    carry; those functions import them on first call."""
    import bosonlr

    src = os.path.dirname(os.path.dirname(bosonlr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, bosonlr; "
        "print(sorted(m for m in sys.modules if 'csgraph' in m or m.startswith('scipy.special')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    build_chain(3)
    assert "scipy.sparse.csgraph" in sys.modules
    bosonlr.free_particle_amplitude(1, 0.5)
    assert "scipy.special" in sys.modules
