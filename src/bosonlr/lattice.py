"""Finite graphs with the geodesic (hop) metric and region calculus.

Geometry enters every analytic estimate downstream through three growth
constants of the graph: the surface constant (boundary of balls), the
maximum vertex degree, and the volume-growth constant of balls.  They
coincide up to O(1) factors on regular lattices but feed different
estimates, so :func:`surface_parameter` reports all three.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import InvalidArgumentError, ResourceLimitError

MAX_VERTICES = 4096

_graph_counter = itertools.count()


@dataclass(frozen=True)
class LatticeGraph:
    """Connected undirected graph with a precomputed all-pairs hop metric.

    ``dist[x, y]`` is the number of edges on a shortest path; ``dim_hint``
    is the declared dimension used to normalize ball-boundary sizes.
    Instances are immutable after construction.
    """

    n_vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    dist: np.ndarray
    dim_hint: int
    graph_id: int = field(default_factory=lambda: next(_graph_counter))

    def degree(self, x: int) -> int:
        return len(self.adjacency[x])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edges(self) -> list[tuple[int, int]]:
        """Unordered edge list, each edge once as (min, max)."""
        out = []
        for x, nbrs in enumerate(self.adjacency):
            for y in nbrs:
                if x < y:
                    out.append((x, y))
        return out

    def vertices(self) -> range:
        return range(self.n_vertices)


@dataclass(frozen=True)
class Region:
    """Sorted, deduplicated vertex set tied to a parent graph."""

    sites: tuple[int, ...]
    graph_id: int

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, x: int) -> bool:
        return x in self.sites

    def as_set(self) -> frozenset[int]:
        return frozenset(self.sites)


def region(g: LatticeGraph, sites) -> Region:
    """Build a Region on ``g``, validating membership."""
    uniq = sorted(set(int(s) for s in sites))
    for s in uniq:
        if not 0 <= s < g.n_vertices:
            raise InvalidArgumentError(f"site {s} outside graph with {g.n_vertices} vertices")
    return Region(tuple(uniq), g.graph_id)


def full_region(g: LatticeGraph) -> Region:
    return Region(tuple(range(g.n_vertices)), g.graph_id)


def build_from_edges(n_vertices: int, edges, dim_hint: int = 1) -> LatticeGraph:
    """Graph from an explicit undirected edge list.

    Rejects disconnected graphs: the hop metric must be finite everywhere.
    """
    if n_vertices < 1:
        raise InvalidArgumentError("graph needs at least one vertex")
    if n_vertices > MAX_VERTICES:
        raise ResourceLimitError(f"graph capped at {MAX_VERTICES} vertices, got {n_vertices}")
    if dim_hint < 1:
        raise InvalidArgumentError("dim_hint must be a positive integer")
    nbrs: list[set[int]] = [set() for _ in range(n_vertices)]
    for e in edges:
        x, y = e
        if not (0 <= x < n_vertices and 0 <= y < n_vertices):
            raise InvalidArgumentError(f"edge {e} references a vertex outside 0..{n_vertices - 1}")
        if x == y:
            raise InvalidArgumentError(f"self-loop at vertex {x} not allowed")
        nbrs[x].add(y)
        nbrs[y].add(x)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    rows = [x for x, ys in enumerate(adjacency) for _ in ys]
    cols = [y for ys in adjacency for y in ys]
    # imported here: ``import bosonlr`` stays clear of csgraph's modules
    from scipy.sparse.csgraph import shortest_path

    links = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_vertices, n_vertices))
    hops = shortest_path(links, directed=False, unweighted=True)
    if np.isinf(hops).any():
        raise InvalidArgumentError("graph is disconnected; hop metric undefined")
    return LatticeGraph(n_vertices, adjacency, hops.astype(np.int64), dim_hint)


def build_chain(length: int) -> LatticeGraph:
    """Open path graph on ``length`` vertices; dist(i, j) = |i - j|."""
    if length < 1:
        raise InvalidArgumentError("chain length must be >= 1")
    return build_from_edges(length, [(i, i + 1) for i in range(length - 1)], dim_hint=1)


def build_grid(dims) -> LatticeGraph:
    """Nearest-neighbor grid with open boundary; dist is the taxicab metric.

    Vertices are numbered in row-major (C) order over ``dims``.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise InvalidArgumentError("grid needs at least one dimension")
    if any(d < 1 for d in dims):
        raise InvalidArgumentError("grid dimensions must be >= 1")
    n = int(np.prod(dims))
    strides = np.zeros(len(dims), dtype=np.int64)
    acc = 1
    for k in reversed(range(len(dims))):
        strides[k] = acc
        acc *= dims[k]
    edges = []
    for flat in range(n):
        coord = np.unravel_index(flat, dims)
        for k in range(len(dims)):
            if coord[k] + 1 < dims[k]:
                edges.append((flat, flat + int(strides[k])))
    return build_from_edges(n, edges, dim_hint=len(dims))


def enlargement(g: LatticeGraph, X: Region, ell: int) -> Region:
    """All vertices within hop distance ``ell`` of ``X``."""
    if len(X) == 0:
        raise InvalidArgumentError("enlargement of the empty region is undefined")
    if ell < 0:
        raise InvalidArgumentError("enlargement radius must be nonnegative")
    idx = np.asarray(X.sites)
    keep = (g.dist[:, idx].min(axis=1) <= ell).nonzero()[0]
    return Region(tuple(int(v) for v in keep), g.graph_id)


def boundary(g: LatticeGraph, X: Region) -> Region:
    """Interior boundary: members of X at hop distance 1 from the complement."""
    inside = np.zeros(g.n_vertices, dtype=bool)
    inside[list(X.sites)] = True
    comp = (~inside).nonzero()[0]
    if comp.size == 0:
        return Region((), g.graph_id)
    members = np.asarray(X.sites)
    on_boundary = g.dist[np.ix_(members, comp)].min(axis=1) == 1
    return Region(tuple(int(v) for v in members[on_boundary]), g.graph_id)


@dataclass(frozen=True)
class SurfaceEstimate:
    """Growth constants of a graph, enumerated over balls of radius <= ell_max.

    ``sigma``      sup of |boundary(x[l])| / l^(d-1), the surface constant;
    ``max_degree`` maximum vertex degree, which controls nearest-neighbor
                   sums (this is the rate constant fed to the moment-growth
                   exponent, see :mod:`bosonlr.bounds`);
    ``growth``     sup of |x[l]| / l^d, the ball-volume constant used by the
                   combinatorial term counts in the propagation bounds.
    """

    sigma: float
    max_degree: int
    growth: float

    @property
    def counting(self) -> float:
        """Conservative constant valid for all three uses at once."""
        return max(self.sigma, float(self.max_degree), self.growth)


def surface_parameter(g: LatticeGraph, ell_max: int) -> SurfaceEstimate:
    """Enumerate every ball x[l], 1 <= l <= ell_max, and report growth constants.

    Saturated balls (x[l] = whole graph) have empty boundary and are skipped
    in the volume sup; at finite size they carry no surface information.
    """
    if ell_max < 1:
        raise InvalidArgumentError("ell_max must be >= 1")
    d = g.dim_hint
    sigma = 0.0
    growth = 0.0
    for x in g.vertices():
        for ell in range(1, ell_max + 1):
            ball = enlargement(g, Region((x,), g.graph_id), ell)
            sigma = max(sigma, len(boundary(g, ball)) / ell ** (d - 1))
            if len(ball) < g.n_vertices:
                growth = max(growth, len(ball) / ell**d)
    return SurfaceEstimate(sigma=sigma, max_degree=g.max_degree, growth=growth)
