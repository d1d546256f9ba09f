"""The verification experiments: measured quantities against certificates.

Each runner sweeps a parameter grid, records one row per point with the
measured value, the analytic bound where one applies, and a pass flag
that one rule (``Check``) sets; a single bound violation fails the
experiment (the certificates hold exactly for the finite model, so a
violation indicates a bug, not physics).  Looseness is expected and reported as a measured/bound ratio.

The experiments of one config share its ``Scene`` (``scene_of``): the
basis, Hamiltonian, decomposition, Gibbs state and observable pairs are
built once per config object, and a generator two experiments build apart
is diagonalized once, so ``local-approx`` reads the shell decompositions
``lr`` made on the same preset.  Each runner asks ``correlations`` for the
arrays it reads and no others.

All runners are deterministic given the config: nothing in the package
draws random numbers, so a report is reproduced from its echoed config,
and a runner given a config alone makes the records it makes after the
config's other experiments.
"""

import csv
import functools
import itertools
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import config
from .bounds import BoundInputs, cutoff_bound, gronwall_rate, lr_bound, lrb_decay_exponent
from .config import ExperimentConfig
from .dynamics import (
    SpectralDecomposition,
    _shell_distances,
    basis_vector,
    condensate_nonlocality_expectation,
    correlations,
    eigendecompose,
    free_particle_amplitude,
    inverse_moment_upper_bound,
)
from .errors import BoundaryContaminationError, ConfigError, InvalidArgumentError
from .fock import FockBasis, enumerate_basis, enumerate_sectors
from .lattice import (
    LatticeGraph,
    Region,
    build_chain,
    build_from_edges,
    build_grid,
    enlargement,
    full_region,
    surface_parameter,
)
from .operators import (
    ModelParams,
    SparseOperator,
    assemble_hamiltonian,
    conserves_number,
    cutoff_projection,
    local_observable,
    number_moment,
    operator_norm,
    same_matrix,
    sandwich,
    total_number,
)
from .thermal import (
    GibbsState,
    GreenFunction,
    evolved_two_points,
    expectation,
    gibbs_state,
    moment_sup,
)

log = logging.getLogger("bosonlr")

SUMMARY_SCHEMA_VERSION = 1


@functools.cache
def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("bosonlr")
    except Exception:
        return "unknown"


def _pyify(obj):
    """Recursively convert numpy scalars, and a non-finite float to None,
    so summaries are valid JSON (RFC 8259 has no NaN or Infinity)."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


@dataclass
class ExperimentReport:
    """Sweep records plus summary and reproducibility metadata."""

    experiment: str
    columns: list
    records: list
    summary: dict
    metadata: dict
    passed: bool

    def summary_payload(self) -> dict:
        return _pyify(
            {
                "schema_version": SUMMARY_SCHEMA_VERSION,
                "experiment": self.experiment,
                "passed": bool(self.passed),
                "n_records": len(self.records),
                "summary": self.summary,
                "metadata": self.metadata,
            }
        )


# no runner calls this; perfbench/tracer.py rebinds it in install(), so it stays until that hook is optional
def _pmap(fn, items, workers):
    return [fn(x) for x in items]


@dataclass(frozen=True)
class Check:
    """One comparison a record makes: ``measured`` against ``limit`` by
    ``kind`` -- ``le``: measured <= limit * (1 + slack) + atol; ``lt``:
    measured < limit; ``eq0``: measured == 0; ``none``: informational, it
    always holds.  A NaN on either side fails every gated kind."""

    measured: float
    limit: float = 0.0
    kind: str = "le"
    slack: float = 0.0
    atol: float = 0.0

    @property
    def passed(self) -> bool:
        if self.kind == "lt":
            return bool(self.measured < self.limit)
        if self.kind == "eq0":
            return bool(self.measured == 0.0)
        if self.kind == "none":
            return True
        return bool(self.measured <= self.limit * (1 + self.slack) + self.atol)


def _row(columns, checks=(), **values) -> dict:
    """One record: each of ``columns`` from ``values`` (``""`` where the row
    has none), and ``pass`` true when each of the row's ``checks`` holds."""
    row = {col: values.get(col, "") for col in columns}
    row["pass"] = all(c.passed for c in checks)
    return row


def _finish(cfg: ExperimentConfig, experiment, columns, records, summary, t0, conditions=()):
    """The report: it passes when every record and every summary-level
    condition the runner names holds."""
    passed = all(r["pass"] for r in records) and all(conditions)
    metadata = {
        "config": cfg.to_dict(),
        "tolerances": dict(config.DEFAULT_TOLERANCES),
        "version": _package_version(),
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    log.info("%s: %s (%d records)", experiment, "PASS" if passed else "FAIL", len(records))
    return ExperimentReport(experiment, list(columns), records, summary, metadata, passed)


# ----------------------------------------------------------------- scene setup


def build_graph(graph_spec: dict) -> LatticeGraph:
    kind = graph_spec["type"]
    if kind == "chain":
        return build_chain(graph_spec["length"])
    if kind == "grid":
        return build_grid(graph_spec["dims"])
    return build_from_edges(graph_spec["n_vertices"], graph_spec["edges"], dim_hint=graph_spec.get("dimension", 1))


def build_basis(graph: LatticeGraph, basis_spec: dict) -> FockBasis:
    reg = full_region(graph)
    cap = basis_spec.get("site_cap")
    if basis_spec.get("sector") is not None:
        return enumerate_basis(reg, sector=basis_spec["sector"], cap=cap)
    return enumerate_sectors(reg, basis_spec["n_max"], cap=cap)


@dataclass
class Scene:
    """What the experiments of one config share, each part built once: the
    graph, basis and Hamiltonian with the scene, and on first use the
    decomposition of H, the Gibbs state and the observable pairs.

    ``eigendecompose`` keeps every decomposition made through it, keyed by
    the exact matrix content and checked with ``same_matrix``, so a
    generator that two experiments build apart (``lr``'s and
    ``local-approx``'s inner shells at the cap) is diagonalized once.  Each
    kept decomposition holds one eigenvector array per sector, sum_k n_k^2
    entries, as long as the scene, so a runner passes through it only a
    generator another experiment may build.  ``scene_of`` keeps a config's
    scene in the config's memo, so it lives as long as that config object
    and no longer.
    """

    graph: LatticeGraph
    region: Region
    basis: FockBasis
    params: ModelParams
    H: SparseOperator
    _decomps: dict = field(default_factory=dict, repr=False)
    _parts: dict = field(default_factory=dict, repr=False)

    @functools.cached_property
    def decomp(self) -> SpectralDecomposition:
        """The spectral decomposition of H, made on first use: a runner
        that never reads it (``derivative``) never decomposes H."""
        return self.eigendecompose(self.H)

    def eigendecompose(self, G: SparseOperator) -> SpectralDecomposition:
        """The decomposition of ``G``, made once per distinct matrix."""
        m = G.matrix
        key = hash((G.basis.basis_id, m.shape, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()))
        made = self._decomps.setdefault(key, [])
        for op, d in made:
            if op.basis is G.basis and same_matrix(op, G):
                return d
        made.append((G, eigendecompose(G)))
        return made[-1][1]

    def gibbs(self, cfg: ExperimentConfig) -> GibbsState:
        """The configured Gibbs state of H, made on first use."""
        if "gibbs" not in self._parts:
            self._parts["gibbs"] = _thermal_state(cfg, self)
        return self._parts["gibbs"]

    def pair(self, cfg: ExperimentConfig, k: int = 0):
        """Observable pair ``k`` of the config on the scene's basis, made on
        first use."""
        if ("pair", k) not in self._parts:
            self._parts["pair", k] = _pair_observables(cfg, self.basis, k)
        return self._parts["pair", k]


def build_scene(cfg: ExperimentConfig) -> Scene:
    graph = build_graph(cfg.graph)
    basis = build_basis(graph, cfg.basis)
    reg = full_region(graph)
    H = assemble_hamiltonian(graph, reg, basis, cfg.model)
    return Scene(graph, reg, basis, cfg.model, H)


def scene_of(cfg: ExperimentConfig) -> Scene:
    """The scene every experiment of ``cfg`` shares, built on first use and
    kept in ``cfg.memo``: a new config object (each command-line run makes
    its own) starts from a new scene."""
    if "scene" not in cfg.memo:
        cfg.memo["scene"] = build_scene(cfg)
    return cfg.memo["scene"]


def _thermal_state(cfg: ExperimentConfig, scene: Scene, H=None, decomp=None) -> GibbsState:
    H = H if H is not None else scene.H
    decomp = decomp if decomp is not None else scene.decomp
    thermal = cfg.thermal
    return gibbs_state(
        H, thermal["beta"], thermal["mu"], cfg.basis["n_max"], tail_tol=thermal["tail_tol"], decomposition=decomp
    )


def _initial_state(cfg: ExperimentConfig, scene: Scene):
    kind = cfg.initial_state.get("kind", "gibbs")
    if kind == "gibbs":
        return scene.gibbs(cfg)
    if kind == "gibbs_decoupled":
        frozen = replace(cfg.model, hopping=0.0)
        H0 = assemble_hamiltonian(scene.graph, scene.region, scene.basis, frozen)
        return _thermal_state(cfg, scene, H=H0, decomp=eigendecompose(H0))
    return basis_vector(scene.basis, cfg.initial_state["occupation"])  # the one kind left


def _volume_state(cfg: ExperimentConfig, L, tail_tol: float, reuse: GibbsState | None = None):
    """The configured model's grand-canonical Gibbs state on an L-site
    chain, for the volume trends: (graph, state, A, B) with the first
    observable pair on that chain's basis.  ``reuse``, a state of the
    same model (the scene's), is returned as it is when its basis and
    Hamiltonian equal the chain's entry for entry and its tail estimate
    meets ``tail_tol``: the same state, without a second decomposition."""
    graph = build_chain(L)
    region = full_region(graph)
    basis = enumerate_sectors(region, cfg.basis["n_max"], cfg.basis.get("site_cap"))
    H = assemble_hamiltonian(graph, region, basis, cfg.model)
    if (
        reuse is not None
        and np.array_equal(reuse.basis.occupations, basis.occupations)
        and same_matrix(reuse.hamiltonian, H)
        and reuse.tail_estimate < tail_tol
    ):
        return (graph, reuse, *_pair_observables(cfg, reuse.basis))
    thermal = cfg.thermal
    gamma = gibbs_state(
        H, thermal["beta"], thermal["mu"], cfg.basis["n_max"], tail_tol=tail_tol, decomposition=eigendecompose(H)
    )
    return (graph, gamma, *_pair_observables(cfg, basis))


def _pair_observables(cfg: ExperimentConfig, basis: FockBasis, k: int = 0):
    if k >= len(cfg.observable_pairs):
        raise ConfigError("observables.pairs: experiment needs an observable pair")
    spec_a, spec_b = cfg.observable_pairs[k]
    return local_observable(basis, spec_a), local_observable(basis, spec_b)


def _support_region(graph: LatticeGraph, op: SparseOperator) -> Region:
    if not op.support:
        raise InvalidArgumentError("observable carries no support region")
    return Region(tuple(op.support), graph.graph_id)


def _counting_sigma(graph: LatticeGraph, r: int) -> float:
    return surface_parameter(graph, max(2 * r, 2)).counting


def _fit_exponent(xs, ys) -> float:
    """Least-squares slope of log y against log x; nan when degenerate."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 1e-14]
    if len(pts) < 2:
        return float("nan")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


# ------------------------------------------------------------------ experiments


def run_free_evolution_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Single-particle spreading against the exact lattice propagator, plus
    the condensate-source expectation that exposes the transport of many
    particles over any distance in arbitrarily short time."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    L = scene.graph.n_vertices
    center = L // 2
    xmax = cfg.sweeps["displacement_max"]
    times = cfg.sweeps["times"]
    J = cfg.model.hopping
    tol = config.DEFAULT_TOLERANCES
    norms = []

    def one_particle_profile(graph, basis, decomp, ctr, t):
        occ0 = [0] * graph.n_vertices
        occ0[ctr] = 1
        psi = basis_vector(basis, occ0)
        amps = decomp.propagate(psi.amplitudes, t)
        norms.append(np.linalg.norm(amps))
        return amps

    def window_rows(basis, ctr):
        """Basis index of one particle at ctr + x for x = -xmax..xmax, all
        ranked by one lookup."""
        return basis.lookup(np.eye(basis.n_sites, dtype=np.int64)[ctr - xmax : ctr + xmax + 1])

    cols = [
        "check", "t", "x", "m", "measured_re", "measured_im", "expected_re", "expected_im", "abs_error", "bound", "pass"
    ]
    records = []
    rows = window_rows(scene.basis, center)
    for t in times:
        amps = one_particle_profile(scene.graph, scene.basis, scene.decomp, center, t)
        for x, k in zip(range(-xmax, xmax + 1), rows):
            measured = complex(amps[k])
            expected = free_particle_amplitude(x, J * t)
            err = abs(measured - expected)
            records.append(
                _row(
                    cols,
                    [Check(err, tol["bessel"], "lt")],
                    check="propagator",
                    t=t,
                    x=x,
                    measured_re=measured.real,
                    measured_im=measured.imag,
                    expected_re=expected.real,
                    expected_im=expected.imag,
                    abs_error=err,
                )
            )
    worst = float(np.max([r["abs_error"] for r in records]))  # NaN when any error is

    # boundary-reflection guard: rerun on the doubled chain and compare
    big = build_chain(2 * L + 1)
    big_basis = enumerate_basis(full_region(big), sector=1)
    big_H = assemble_hamiltonian(big, full_region(big), big_basis, cfg.model)
    big_decomp = eigendecompose(big_H)
    big_center = big.n_vertices // 2
    boundary_err = 0.0
    t_max = max(times)
    small = one_particle_profile(scene.graph, scene.basis, scene.decomp, center, t_max)
    large = one_particle_profile(big, big_basis, big_decomp, big_center, t_max)
    for k_s, k_b in zip(rows, window_rows(big_basis, big_center)):
        boundary_err = max(boundary_err, abs(small[k_s] - large[k_b]))
    if boundary_err > tol["boundary_agreement"]:
        raise BoundaryContaminationError(
            f"boundary reflections at {boundary_err:.2e} exceed "
            f"{tol['boundary_agreement']:.1e}; enlarge the lattice"
        )

    # condensate source: expectation of 1/(1+n_x) under m spreading particles
    xc = cfg.sweeps["condensate_site"]
    tc = cfg.sweeps["condensate_time"]
    prob = abs(free_particle_amplitude(xc, J * tc)) ** 2
    monotone = True
    crosscheck_ok = True
    prev = None
    final_val = None
    for m in cfg.sweeps["condensate_m"]:
        val = condensate_nonlocality_expectation(m, xc, J * tc)
        bnd = inverse_moment_upper_bound(m, prob)
        if prev is not None and val > prev * (1 + 1e-12):
            monotone = False
        direct = _binomial_direct(m, prob) if m <= 100 else ""
        if direct != "" and not abs(direct - val) <= tol["condensate_crosscheck"] * max(val, 1e-300):
            crosscheck_ok = False  # a NaN on either side fails too
        records.append(
            _row(
                cols,
                [Check(val, bnd, slack=tol["bound_slack"])],
                check="condensate",
                t=tc,
                x=xc,
                m=m,
                measured_re=val,
                measured_im=0.0,
                expected_re=direct,
                abs_error="" if direct == "" else abs(direct - val),
                bound=bnd,
            )
        )
        prev = val
        final_val = (m, val)
    smallness_ok = True
    if final_val is not None and final_val[0] * prob > 400:
        smallness_ok = final_val[1] < 0.05
    drift = float(np.max(np.abs(np.subtract(norms, 1.0))))  # NaN when any norm is

    summary = {
        "max_propagator_error": worst,
        "max_norm_drift": drift,
        "boundary_agreement": boundary_err,
        "condensate_probability": prob,
        "condensate_monotone": monotone,
        "condensate_within_bound": all(r["pass"] for r in records if r["check"] == "condensate"),
        "condensate_crosscheck_ok": crosscheck_ok,
        "condensate_final": None if final_val is None else final_val[1],
        "condensate_small_at_final": smallness_ok,
    }
    conditions = (monotone, crosscheck_ok, smallness_ok, drift < tol["unitarity"])
    return _finish(cfg, "free-evolution", cols, records, summary, t0, conditions=conditions)


def _binomial_direct(m: int, p: float) -> float:
    """Brute-force E[1/(1+X)] for X ~ Binomial(m, p); exact combinatorics."""
    total = 0.0
    for k in range(m + 1):
        total += math.comb(m, k) * p**k * (1 - p) ** (m - k) / (k + 1)
    return total


def run_moment_propagation(cfg: ExperimentConfig) -> ExperimentReport:
    """Time-evolved occupation moments against the exponential growth
    certificate exp(eta |t|) M."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    state = _initial_state(cfg, scene)
    p = cfg.sweeps["moment_p"]
    M = moment_sup(state, p)
    eta = gronwall_rate(p, scene.graph.max_degree)
    sites = list(scene.region.sites)
    slack = config.DEFAULT_TOLERANCES["bound_slack"]
    times = cfg.sweeps["times"]
    pairs = [(number_moment(scene.basis, x, p), None) for x in sites]
    (evolved,) = correlations(scene.H, state, pairs, times, scene.decomp, "dense", want=("plain",))
    cols = ["t", "site", "measured", "bound", "ratio", "pass"]
    records = []
    for i, t in enumerate(times):
        try:
            bnd = math.exp(eta * abs(t)) * M
        except OverflowError:  # a growth factor past any double: the bound is infinite
            bnd = math.inf if M else 0.0
        for k, x in enumerate(sites):
            measured = float(evolved[k, i].real)
            check = Check(measured, bnd, slack=slack)
            records.append(_row(cols, [check], t=t, site=x, measured=measured, bound=bnd, ratio=measured / bnd))
    summary = {
        "eta": eta,
        "moment_constant": M,
        "moment_p": p,
        "max_ratio": max(r["ratio"] for r in records),
        "max_measured": max(r["measured"] for r in records),
    }
    return _finish(cfg, "moments", cols, records, summary, t0)


def run_cutoff_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Occupation-cutoff error |gamma(tau_t(A)B) - gamma(cutoff dynamics)|
    against the explicit four-term certificate, per cutoff level."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    cap = cfg.basis["site_cap"]
    gamma = scene.gibbs(cfg)
    A, B = scene.pair(cfg)
    X = _support_region(scene.graph, A)
    if cfg.cutoff_region is not None:
        Y = Region(cfg.cutoff_region, scene.graph.graph_id)
    else:
        Y = scene.region
    if not X.as_set() <= Y.as_set():
        raise ConfigError("cutoff_region: must contain the support of the first observable")
    p = cfg.sweeps["moment_p"]
    M = moment_sup(gamma, p)
    r = cfg.model.range_hops
    sigma_cnt = _counting_sigma(scene.graph, r)
    eta = gronwall_rate(p, scene.graph.max_degree)
    norm_a = operator_norm(A)
    norm_b = operator_norm(B)
    times = cfg.sweeps["times"]
    base = correlations(scene.H, gamma, [(A, B)], times, scene.decomp, "dense", want=("ab",))[0][0]
    slack = config.DEFAULT_TOLERANCES["bound_slack"]
    cols = ["lambda", "t", "measured", "bound", "ratio", "at_cap", "pass"]

    def measure(lam: int):
        P = cutoff_projection(scene.basis, Y, lam)
        G = sandwich(P, scene.H)
        # when the cutoff is inactive the generator equals H exactly, its
        # sum is ``base`` itself, and the measured difference is exactly 0
        if same_matrix(G, scene.H):
            vals = base
        else:
            vals = correlations(G, gamma, [(A, B)], times, eigendecompose(G), "dense", want=("ab",))[0][0]
        rows = []
        for t, val, ref in zip(times, vals, base):
            measured = float(abs(val - ref))
            if lam < cap:
                inp = BoundInputs(
                    p=p,
                    M=M,
                    sigma=sigma_cnt,
                    d=scene.graph.dim_hint,
                    r=r,
                    lam=lam,
                    t=t,
                    size_X=len(X),
                    size_Y=len(Y),
                    norm_A=norm_a,
                    norm_B=norm_b,
                )
                bnd = cutoff_bound(inp, eta)
                check = Check(measured, bnd, slack=slack)
                ratio = measured / bnd if bnd > 0 else 0.0
            else:
                bnd = 0.0
                check = Check(measured, kind="eq0")
                ratio = 0.0
            values = {"lambda": lam, "t": t, "measured": measured, "bound": bnd, "ratio": ratio, "at_cap": lam >= cap}
            rows.append(_row(cols, [check], **values))
        return rows

    lambdas = cfg.sweeps["cutoffs"] + [cap]
    records = [row for lam in lambdas for row in measure(lam)]
    swept = [r for r in records if not r["at_cap"]]
    fitted = _fit_exponent([r["lambda"] for r in swept], [r["measured"] for r in swept])
    monotone = all(
        a["measured"] >= b["measured"] * (1 - config.DEFAULT_TOLERANCES["monotone_slack"])
        for a, b in zip(swept, swept[1:])
        if a["t"] == b["t"]
    )
    summary = {
        "moment_constant": M,
        "eta": eta,
        "fitted_lambda_exponent": fitted,
        "predicted_lambda_exponent": -p / 2 + 1,
        "monotone_nonincreasing": monotone,
        "tail_estimate": gamma.tail_estimate,
        "max_ratio": max((r["ratio"] for r in swept), default=0.0),
    }
    return _finish(cfg, "cutoff", cols, records, summary, t0)


def run_lr_decay(cfg: ExperimentConfig) -> ExperimentReport:
    """(a) operator-norm error of shell-restricted cutoff dynamics against
    the light-cone certificate; (b) thermal commutator decay with distance,
    with the fitted exponent reported next to the predicted one.

    Each shell's error ||tau^in_t(A) - tau_t(A)|| is taken in the
    eigenbasis of its full generator G_full, sector by sector with the
    times inside (``_shell_distances``), so nothing is rotated back and
    memory does not grow with the time grid.  At the cap G_full is the
    scene's H for every shell, and A~ under H is rotated once and shared;
    below it each shell decomposes its own G_full.  A shell whose inner
    generator equals its full one reads exactly 0.0, and so does every
    shell at t = 0."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    cap = cfg.basis.get("site_cap")
    A, B = scene.pair(cfg)
    # G_in and G_full conserve number by construction; with A conserving too,
    # the evolved operators are block-diagonal by sector and the measured
    # norm is exact block by block
    if not conserves_number(A):
        raise InvalidArgumentError("lr: the first observable must conserve the total particle number")
    X = _support_region(scene.graph, A)
    lam = cfg.sweeps.get("lr_lambda")
    if lam is None:
        lam = cap if cap is not None else scene.basis.max_total
    r = cfg.model.range_hops
    d = scene.graph.dim_hint
    p = cfg.sweeps["moment_p"]
    sigma_cnt = _counting_sigma(scene.graph, r)
    norm_a = operator_norm(A)
    times = cfg.sweeps["times"]
    slack = config.DEFAULT_TOLERANCES["bound_slack"]
    full_sites = scene.region.as_set()
    cols = ["check", "m", "t", "site", "distance", "measured", "bound", "ratio", "covering", "pass"]

    # A~ per sector under the scene's H, rotated on first use and shared by
    # every shell whose full generator is that H: all of them when the
    # cutoff sits at the cap, none below it
    scene_rotated = {}

    def measure(m: int):
        inner = enlargement(scene.graph, X, 2 * m * r)
        protect = enlargement(scene.graph, X, (2 * m + 1) * r)
        P = cutoff_projection(scene.basis, protect, lam)
        H_in = assemble_hamiltonian(scene.graph, inner, scene.basis, cfg.model)
        G_in = sandwich(P, H_in)
        G_full = sandwich(P, scene.H)
        if same_matrix(G_full, scene.H):
            # P keeps every state H reaches, so G_in is H_in too: the shell
            # generator local-approx reads, which the scene keeps
            d_full, rotated = scene.decomp, scene_rotated
            d_in = scene.eigendecompose(G_in)
        else:
            d_full, rotated = eigendecompose(G_full), None
            d_in = d_full if same_matrix(G_in, G_full) else eigendecompose(G_in)
        covering = inner.as_set() == full_sites
        distances = _shell_distances(A, times, d_in, d_full, rotated)
        rows = []
        for t, measured in zip(times, distances.tolist()):
            inp = BoundInputs(
                sigma=sigma_cnt,
                d=d,
                r=r,
                lam=lam,
                m=m,
                t=t,
                size_X=len(X),
                norm_A=norm_a,
                v_inf=cfg.model.v_inf,
            )
            bnd = lr_bound(inp)
            checks = [Check(measured, bnd, slack=slack)]
            if covering:  # a shell covering the lattice is the full dynamics, exactly
                checks.append(Check(measured, kind="eq0"))
            ratio = measured / bnd if bnd > 0 else 0.0
            values = {"m": m, "t": t, "measured": measured, "bound": bnd, "ratio": ratio, "covering": covering}
            rows.append(_row(cols, checks, check="shells", **values))
        return rows

    records = [row for m in cfg.sweeps["shells"] for row in measure(m)]

    gamma = scene.gibbs(cfg)
    sites = cfg.sweeps["commutator_sites"]
    pairs = [
        (A, local_observable(scene.basis, {"kind": "number_function", "site": j, "fn": "inv_one_plus_n"}))
        for j in sites
    ]
    ab, ba = correlations(scene.H, gamma, pairs, times, scene.decomp, "dense", want=("ab", "ba"))
    commutator_rows = []
    for i, t in enumerate(times):
        for k, j in enumerate(sites):
            dist = int(min(scene.graph.dist[x, j] for x in X.sites))
            measured = float(abs(ab[k, i] - ba[k, i]))
            values = {"t": t, "site": j, "distance": dist, "measured": measured}
            commutator_rows.append(_row(cols, [Check(measured, kind="none")], check="commutator", **values))
    records.extend(commutator_rows)
    t_ref = max(times)
    decay_pts = [(r_["distance"], r_["measured"]) for r_ in commutator_rows if r_["t"] == t_ref]
    fitted = _fit_exponent([p_[0] for p_ in decay_pts], [p_[1] for p_ in decay_pts])
    summary = {
        "lambda": lam,
        "sigma_counting": sigma_cnt,
        "fitted_distance_exponent": fitted,
        "predicted_distance_exponent": lrb_decay_exponent(d, p),
        "max_ratio": max((r_["ratio"] for r_ in records if r_["ratio"] != ""), default=0.0),
        "tail_estimate": gamma.tail_estimate,
    }
    return _finish(cfg, "lr", cols, records, summary, t0)


def run_local_approx(cfg: ExperimentConfig) -> ExperimentReport:
    """Shell-restricted against full dynamics in a thermal state: the sup
    over the time grid per shell count, the first shell reaching the
    configured accuracy, and the qualitative decay envelope."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    gamma = scene.gibbs(cfg)
    A, B = scene.pair(cfg)
    X = _support_region(scene.graph, A)
    r = cfg.model.range_hops
    d = scene.graph.dim_hint
    p = cfg.sweeps["moment_p"]
    norm_a = operator_norm(A)
    norm_b = operator_norm(B)
    eps_rels = cfg.sweeps["epsilons"]
    eps = eps_rels[0] * norm_a * norm_b
    sup_times = cfg.sweeps["sup_times"] or cfg.sweeps["times"]
    full_sites = scene.region.as_set()
    full = correlations(scene.H, gamma, [(A, B)], sup_times, scene.decomp, "dense", want=("ab",))[0][0]

    def measure(m: int):
        inner = enlargement(scene.graph, X, 2 * m * r)
        covering = inner.as_set() == full_sites
        H_in = assemble_hamiltonian(scene.graph, inner, scene.basis, cfg.model)
        if same_matrix(H_in, scene.H):  # the full sum, already made
            restricted = full
        else:  # lr at the cap decomposes this same generator
            d_in = scene.eigendecompose(H_in)
            restricted = correlations(H_in, gamma, [(A, B)], sup_times, d_in, "dense", want=("ab",))[0][0]
        sup_val = float(np.abs(full - restricted).max(initial=0.0))
        envelope = m ** (d + 1) * math.exp(-m) + float(m) ** (d - p / 2 + 1)
        below = sup_val <= eps
        return {"m": m, "sup_difference": sup_val, "envelope": envelope, "covering": covering, "below_epsilon": below}

    values = [measure(m) for m in cfg.sweeps["shells"]]
    sup_seq = [v["sup_difference"] for v in values]
    # the report's two conditions, which every row copies: the sup decays
    # shell by shell, and some shell reaches epsilon (m0 exists)
    slack = config.DEFAULT_TOLERANCES["monotone_slack"]
    trend = [Check(b, a, slack=slack, atol=1e-15) for a, b in zip(sup_seq, sup_seq[1:])]
    cols = ["m", "sup_difference", "envelope", "covering", "below_epsilon", "pass"]
    records = [_row(cols, [*trend, Check(min(sup_seq), eps)], **v) for v in values]
    m0 = next((r_["m"] for r_ in records if r_["below_epsilon"]), None)
    m0_per_eps = {
        str(e): next(
            (r_["m"] for r_ in records if r_["sup_difference"] <= e * norm_a * norm_b), None
        )
        for e in eps_rels
    }
    summary = {
        "epsilon": eps,
        "empirical_m0": m0,
        "empirical_m0_per_epsilon": m0_per_eps,
        "monotone_trend": all(c.passed for c in trend),
        "envelope_ratio": max(
            (r_["sup_difference"] / r_["envelope"] for r_ in records if r_["envelope"] > 0),
            default=0.0,
        ),
        "tail_estimate": gamma.tail_estimate,
    }
    return _finish(cfg, "local-approx", cols, records, summary, t0)


def run_kms_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Equilibrium diagnostics of the truncated thermal state: boundary
    residuals of the strip function by two independent code paths, the
    maximum-principle bound on the strip grid, stationarity, and a
    volume-growth trend of the two-point function.

    The time-evolved side of every pair comes from one
    ``evolved_two_points`` call over the whole time grid; each pair's
    boundary values and strip grid come from one ``GreenFunction.values``
    call."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    gamma = scene.gibbs(cfg)
    beta = gamma.beta
    times = cfg.sweeps["times"]
    n_grid = cfg.sweeps["strip_points"]
    t_span = max(max(times), beta)
    pairs = [scene.pair(cfg, k) for k in range(len(cfg.observable_pairs))]
    direct_ab, direct_ba, evolved = evolved_two_points(gamma, pairs, times)
    n_t = len(times)
    points = [complex(t, 0.0) for t in times] + [complex(t, -beta) for t in times]
    points += [
        complex(tt, -ss)
        for tt in np.linspace(-t_span, t_span, n_grid)
        for ss in np.linspace(0.0, beta, n_grid)
    ]

    cols = ["check", "pair", "t", "s", "volume", "value", "limit", "pass"]

    def check_pair(k: int):
        A, B = pairs[k]
        F = GreenFunction(gamma, A, B).values(points)
        norm_ab = operator_norm(A) * operator_norm(B)
        limit = config.DEFAULT_TOLERANCES["kms_residual"]
        rows = []
        for i, t in enumerate(times):
            r1, r2 = float(abs(F[i] - direct_ab[k, i])), float(abs(F[n_t + i] - direct_ba[k, i]))
            checks = [Check(r1, limit, "lt"), Check(r2, limit, "lt")]
            rows.append(_row(cols, checks, check="boundary", pair=k, t=t, value=max(r1, r2), limit=limit))
        strip_max = float(np.abs(F[2 * n_t :]).max())
        check = Check(strip_max, norm_ab, slack=config.DEFAULT_TOLERANCES["strip_slack"], atol=1e-15)
        rows.append(_row(cols, [check], check="strip", pair=k, value=strip_max, limit=norm_ab))
        mean = expectation(gamma, A)
        limit = config.DEFAULT_TOLERANCES["invariance_residual"]
        for i, t in enumerate(times):
            res = float(abs(evolved[k, i] - mean))
            rows.append(_row(cols, [Check(res, limit, "lt")], check="invariance", pair=k, t=t, value=res, limit=limit))
        return rows

    records = [row for k in range(len(pairs)) for row in check_pair(k)]

    # volume-growth trend: same local observables in growing volumes
    trend_vals = {}
    for L in cfg.volumes:
        _, gamma_l, A_l, B_l = _volume_state(cfg, L, max(cfg.thermal["tail_tol"], 0.5), gamma)
        trend_vals[L] = correlations(
            gamma_l.hamiltonian, gamma_l, [(A_l, B_l)], times, gamma_l.decomp, "dense", want=("ab",)
        )[0][0]
    for u, v in itertools.combinations(sorted(trend_vals), 2):
        for t, a, b in zip(times, trend_vals[u], trend_vals[v]):
            diff = float(abs(a - b))
            check = Check(diff, kind="none")
            records.append(_row(cols, [check], check="volume-trend", pair=0, t=t, volume=f"{u}-{v}", value=diff))

    summary = {
        "max_boundary_residual": max(r["value"] for r in records if r["check"] == "boundary"),
        "max_invariance_residual": max(r["value"] for r in records if r["check"] == "invariance"),
        "tail_estimate": gamma.tail_estimate,
        "volume_trend_max_diff": max((r["value"] for r in records if r["check"] == "volume-trend"), default=None),
    }
    return _finish(cfg, "kms", cols, records, summary, t0)


def run_derivative_bound(cfg: ExperimentConfig) -> ExperimentReport:
    """(a) the smallest constant certifying the square of the local
    Hamiltonian against 1 + (regional particle number)^4; (b) check the
    numerically differentiated two-point function is bounded uniformly
    over a time grid and across growing volumes."""
    t0 = time.perf_counter()
    scene = scene_of(cfg)
    A, B = scene.pair(cfg)
    X = _support_region(scene.graph, A)
    r = cfg.model.range_hops

    def min_eig(c, H2, w):
        return float(np.linalg.eigvalsh(c * np.diag(w) - H2).min())

    def minimal_constant(basis, graph):
        """Smallest c with c W - H_Xr^2 >= 0, W = 1 + N_Xr^4 (diagonal): the
        top eigenvalue of the pencil (H_Xr^2, W).  Also returns H_Xr^2 and
        the diagonal of W."""
        Xr = enlargement(graph, Region(tuple(X.sites), graph.graph_id), r)
        Hd = assemble_hamiltonian(graph, Xr, basis, cfg.model).to_dense()
        H2 = Hd @ Hd
        w = 1.0 + total_number(basis, Xr).matrix.diagonal() ** 4
        c = float(scipy.linalg.eigh(H2, np.diag(w), eigvals_only=True)[-1])
        return c, min_eig(c, H2, w), H2, w

    cols = ["check", "volume", "n_max", "t", "value", "min_eig", "richardson_ok", "pass"]
    at = {"volume": scene.graph.n_vertices, "n_max": scene.basis.max_total}
    c_star, eig_at_c, H2, w = minimal_constant(scene.basis, scene.graph)
    certificate = Check(-eig_at_c, 1e-8)  # min_eig >= -1e-8
    records = [_row(cols, [certificate], check="operator-inequality", value=c_star, min_eig=eig_at_c, **at)]
    # trace the smallest eigenvalue as a function of the trial constant,
    # so the report shows where the certificate turns feasible
    for frac in (0.25, 0.5, 0.75, 1.0, 1.5):
        c_trial = frac * c_star
        eig = min_eig(c_trial, H2, w)
        records.append(_row(cols, [Check(eig, kind="none")], check="inequality-scan", value=c_trial, min_eig=eig, **at))
    for nm in cfg.deriv["trend_n_max"]:
        if nm == scene.basis.max_total:
            continue
        basis_nm = enumerate_sectors(scene.region, nm, cfg.basis.get("site_cap"))
        c_nm, eig_nm, _, _ = minimal_constant(basis_nm, scene.graph)
        values = {"volume": at["volume"], "n_max": nm, "value": c_nm, "min_eig": eig_nm}
        records.append(_row(cols, [Check(eig_nm, kind="none")], check="operator-inequality", **values))

    h = config.DEFAULT_TOLERANCES["deriv_step"]
    R = cfg.deriv["range_R"]
    times = cfg.sweeps["times"]
    sup_per_volume = {}
    norm_ab = None
    for L in cfg.volumes:
        graph_l, gamma_l, A_l, B_l = _volume_state(cfg, L, cfg.thermal["tail_tol"])
        XR = enlargement(graph_l, Region(tuple(X.sites), graph_l.graph_id), R)
        H_xr = assemble_hamiltonian(graph_l, XR, gamma_l.basis, cfg.model)
        d_xr = gamma_l.decomp if same_matrix(H_xr, gamma_l.hamiltonian) else eigendecompose(H_xr)
        if norm_ab is None:
            norm_ab = operator_norm(A_l) * operator_norm(B_l)

        steps = [t + s for t in times for s in (h, -h, 2 * h, -2 * h)]
        g = correlations(H_xr, gamma_l, [(A_l, B_l)], steps, d_xr, "dense", want=("ab",))[0][0].reshape(-1, 4)
        sup_d = 0.0
        for t, (plus, minus, plus2, minus2) in zip(times, g):
            d1 = complex(plus - minus) / (2 * h)
            d2 = complex(plus2 - minus2) / (4 * h)
            rich = Check(abs(d1 - d2), config.DEFAULT_TOLERANCES["richardson"])
            sup_d = max(sup_d, abs(d1))
            values = {"volume": L, "n_max": cfg.basis["n_max"], "t": t, "value": abs(d1), "richardson_ok": rich.passed}
            records.append(_row(cols, [rich], check="derivative", **values))
        sup_per_volume[L] = sup_d

    sups = list(sup_per_volume.values())
    spread = (max(sups) / min(sups)) if min(sups) > 0 else math.inf
    uniform_ok = spread <= config.DEFAULT_TOLERANCES["volume_uniformity"]
    c_prime = max(sups) / norm_ab if norm_ab else math.inf
    summary = {
        "certified_constant": c_star,
        "certified_min_eig": eig_at_c,
        "derivative_sup_per_volume": {str(k): v for k, v in sup_per_volume.items()},
        "uniform_constant": c_prime,
        "volume_spread": spread,
        "richardson_ok": all(r["pass"] for r in records if r["check"] == "derivative"),
    }
    return _finish(cfg, "derivative", cols, records, summary, t0, conditions=(uniform_ok,))


RUNNERS = {
    "free-evolution": run_free_evolution_check,
    "moments": run_moment_propagation,
    "cutoff": run_cutoff_scaling,
    "lr": run_lr_decay,
    "local-approx": run_local_approx,
    "kms": run_kms_check,
    "derivative": run_derivative_bound,
}


# -------------------------------------------------------------------- reports


def write_report(report: ExperimentReport, out_dir, stem: str | None = None) -> dict:
    """Write the sweep CSV (one row per point, header documented) and the
    JSON summary; returns the paths."""
    stem = stem or report.experiment
    try:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{stem}.csv")
        json_path = os.path.join(out_dir, f"{stem}.json")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# experiment: {report.experiment}\n")
            fh.write(f"# columns: {','.join(report.columns)}\n")
            writer = csv.DictWriter(fh, fieldnames=report.columns)
            writer.writeheader()
            for row in report.records:
                writer.writerow({k: row.get(k, "") for k in report.columns})
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report.summary_payload(), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write report under {out_dir!r}: {exc}") from exc
    return {"csv": csv_path, "json": json_path}

