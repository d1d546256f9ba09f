"""The verification experiments: measured quantities against certificates.

Each runner sweeps a parameter grid, records one row per point with the
measured value, the analytic bound where one applies, and a pass flag;
a single bound violation fails the experiment (the certificates hold
exactly for the finite model, so a violation indicates a bug, not
physics).  Looseness is expected and reported as a measured/bound ratio.

All runners are deterministic given the config: nothing in the package
draws random numbers, so a report is reproduced from its echoed config.
"""

import csv
import functools
import itertools
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .bounds import BoundInputs, cutoff_bound, gronwall_rate, lr_bound, lrb_decay_exponent
from .config import ExperimentConfig
from .dynamics import (
    SpectralDecomposition,
    basis_vector,
    condensate_nonlocality_expectation,
    correlations,
    eigendecompose,
    free_particle_amplitude,
    heisenberg_blocks,
    inverse_moment_upper_bound,
)
from .errors import BoundaryContaminationError, ConfigError, InvalidArgumentError, NotInBasisError
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
    dump_operator,
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
    fixed_sector_gibbs,
    gibbs_state,
    moment_sup,
)

log = logging.getLogger("bosonlr")

SUMMARY_SCHEMA_VERSION = 1


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("bosonlr")
    except Exception:
        return "unknown"


def _pyify(obj):
    """Recursively convert numpy scalars so summaries are JSON-clean."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
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


def _pmap(fn, items, workers):
    items = list(items)
    if workers is None:
        workers = min(len(items), os.cpu_count() or 1)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _finish(cfg: ExperimentConfig, experiment, columns, records, summary, passed, t0):
    metadata = {
        "config": cfg.to_dict(),
        "version": _package_version(),
        "runtime_s": round(time.perf_counter() - t0, 3),
    }
    log.info("%s: %s (%d records)", experiment, "PASS" if passed else "FAIL", len(records))
    return ExperimentReport(experiment, list(columns), records, summary, metadata, bool(passed))


# ----------------------------------------------------------------- scene setup


def build_graph(graph_spec: dict) -> LatticeGraph:
    kind = graph_spec["type"]
    if kind == "chain":
        return build_chain(int(graph_spec["length"]))
    if kind == "grid":
        return build_grid([int(d) for d in graph_spec["dims"]])
    if kind == "edges":
        return build_from_edges(
            int(graph_spec["n_vertices"]),
            [(int(a), int(b)) for a, b in graph_spec["edges"]],
            dim_hint=int(graph_spec.get("dimension", 1)),
        )
    raise ConfigError(f"graph.type: unknown type {kind!r}")


def build_basis(graph: LatticeGraph, basis_spec: dict) -> FockBasis:
    reg = full_region(graph)
    cap = basis_spec.get("site_cap")
    cap = None if cap is None else int(cap)
    if basis_spec.get("sector") is not None:
        return enumerate_basis(reg, sector=int(basis_spec["sector"]), cap=cap)
    return enumerate_sectors(reg, int(basis_spec["n_max"]), cap=cap)


@dataclass
class Scene:
    """Shared per-experiment context built once from a config."""

    graph: LatticeGraph
    region: Region
    basis: FockBasis
    params: ModelParams
    H: SparseOperator

    @functools.cached_property
    def decomp(self) -> SpectralDecomposition:
        """The spectral decomposition of H, made on first use: a runner
        that never reads it (``derivative``) never decomposes H."""
        return eigendecompose(self.H)


def build_scene(cfg: ExperimentConfig) -> Scene:
    graph = build_graph(cfg.graph)
    basis = build_basis(graph, cfg.basis)
    reg = full_region(graph)
    H = assemble_hamiltonian(graph, reg, basis, cfg.model)
    if cfg.debug.get("dump_operators") and cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        dump_operator(H, os.path.join(cfg.output_dir, f"{cfg.name}-hamiltonian.mtx"))
    return Scene(graph, reg, basis, cfg.model, H)


def _thermal_state(cfg: ExperimentConfig, scene: Scene, H=None, decomp=None) -> GibbsState:
    H = H if H is not None else scene.H
    decomp = decomp if decomp is not None else scene.decomp
    beta = float(cfg.thermal["beta"])
    if H.basis.sector is not None:
        return fixed_sector_gibbs(H, beta, decomp)
    return gibbs_state(
        H,
        beta,
        float(cfg.thermal["mu"]),
        int(cfg.basis["n_max"]),
        tail_tol=float(cfg.thermal["tail_tol"]),
        decomposition=decomp,
    )


def _initial_state(cfg: ExperimentConfig, scene: Scene):
    kind = cfg.initial_state.get("kind", "gibbs")
    if kind == "gibbs":
        return _thermal_state(cfg, scene)
    if kind == "gibbs_decoupled":
        frozen = replace(cfg.model, hopping=0.0)
        H0 = assemble_hamiltonian(scene.graph, scene.region, scene.basis, frozen)
        return _thermal_state(cfg, scene, H=H0, decomp=eigendecompose(H0))
    if kind == "occupation":
        try:
            return basis_vector(scene.basis, cfg.initial_state["occupation"])
        except NotInBasisError as exc:  # no basis exists before the run to check it against
            raise ConfigError(f"initial_state.occupation: {exc}") from exc
    raise ConfigError(f"initial_state.kind: unknown kind {kind!r}")


def _volume_state(cfg: ExperimentConfig, L, tail_tol: float):
    """The configured model's grand-canonical Gibbs state on an L-site
    chain, for the volume trends: (graph, state, A, B) with the first
    observable pair on that chain's basis."""
    graph = build_chain(int(L))
    region = full_region(graph)
    basis = enumerate_sectors(region, int(cfg.basis["n_max"]), cfg.basis.get("site_cap"))
    H = assemble_hamiltonian(graph, region, basis, cfg.model)
    gamma = gibbs_state(
        H,
        float(cfg.thermal["beta"]),
        float(cfg.thermal["mu"]),
        int(cfg.basis["n_max"]),
        tail_tol=tail_tol,
        decomposition=eigendecompose(H),
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
    if cfg.graph["type"] != "chain":
        raise ConfigError("graph.type: free-evolution runs on a chain")
    if cfg.basis.get("sector") != 1:
        raise ConfigError("basis.sector: free-evolution needs the one-particle sector")
    scene = build_scene(cfg)
    L = scene.graph.n_vertices
    center = L // 2
    xmax = int(cfg.sweeps["displacement_max"])
    if center - xmax < 0 or center + xmax >= L:
        raise ConfigError("sweeps.displacement_max: window exceeds the chain")
    times = [float(t) for t in cfg.sweeps["times"]]
    J = cfg.model.hopping

    def one_particle_profile(graph, basis, decomp, ctr, t):
        occ0 = [0] * graph.n_vertices
        occ0[ctr] = 1
        psi = basis_vector(basis, occ0)
        return decomp.propagate(psi.amplitudes, t)

    records = []
    worst = 0.0
    for t in times:
        amps = one_particle_profile(scene.graph, scene.basis, scene.decomp, center, t)
        for x in range(-xmax, xmax + 1):
            occ = [0] * L
            occ[center + x] = 1
            measured = complex(amps[scene.basis.index_of(occ)])
            expected = free_particle_amplitude(x, J * t)
            err = abs(measured - expected)
            worst = max(worst, err)
            records.append(
                {
                    "check": "propagator",
                    "t": t,
                    "x": x,
                    "m": "",
                    "measured_re": measured.real,
                    "measured_im": measured.imag,
                    "expected_re": expected.real,
                    "expected_im": expected.imag,
                    "abs_error": err,
                    "bound": "",
                    "pass": err < cfg.tol("bessel"),
                }
            )

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
    for x in range(-xmax, xmax + 1):
        occ_s = [0] * L
        occ_s[center + x] = 1
        occ_b = [0] * big.n_vertices
        occ_b[big_center + x] = 1
        boundary_err = max(
            boundary_err,
            abs(small[scene.basis.index_of(occ_s)] - large[big_basis.index_of(occ_b)]),
        )
    if boundary_err > cfg.tol("boundary_agreement"):
        raise BoundaryContaminationError(
            f"boundary reflections at {boundary_err:.2e} exceed "
            f"{cfg.tol('boundary_agreement'):.1e}; enlarge the lattice"
        )

    # condensate source: expectation of 1/(1+n_x) under m spreading particles
    xc = int(cfg.sweeps["condensate_site"])
    tc = float(cfg.sweeps["condensate_time"])
    prob = abs(free_particle_amplitude(xc, J * tc)) ** 2
    monotone = True
    within_bound = True
    crosscheck_ok = True
    prev = None
    final_val = None
    for m in [int(m) for m in cfg.sweeps["condensate_m"]]:
        val = condensate_nonlocality_expectation(m, xc, J * tc)
        bnd = inverse_moment_upper_bound(m, prob)
        ok_b = val <= bnd * (1 + 1e-12)
        within_bound &= ok_b
        if prev is not None and val > prev * (1 + 1e-12):
            monotone = False
        direct = _binomial_direct(m, prob) if m <= 100 else ""
        if direct != "" and abs(direct - val) > cfg.tol("condensate_crosscheck") * max(val, 1e-300):
            crosscheck_ok = False
        records.append(
            {
                "check": "condensate",
                "t": tc,
                "x": xc,
                "m": m,
                "measured_re": val,
                "measured_im": 0.0,
                "expected_re": direct,
                "expected_im": "",
                "abs_error": "" if direct == "" else abs(direct - val),
                "bound": bnd,
                "pass": ok_b,
            }
        )
        prev = val
        final_val = (m, val)
    smallness_ok = True
    if final_val is not None and final_val[0] * prob > 400:
        smallness_ok = final_val[1] < 0.05

    passed = (
        worst < cfg.tol("bessel") and monotone and within_bound and crosscheck_ok and smallness_ok
    )
    summary = {
        "max_propagator_error": worst,
        "boundary_agreement": boundary_err,
        "condensate_probability": prob,
        "condensate_monotone": monotone,
        "condensate_within_bound": within_bound,
        "condensate_crosscheck_ok": crosscheck_ok,
        "condensate_final": None if final_val is None else final_val[1],
        "condensate_small_at_final": smallness_ok,
    }
    cols = [
        "check",
        "t",
        "x",
        "m",
        "measured_re",
        "measured_im",
        "expected_re",
        "expected_im",
        "abs_error",
        "bound",
        "pass",
    ]
    return _finish(cfg, "free-evolution", cols, records, summary, passed, t0)


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
    scene = build_scene(cfg)
    state = _initial_state(cfg, scene)
    p = float(cfg.sweeps["moment_p"])
    M = moment_sup(state, p)
    eta = gronwall_rate(p, scene.graph.max_degree)
    sites = list(scene.region.sites)
    slack = cfg.tol("bound_slack")
    times = [float(t) for t in cfg.sweeps["times"]]
    pairs = [(number_moment(scene.basis, x, p), None) for x in sites]
    _, _, evolved = correlations(scene.H, state, pairs, times, scene.decomp, "dense")
    records = []
    for i, t in enumerate(times):
        bnd = math.exp(eta * abs(t)) * M
        for k, x in enumerate(sites):
            measured = float(evolved[k, i].real)
            records.append(
                {
                    "t": t,
                    "site": x,
                    "measured": measured,
                    "bound": bnd,
                    "ratio": measured / bnd,
                    "pass": measured <= bnd * (1 + slack),
                }
            )
    passed = all(r["pass"] for r in records)
    summary = {
        "eta": eta,
        "moment_constant": M,
        "moment_p": p,
        "max_ratio": max(r["ratio"] for r in records),
        "max_measured": max(r["measured"] for r in records),
    }
    cols = ["t", "site", "measured", "bound", "ratio", "pass"]
    return _finish(cfg, "moments", cols, records, summary, passed, t0)


def run_cutoff_scaling(cfg: ExperimentConfig) -> ExperimentReport:
    """Occupation-cutoff error |gamma(tau_t(A)B) - gamma(cutoff dynamics)|
    against the explicit four-term certificate, per cutoff level."""
    t0 = time.perf_counter()
    scene = build_scene(cfg)
    cap = int(cfg.basis["site_cap"])
    gamma = _thermal_state(cfg, scene)
    A, B = _pair_observables(cfg, scene.basis)
    X = _support_region(scene.graph, A)
    if cfg.cutoff_region is not None:
        Y = Region(cfg.cutoff_region, scene.graph.graph_id)
    else:
        Y = scene.region
    if not X.as_set() <= Y.as_set():
        raise ConfigError("cutoff_region: must contain the support of the first observable")
    p = float(cfg.sweeps["moment_p"])
    M = moment_sup(gamma, p)
    r = cfg.model.range_hops
    sigma_cnt = _counting_sigma(scene.graph, r)
    eta = gronwall_rate(p, scene.graph.max_degree)
    norm_a = operator_norm(A)
    norm_b = operator_norm(B)
    times = [float(t) for t in cfg.sweeps["times"]]
    base = correlations(scene.H, gamma, [(A, B)], times, scene.decomp, "dense")[0][0]
    slack = cfg.tol("bound_slack")

    def measure(lam: int):
        P = cutoff_projection(scene.basis, Y, lam)
        G = sandwich(P, scene.H)
        # when the cutoff is inactive the generator equals H exactly, its
        # sum is ``base`` itself, and the measured difference is exactly 0
        if same_matrix(G, scene.H):
            vals = base
        else:
            vals = correlations(G, gamma, [(A, B)], times, eigendecompose(G), "dense")[0][0]
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
                ok = measured <= bnd * (1 + slack)
                ratio = measured / bnd if bnd > 0 else 0.0
            else:
                bnd = 0.0
                ok = measured == 0.0
                ratio = 0.0
            rows.append(
                {
                    "lambda": lam,
                    "t": t,
                    "measured": measured,
                    "bound": bnd,
                    "ratio": ratio,
                    "at_cap": lam >= cap,
                    "pass": ok,
                }
            )
        return rows

    lambdas = [int(l) for l in cfg.sweeps["cutoffs"]] + [cap]
    chunks = _pmap(measure, lambdas, cfg.workers)
    records = [row for chunk in chunks for row in chunk]
    passed = all(r["pass"] for r in records)
    swept = [r for r in records if not r["at_cap"]]
    fitted = _fit_exponent([r["lambda"] for r in swept], [r["measured"] for r in swept])
    monotone = all(
        a["measured"] >= b["measured"] * (1 - cfg.tol("monotone_slack"))
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
    cols = ["lambda", "t", "measured", "bound", "ratio", "at_cap", "pass"]
    return _finish(cfg, "cutoff", cols, records, summary, passed, t0)


def run_lr_decay(cfg: ExperimentConfig) -> ExperimentReport:
    """(a) operator-norm error of shell-restricted cutoff dynamics against
    the light-cone certificate; (b) thermal commutator decay with distance,
    with the fitted exponent reported next to the predicted one."""
    t0 = time.perf_counter()
    scene = build_scene(cfg)
    cap = cfg.basis.get("site_cap")
    A, B = _pair_observables(cfg, scene.basis)
    # G_in and G_full conserve number by construction; with A conserving too,
    # the evolved operators are block-diagonal by sector and the measured
    # norm is exact block by block
    if not conserves_number(A):
        raise InvalidArgumentError("lr: the first observable must conserve the total particle number")
    X = _support_region(scene.graph, A)
    lam = int(cfg.sweeps.get("lr_lambda") or (cap if cap is not None else scene.basis.max_total))
    r = cfg.model.range_hops
    d = scene.graph.dim_hint
    p = float(cfg.sweeps["moment_p"])
    sigma_cnt = _counting_sigma(scene.graph, r)
    norm_a = operator_norm(A)
    times = [float(t) for t in cfg.sweeps["times"]]
    slack = cfg.tol("bound_slack")
    full_sites = scene.region.as_set()
    lock, on_scene = threading.Lock(), []

    def scene_evolution():
        """(decomposition, tau_t(A) blocks) under the scene's own H, made on
        first use and shared by every shell whose full generator is that H:
        all of them when the cutoff sits at the cap, none below it.  The
        lock makes parallel shells wait for one computation."""
        with lock:
            if not on_scene:
                on_scene.append((scene.decomp, heisenberg_blocks(scene.H, A, times, scene.decomp)))
        return on_scene[0]

    def measure(m: int):
        inner = enlargement(scene.graph, X, 2 * m * r)
        protect = enlargement(scene.graph, X, (2 * m + 1) * r)
        P = cutoff_projection(scene.basis, protect, lam)
        H_in = assemble_hamiltonian(scene.graph, inner, scene.basis, cfg.model)
        G_in = sandwich(P, H_in)
        G_full = sandwich(P, scene.H)
        if same_matrix(G_full, scene.H):
            d_full, full = scene_evolution()
        else:
            d_full = eigendecompose(G_full)
            full = heisenberg_blocks(G_full, A, times, d_full)
        d_in = d_full if same_matrix(G_in, G_full) else eigendecompose(G_in)
        covering = inner.as_set() == full_sites
        evolved_in = full if d_in is d_full else heisenberg_blocks(G_in, A, times, d_in)
        rows = []
        for t, T_in, T_full in zip(times, evolved_in, full):
            # A conserves number, so its blocks are the sector-diagonal ones
            measured = max((operator_norm(T_in[k] - T_full[k]) for k in T_full), default=0.0)
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
            ok = measured <= bnd * (1 + slack)
            if covering:
                ok = ok and measured == 0.0
            rows.append(
                {
                    "check": "shells",
                    "m": m,
                    "t": t,
                    "site": "",
                    "distance": "",
                    "measured": measured,
                    "bound": bnd,
                    "ratio": measured / bnd if bnd > 0 else 0.0,
                    "covering": covering,
                    "pass": ok,
                }
            )
        return rows

    chunks = _pmap(measure, [int(m) for m in cfg.sweeps["shells"]], cfg.workers)
    records = [row for chunk in chunks for row in chunk]
    passed = all(r["pass"] for r in records)

    gamma = _thermal_state(cfg, scene)
    sites = [int(s) for s in cfg.sweeps["commutator_sites"]]
    pairs = [
        (A, local_observable(scene.basis, {"kind": "number_function", "site": j, "fn": "inv_one_plus_n"}))
        for j in sites
    ]
    ab, ba, _ = correlations(scene.H, gamma, pairs, times, scene.decomp, "dense")
    commutator_rows = []
    for i, t in enumerate(times):
        for k, j in enumerate(sites):
            dist = int(min(scene.graph.dist[x, j] for x in X.sites))
            commutator_rows.append(
                {
                    "check": "commutator",
                    "m": "",
                    "t": t,
                    "site": j,
                    "distance": dist,
                    "measured": float(abs(ab[k, i] - ba[k, i])),
                    "bound": "",
                    "ratio": "",
                    "covering": "",
                    "pass": True,
                }
            )
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
    cols = ["check", "m", "t", "site", "distance", "measured", "bound", "ratio", "covering", "pass"]
    return _finish(cfg, "lr", cols, records, summary, passed, t0)


def run_local_approx(cfg: ExperimentConfig) -> ExperimentReport:
    """Shell-restricted against full dynamics in a thermal state: the sup
    over the time grid per shell count, the first shell reaching the
    configured accuracy, and the qualitative decay envelope."""
    t0 = time.perf_counter()
    scene = build_scene(cfg)
    gamma = _thermal_state(cfg, scene)
    A, B = _pair_observables(cfg, scene.basis)
    X = _support_region(scene.graph, A)
    r = cfg.model.range_hops
    d = scene.graph.dim_hint
    p = float(cfg.sweeps["moment_p"])
    norm_a = operator_norm(A)
    norm_b = operator_norm(B)
    eps_rels = [float(e) for e in cfg.sweeps.get("epsilons") or [cfg.tol("local_approx_epsilon")]]
    eps = eps_rels[0] * norm_a * norm_b
    sup_times = [float(t) for t in (cfg.sweeps["sup_times"] or cfg.sweeps["times"])]
    full_sites = scene.region.as_set()
    full = correlations(scene.H, gamma, [(A, B)], sup_times, scene.decomp, "dense")[0][0]

    def measure(m: int):
        inner = enlargement(scene.graph, X, 2 * m * r)
        covering = inner.as_set() == full_sites
        H_in = assemble_hamiltonian(scene.graph, inner, scene.basis, cfg.model)
        if same_matrix(H_in, scene.H):  # the full sum, already made
            restricted = full
        else:
            d_in = eigendecompose(H_in)
            restricted = correlations(H_in, gamma, [(A, B)], sup_times, d_in, "dense")[0][0]
        sup_val = float(np.abs(full - restricted).max(initial=0.0))
        envelope = m ** (d + 1) * math.exp(-m) + float(m) ** (d - p / 2 + 1)
        return {
            "m": m,
            "sup_difference": sup_val,
            "envelope": envelope,
            "covering": covering,
            "below_epsilon": sup_val <= eps,
            "pass": True,
        }

    records = _pmap(measure, [int(m) for m in cfg.sweeps["shells"]], cfg.workers)
    m0 = next((r_["m"] for r_ in records if r_["below_epsilon"]), None)
    m0_per_eps = {
        str(e): next(
            (r_["m"] for r_ in records if r_["sup_difference"] <= e * norm_a * norm_b), None
        )
        for e in eps_rels
    }
    sup_seq = [r_["sup_difference"] for r_ in records]
    monotone = all(
        b <= a * (1 + cfg.tol("monotone_slack")) + 1e-15 for a, b in zip(sup_seq, sup_seq[1:])
    )
    for r_ in records:
        r_["pass"] = monotone and m0 is not None
    passed = monotone and m0 is not None
    summary = {
        "epsilon": eps,
        "empirical_m0": m0,
        "empirical_m0_per_epsilon": m0_per_eps,
        "monotone_trend": monotone,
        "envelope_ratio": max(
            (r_["sup_difference"] / r_["envelope"] for r_ in records if r_["envelope"] > 0),
            default=0.0,
        ),
        "tail_estimate": gamma.tail_estimate,
    }
    cols = ["m", "sup_difference", "envelope", "covering", "below_epsilon", "pass"]
    return _finish(cfg, "local-approx", cols, records, summary, passed, t0)


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
    scene = build_scene(cfg)
    gamma = _thermal_state(cfg, scene)
    beta = gamma.beta
    times = [float(t) for t in cfg.sweeps["times"]]
    n_grid = int(cfg.sweeps["strip_points"])
    t_span = max(max(times), beta)
    pairs = [_pair_observables(cfg, scene.basis, k) for k in range(len(cfg.observable_pairs))]
    direct_ab, direct_ba, evolved = evolved_two_points(gamma, pairs, times)
    n_t = len(times)
    points = [complex(t, 0.0) for t in times] + [complex(t, -beta) for t in times]
    points += [
        complex(tt, -ss)
        for tt in np.linspace(-t_span, t_span, n_grid)
        for ss in np.linspace(0.0, beta, n_grid)
    ]

    cols = ["check", "pair", "t", "s", "volume", "value", "limit", "pass"]

    def row(check, pair, t, value, limit, ok, volume=""):
        return dict(zip(cols, (check, pair, t, "", volume, value, limit, bool(ok))))

    def check_pair(k: int):
        A, B = pairs[k]
        F = GreenFunction(gamma, A, B).values(points)
        norm_ab = operator_norm(A) * operator_norm(B)
        limit = cfg.tol("kms_residual")
        rows = []
        for i, t in enumerate(times):
            r1, r2 = float(abs(F[i] - direct_ab[k, i])), float(abs(F[n_t + i] - direct_ba[k, i]))
            rows.append(row("boundary", k, t, max(r1, r2), limit, r1 < limit and r2 < limit))
        strip_max = float(np.abs(F[2 * n_t :]).max())
        ok = strip_max <= norm_ab * (1 + cfg.tol("strip_slack")) + 1e-15
        rows.append(row("strip", k, "", strip_max, norm_ab, ok))
        mean = expectation(gamma, A)
        limit = cfg.tol("invariance_residual")
        for i, t in enumerate(times):
            res = float(abs(evolved[k, i] - mean))
            rows.append(row("invariance", k, t, res, limit, res < limit))
        return rows

    chunks = _pmap(check_pair, range(len(cfg.observable_pairs)), cfg.workers)
    records = [row for chunk in chunks for row in chunk]
    passed = all(r["pass"] for r in records)

    # volume-growth trend: same local observables in growing volumes
    trend_vals = {}
    for L in cfg.volumes:
        _, gamma_l, A_l, B_l = _volume_state(cfg, L, max(float(cfg.thermal["tail_tol"]), 0.5))
        trend_vals[L] = correlations(
            gamma_l.hamiltonian, gamma_l, [(A_l, B_l)], times, gamma_l.decomp, "dense"
        )[0][0]
    for u, v in itertools.combinations(sorted(trend_vals), 2):
        for t, a, b in zip(times, trend_vals[u], trend_vals[v]):
            records.append(row("volume-trend", 0, t, float(abs(a - b)), "", True, f"{u}-{v}"))

    summary = {
        "max_boundary_residual": max(r["value"] for r in records if r["check"] == "boundary"),
        "max_invariance_residual": max(r["value"] for r in records if r["check"] == "invariance"),
        "tail_estimate": gamma.tail_estimate,
        "volume_trend_max_diff": max((r["value"] for r in records if r["check"] == "volume-trend"), default=None),
    }
    return _finish(cfg, "kms", cols, records, summary, passed, t0)


def run_derivative_bound(cfg: ExperimentConfig) -> ExperimentReport:
    """(a) the smallest constant certifying the square of the local
    Hamiltonian against 1 + (regional particle number)^4; (b) check the
    numerically differentiated two-point function is bounded uniformly
    over a time grid and across growing volumes."""
    t0 = time.perf_counter()
    scene = build_scene(cfg)
    A, B = _pair_observables(cfg, scene.basis)
    X = _support_region(scene.graph, A)
    r = cfg.model.range_hops
    records = []

    def min_eig(c, H2, w):
        return float(np.linalg.eigvalsh(c * np.diag(w) - H2).min())

    def minimal_constant(basis, graph):
        """Smallest c with c W - H_Xr^2 >= 0, W = 1 + N_Xr^4 (diagonal): the
        top eigenvalue of the pencil (H_Xr^2, W).  Also returns H_Xr^2 and
        the diagonal of W."""
        Xr = enlargement(graph, Region(tuple(X.sites), graph.graph_id), r)
        Hd = assemble_hamiltonian(graph, Xr, basis, cfg.model).to_dense()
        H2 = Hd @ Hd
        w = 1.0 + total_number(basis, Xr).matrix.diagonal().real ** 4
        c = float(scipy.linalg.eigh(H2, np.diag(w), eigvals_only=True)[-1])
        return c, min_eig(c, H2, w), H2, w

    c_star, eig_at_c, H2, w = minimal_constant(scene.basis, scene.graph)
    cert_ok = eig_at_c >= -1e-8
    records.append(
        {
            "check": "operator-inequality",
            "volume": scene.graph.n_vertices,
            "n_max": scene.basis.max_total,
            "t": "",
            "value": c_star,
            "min_eig": eig_at_c,
            "richardson_ok": "",
            "pass": cert_ok,
        }
    )
    # trace the smallest eigenvalue as a function of the trial constant,
    # so the report shows where the certificate turns feasible
    for frac in (0.25, 0.5, 0.75, 1.0, 1.5):
        c_trial = frac * c_star
        eig = min_eig(c_trial, H2, w)
        records.append(
            {
                "check": "inequality-scan",
                "volume": scene.graph.n_vertices,
                "n_max": scene.basis.max_total,
                "t": "",
                "value": c_trial,
                "min_eig": eig,
                "richardson_ok": "",
                "pass": True,
            }
        )
    for nm in [int(v) for v in cfg.deriv.get("trend_n_max", [])]:
        if nm == scene.basis.max_total:
            continue
        basis_nm = enumerate_sectors(scene.region, nm, cfg.basis.get("site_cap"))
        c_nm, eig_nm, _, _ = minimal_constant(basis_nm, scene.graph)
        records.append(
            {
                "check": "operator-inequality",
                "volume": scene.graph.n_vertices,
                "n_max": nm,
                "t": "",
                "value": c_nm,
                "min_eig": eig_nm,
                "richardson_ok": "",
                "pass": True,
            }
        )

    h = cfg.tol("deriv_step")
    R = int(cfg.deriv["range_R"])
    times = [float(t) for t in cfg.sweeps["times"]]
    sup_per_volume = {}
    richardson_all = True
    norm_ab = None
    for L in cfg.volumes:
        graph_l, gamma_l, A_l, B_l = _volume_state(cfg, L, float(cfg.thermal["tail_tol"]))
        XR = enlargement(graph_l, Region(tuple(X.sites), graph_l.graph_id), R)
        H_xr = assemble_hamiltonian(graph_l, XR, gamma_l.basis, cfg.model)
        d_xr = gamma_l.decomp if same_matrix(H_xr, gamma_l.hamiltonian) else eigendecompose(H_xr)
        if norm_ab is None:
            norm_ab = operator_norm(A_l) * operator_norm(B_l)

        steps = [t + s for t in times for s in (h, -h, 2 * h, -2 * h)]
        g = correlations(H_xr, gamma_l, [(A_l, B_l)], steps, d_xr, "dense")[0][0].reshape(-1, 4)
        sup_d = 0.0
        for t, (plus, minus, plus2, minus2) in zip(times, g):
            d1 = complex(plus - minus) / (2 * h)
            d2 = complex(plus2 - minus2) / (4 * h)
            rich_ok = abs(d1 - d2) <= cfg.tol("richardson")
            richardson_all &= rich_ok
            sup_d = max(sup_d, abs(d1))
            records.append(
                {
                    "check": "derivative",
                    "volume": L,
                    "n_max": int(cfg.basis["n_max"]),
                    "t": t,
                    "value": abs(d1),
                    "min_eig": "",
                    "richardson_ok": rich_ok,
                    "pass": rich_ok,
                }
            )
        sup_per_volume[L] = sup_d

    sups = list(sup_per_volume.values())
    spread = (max(sups) / min(sups)) if min(sups) > 0 else math.inf
    uniform_ok = spread <= cfg.tol("volume_uniformity")
    c_prime = max(sups) / norm_ab if norm_ab else math.inf
    passed = cert_ok and richardson_all and uniform_ok
    summary = {
        "certified_constant": c_star,
        "certified_min_eig": eig_at_c,
        "derivative_sup_per_volume": {str(k): v for k, v in sup_per_volume.items()},
        "uniform_constant": c_prime,
        "volume_spread": spread,
        "richardson_ok": richardson_all,
    }
    cols = ["check", "volume", "n_max", "t", "value", "min_eig", "richardson_ok", "pass"]
    return _finish(cfg, "derivative", cols, records, summary, passed, t0)


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
            json.dump(report.summary_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write report under {out_dir!r}: {exc}") from exc
    return {"csv": csv_path, "json": json_path}


def load_summary(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
