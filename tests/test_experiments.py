import csv
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from bosonlr import BoundaryContaminationError, InvalidArgumentError, config, experiments
from bosonlr.cli import EXIT_VIOLATION, main
from bosonlr.config import DEFAULT_TOLERANCES, from_dict, from_preset
from bosonlr.experiments import (
    RUNNERS,
    Check,
    ExperimentReport,
    _row,
    run_cutoff_scaling,
    run_free_evolution_check,
    run_moment_propagation,
    write_report,
)


def small(preset, **overrides):
    data = {"preset": preset}
    data.update(overrides)
    return from_dict(data)


def test_free_evolution_small():
    cfg = small(
        "chain-81",
        graph={"type": "chain", "length": 41},
        sweeps={"times": [0.5, 1.0], "displacement_max": 5, "condensate_m": [1, 10, 100]},
    )
    rep = run_free_evolution_check(cfg)
    assert rep.passed
    prop = [r for r in rep.records if r["check"] == "propagator"]
    assert len(prop) == 2 * 11
    assert all(r["abs_error"] < 1e-8 for r in prop)
    cond = [r for r in rep.records if r["check"] == "condensate"]
    assert [r["m"] for r in cond] == [1, 10, 100]


def test_free_evolution_detects_short_chain():
    cfg = small(
        "chain-81",
        graph={"type": "chain", "length": 11},
        sweeps={"times": [4.0], "displacement_max": 5, "condensate_m": [1]},
    )
    with pytest.raises(BoundaryContaminationError):
        run_free_evolution_check(cfg)


def test_moment_propagation_small():
    cfg = small("chain-6", sweeps={"times": [0.0, 0.5, 1.0]})
    rep = run_moment_propagation(cfg)
    assert rep.passed
    assert len(rep.records) == 3 * 6
    t0 = [r for r in rep.records if r["t"] == 0.0]
    assert all(r["measured"] <= rep.summary["moment_constant"] * (1 + 1e-12) for r in t0)


def test_moment_propagation_no_hopping_constant():
    cfg = small(
        "chain-6",
        model={"hopping": 0.0, "onsite": 1.0, "offsite": []},
        sweeps={"times": [0.0, 0.7, 1.4]},
    )
    rep = run_moment_propagation(cfg)
    assert rep.passed
    by_site = {}
    for r in rep.records:
        by_site.setdefault(r["site"], []).append(r["measured"])
    for vals in by_site.values():
        assert max(vals) - min(vals) < 1e-10


def test_moment_propagation_occupation_initial_state():
    cfg = small(
        "chain-6",
        initial_state={"kind": "occupation", "occupation": [3, 0, 0, 0, 0, 0]},
        sweeps={"times": [0.0, 0.5]},
    )
    rep = run_moment_propagation(cfg)
    assert rep.passed
    assert rep.summary["moment_constant"] == pytest.approx(4.0**4)
    moved = [r for r in rep.records if r["t"] == 0.5 and r["site"] == 1]
    assert moved[0]["measured"] > 1.0  # particles spread onto the neighbor


def test_a_moment_bound_past_any_double_is_infinite():
    # at p = 6 on chain-6 the rate is eta = 396, so e^{eta t} overflows a
    # double from t = 1.8 on: those bounds are inf, not an OverflowError
    rep = run_moment_propagation(small("chain-6", sweeps={"moment_p": 6}))
    assert rep.passed
    bounds = {r["t"]: r["bound"] for r in rep.records}
    assert math.isfinite(bounds[1.7]) and math.isinf(bounds[2.0])


def test_cutoff_scaling_small():
    cfg = small("chain-4", basis={"site_cap": 4, "n_max": 8}, sweeps={"cutoffs": [1, 2, 3]})
    rep = run_cutoff_scaling(cfg)
    assert rep.passed
    at_cap = [r for r in rep.records if r["at_cap"]]
    assert at_cap and all(r["measured"] == 0.0 for r in at_cap)
    swept = [r for r in rep.records if not r["at_cap"]]
    assert all(r["measured"] <= r["bound"] for r in swept)
    assert any(r["measured"] > 0 for r in swept)


def test_cutoff_measured_column_matches_a_dense_recomputation():
    # every row of the shipped preset (chain-4: cutoffs 1-4, the cap 5,
    # t = 0.5), rebuilt from the scene's basis, H and observable pair 0
    # with numpy and scipy.linalg alone: the Gibbs state
    # e^{-beta(H - mu N)}/Z, the projection P onto occupations <= lambda on
    # every site (cutoff_region is null), and |gamma(e^{iGt} A e^{-iGt} B)
    # - gamma(e^{iHt} A e^{-iHt} B)| with G = PHP
    cfg = from_preset("chain-4")
    report = run_cutoff_scaling(cfg)
    scene = experiments.scene_of(cfg)
    occupations = scene.basis.occupations
    H = scene.H.to_dense()
    A, B = (op.to_dense() for op in scene.pair(cfg))
    beta, mu = cfg.thermal["beta"], cfg.thermal["mu"]
    rho = scipy.linalg.expm(-beta * (H - mu * np.diag(occupations.sum(axis=1).astype(float))))
    rho /= np.trace(rho)

    def two_point(G, t):
        U = scipy.linalg.expm(-1j * t * G)
        return np.trace(rho @ U.conj().T @ A @ U @ B)

    full = {t: two_point(H, t) for t in cfg.sweeps["times"]}
    assert len(report.records) == 5 * len(full)
    for row in report.records:
        P = np.diag((occupations <= row["lambda"]).all(axis=1).astype(float))
        dense = abs(two_point(P @ H @ P, row["t"]) - full[row["t"]])
        assert abs(row["measured"] - dense) <= 1e-12 + 1e-8 * dense, row
    assert max(r["measured"] for r in report.records) > 1e-6  # a halved measured column fails above


def test_lr_and_local_approx_small():
    cfg = small(
        "chain-10",
        graph={"type": "chain", "length": 8},
        observables={"pairs": [[
            {"kind": "number_function", "site": 2, "fn": "inv_one_plus_n"},
            {"kind": "number_function", "site": 6, "fn": "inv_one_plus_n"},
        ]]},
        sweeps={
            "times": [0.25],
            "shells": [1, 2, 3],
            "commutator_sites": [4, 5, 6, 7],
            "sup_times": [0.1, 0.25],
        },
    )
    lr = RUNNERS["lr"](cfg)
    assert lr.passed
    shells = [r for r in lr.records if r["check"] == "shells"]
    assert any(r["covering"] and r["measured"] == 0.0 for r in shells)
    assert any(not r["covering"] and r["measured"] > 0 for r in shells)
    la = RUNNERS["local-approx"](cfg)
    assert la.passed
    assert la.summary["empirical_m0"] is not None
    sups = [r["sup_difference"] for r in la.records]
    assert sups[0] > sups[-1]


def test_lr_with_offdiagonal_observable():
    cfg = small(
        "chain-10",
        graph={"type": "chain", "length": 7},
        observables={"pairs": [[
            {"kind": "normalized_hop", "sites": [2, 3]},
            {"kind": "number_function", "site": 6, "fn": "inv_one_plus_n"},
        ]]},
        sweeps={
            "times": [0.25],
            "shells": [1, 2],
            "commutator_sites": [5, 6],
            "sup_times": [0.25],
        },
    )
    rep = RUNNERS["lr"](cfg)
    assert rep.passed
    shells = [r for r in rep.records if r["check"] == "shells"]
    assert all(r["measured"] <= r["bound"] for r in shells)


def test_lr_rejects_non_conserving_first_observable(monkeypatch):
    """The measured norm is taken sector block by sector block, which is
    exact only for a number-conserving observable."""
    import scipy.sparse as sp

    from bosonlr import experiments
    from bosonlr.operators import SparseOperator, conserves_number, number_operator

    def mixing_pair(cfg, basis, k=0):
        # joins the vacuum (sector 0) and the first one-particle state
        mix = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(basis.dimension,) * 2)
        A = SparseOperator((number_operator(basis, 2).matrix + mix).tocsr(), basis, True, support=(2,))
        assert not conserves_number(A)
        return A, number_operator(basis, 4)

    cfg = small("chain-10", sweeps={"times": [0.25], "shells": [1]})
    monkeypatch.setattr(experiments, "_pair_observables", mixing_pair)
    with pytest.raises(InvalidArgumentError, match="conserve"):
        RUNNERS["lr"](cfg)


def test_lr_on_two_dimensional_grid():
    cfg = from_dict(
        {
            "name": "grid-3x4",
            "experiments": ["lr"],
            "graph": {"type": "grid", "dims": [3, 4]},
            "model": {"hopping": 1.0, "onsite": 1.0, "offsite": []},
            "basis": {"site_cap": 1, "n_max": 2},
            "thermal": {"beta": 1.0, "mu": -5.0, "tail_tol": 0.5},
            "observables": {"pairs": [[
                {"kind": "number_function", "site": 0, "fn": "inv_one_plus_n"},
                {"kind": "number_function", "site": 11, "fn": "inv_one_plus_n"},
            ]]},
            "sweeps": {
                "times": [0.25],
                "shells": [1, 2, 3],
                "moment_p": 8,
                "commutator_sites": [7, 11],
            },
        }
    )
    rep = RUNNERS["lr"](cfg)
    assert rep.passed
    shells = {r["m"]: r for r in rep.records if r["check"] == "shells"}
    assert shells[1]["measured"] > shells[2]["measured"] > 0
    assert shells[3]["covering"] and shells[3]["measured"] == 0.0
    assert rep.summary["sigma_counting"] == 5.0  # 2d grid ball-volume constant


def test_kms_small():
    cfg = small(
        "two-site",
        basis={"n_max": 4},
        thermal={"beta": 1.0, "mu": -1.0, "tail_tol": 1e-5},
        sweeps={"times": [0.0, 0.5], "strip_points": 5},
        volumes=[2, 3],
    )
    rep = RUNNERS["kms"](cfg)
    assert rep.passed
    assert rep.summary["max_boundary_residual"] < 1e-9
    checks = {r["check"] for r in rep.records}
    assert {"boundary", "strip", "invariance", "volume-trend"} <= checks


def test_derivative_small():
    cfg = small("chain-4-derivative", volumes=[4, 5], sweeps={"times": [0.0, 0.5]})
    rep = RUNNERS["derivative"](cfg)
    assert rep.passed
    cert = [r for r in rep.records if r["check"] == "operator-inequality"]
    assert cert[0]["min_eig"] >= -1e-8
    assert rep.summary["volume_spread"] <= DEFAULT_TOLERANCES["volume_uniformity"]


def test_determinism():
    cfg = small("chain-6", sweeps={"times": [0.0, 0.5]})
    r1 = run_moment_propagation(cfg)
    r2 = run_moment_propagation(cfg)
    assert r1.records == r2.records
    assert r1.summary == r2.summary


def test_write_report_round_trip(tmp_path):
    cfg = small("chain-6", sweeps={"times": [0.0, 0.5]})
    rep = run_moment_propagation(cfg)
    paths = write_report(rep, tmp_path, stem="moments-test")
    with open(paths["json"], encoding="utf-8") as fh:
        reloaded = json.load(fh)
    assert reloaded == rep.summary_payload()
    with open(paths["csv"]) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == rep.columns
    assert len(rows) - 1 == len(rep.records)


def test_write_report_empty_sweep(tmp_path):
    rep = ExperimentReport(
        experiment="moments",
        columns=["t", "site", "measured", "bound", "ratio", "pass"],
        records=[],
        summary={"points": 0},
        metadata={"seed": 0},
        passed=True,
    )
    paths = write_report(rep, tmp_path, stem="empty")
    with open(paths["csv"]) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows == [rep.columns]
    with open(paths["json"], encoding="utf-8") as fh:
        assert json.load(fh)["n_records"] == 0


def test_write_report_bad_path():
    cfg = small("chain-6", sweeps={"times": [0.0]})
    rep = run_moment_propagation(cfg)
    with pytest.raises(OSError, match="cannot write report"):
        write_report(rep, "/proc/definitely/not/writable")


def test_exact_zero_at_cap_and_on_covering_shells():
    # both sides of these rows go through the same decomposition, so they
    # must agree bit for bit, not merely to rounding
    cfg = small("chain-4", basis={"site_cap": 4, "n_max": 8}, sweeps={"cutoffs": [2]})
    at_cap = [r for r in run_cutoff_scaling(cfg).records if r["at_cap"]]
    assert at_cap and all(r["measured"] == 0.0 for r in at_cap)
    cfg = small(
        "chain-10",
        experiments=["local-approx"],
        graph={"type": "chain", "length": 8},
        sweeps={"times": [0.25], "shells": [2, 3], "sup_times": [0.1, 0.25, 0.4]},
    )
    rows = RUNNERS["local-approx"](cfg).records
    assert [r["covering"] for r in rows] == [False, True]
    assert rows[0]["sup_difference"] > 0.0
    assert rows[1]["sup_difference"] == 0.0


def per_time_shell_norms(cfg):
    """The shell sweep of ``lr`` as a loop over times: per shell and time,
    the sector blocks of both generators' Heisenberg operator, one
    ``heisenberg_blocks`` call per time, and the largest norm
    (``operator_norm``, as ``lr`` measures) of their difference over the
    blocks, keyed (m, t)."""
    from bosonlr import (
        assemble_hamiltonian,
        cutoff_projection,
        eigendecompose,
        enlargement,
        heisenberg_blocks,
        sandwich,
    )
    from bosonlr.experiments import _pair_observables, _support_region, build_scene
    from bosonlr.operators import operator_norm, same_matrix

    scene = build_scene(cfg)
    A, _ = _pair_observables(cfg, scene.basis)
    X = _support_region(scene.graph, A)
    lam, r = int(cfg.sweeps["lr_lambda"]), cfg.model.range_hops
    out = {}
    for m in cfg.sweeps["shells"]:
        inner = enlargement(scene.graph, X, 2 * m * r)
        P = cutoff_projection(scene.basis, enlargement(scene.graph, X, (2 * m + 1) * r), lam)
        G_in = sandwich(P, assemble_hamiltonian(scene.graph, inner, scene.basis, cfg.model))
        G_full = sandwich(P, scene.H)
        d_full = scene.decomp if same_matrix(G_full, scene.H) else eigendecompose(G_full)
        d_in = d_full if same_matrix(G_in, G_full) else eigendecompose(G_in)
        for t in cfg.sweeps["times"]:
            (T_in,) = heisenberg_blocks(G_in, A, [t], d_in)
            (T_full,) = heisenberg_blocks(G_full, A, [t], d_full)
            out[m, t] = max(operator_norm(T_in[k] - T_full[k]) for k in T_full)
    return out


@pytest.fixture
def shell_sweep(monkeypatch):
    """What ``lr``'s shell sweep does: ``calls`` lists each
    ``_shell_distances`` call as (A, times, inner, full), and ``made``
    every rotation of A (``SpectralDecomposition.rotate``) and every
    overlap W (``SpectralDecomposition.overlap``) made inside one, as
    (kind, decomposition, other decomposition or None, sector).  The
    decompositions are kept alive, so their ids stay distinct."""
    from types import SimpleNamespace

    from bosonlr import experiments
    from bosonlr.dynamics import SpectralDecomposition

    calls, made, inside = [], [], []
    rotate, overlap, kernel = SpectralDecomposition.rotate, SpectralDecomposition.overlap, experiments._shell_distances

    def counting_rotate(self, block, m, n=None):
        if inside:
            made.append(("rotate", self, None, m))
        return rotate(self, block, m, n)

    def counting_overlap(self, other, n):
        if inside:
            made.append(("overlap", self, other, n))
        return overlap(self, other, n)

    def flagged_kernel(A, times, inner, full, rotated=None):
        calls.append((A, times, inner, full))
        inside.append(True)
        try:
            return kernel(A, times, inner, full, rotated)
        finally:
            inside.pop()

    monkeypatch.setattr(SpectralDecomposition, "rotate", counting_rotate)
    monkeypatch.setattr(SpectralDecomposition, "overlap", counting_overlap)
    monkeypatch.setattr(experiments, "_shell_distances", flagged_kernel)
    return SimpleNamespace(calls=calls, made=made)


@pytest.fixture
def scenes(monkeypatch):
    """Every Scene the experiments build during the test."""
    from bosonlr import experiments

    built, build = [], experiments.build_scene

    def recording(cfg):
        built.append(build(cfg))
        return built[-1]

    monkeypatch.setattr(experiments, "build_scene", recording)
    return built


# ``lr``'s shell norms against ``per_time_shell_norms``: the sweep forms
# each difference in the full generator's eigenbasis and the reference in
# the site basis, so the two agree to rounding, not bit for bit.  The
# largest gap on chain-10 is about 1.0e-15 (norms up to 0.021)
SHELL_GAP = 5e-15


def check_shell_rows(cfg, rows, calls):
    """Each shell row equals one (shell, time) call of ``_shell_distances``
    run alone on that shell's decompositions, bit for bit, and the
    per-time loop within SHELL_GAP; covering rows, and only they, read
    exactly 0.0."""
    from bosonlr.dynamics import _shell_distances

    oracle = per_time_shell_norms(cfg)
    assert sorted((r["m"], r["t"]) for r in rows) == sorted(oracle)
    shells = dict(zip(cfg.sweeps["shells"], calls))
    for r in rows:
        A, _, inner, full = shells[r["m"]]
        (alone,) = _shell_distances(A, [r["t"]], inner, full)
        assert r["measured"] == alone, r
        assert abs(r["measured"] - oracle[r["m"], r["t"]]) <= SHELL_GAP, r
        assert (r["measured"] == 0.0) == r["covering"], r


def test_lr_sweep_below_the_cap_matches_the_per_time_loop(shell_sweep, scenes):
    """With the cutoff below the site cap every shell has its own full
    generator, so no shell reads the scene's decomposition, and A is never
    rotated into it.  At each of 8 times every row is its own kernel call
    run alone and agrees with the site-basis loop (``check_shell_rows``),
    the covering shell reads exactly 0.0, and A is rotated once per
    (decomposition, sector)."""
    times = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5]
    cfg = small("chain-10", sweeps={"lr_lambda": 1, "times": times})
    rows = [r for r in RUNNERS["lr"](cfg).records if r["check"] == "shells"]
    (scene,) = scenes
    assert shell_sweep.made and not any(scene.decomp is x for _, d, e, _ in shell_sweep.made for x in (d, e))
    check_shell_rows(cfg, rows, shell_sweep.calls)
    assert len(rows) == 32 and sum(r["covering"] for r in rows) == 8
    keys = [(kind, id(d), id(e), n) for kind, d, e, n in shell_sweep.made]
    assert len(keys) == len(set(keys))


def test_lr_sweep_rotates_each_observable_once_per_generator(shell_sweep):
    """On the shipped preset (cutoff at the cap) every shell's full
    generator is the scene's H, whose A~ is rotated once and shared: the
    scene's H and three inner shells, times four sectors, make 16
    rotations of A.  The three shells short of the lattice form W once per
    sector, 12 in all; the covering shell, whose inner generator is H,
    forms neither.  The rows agree with the site-basis loop as below the
    cap (``check_shell_rows``)."""
    cfg = small("chain-10", sweeps={"lr_lambda": 2})  # the cap, which the preset defaults to
    report = RUNNERS["lr"](cfg)
    assert report.passed
    rows = [r for r in report.records if r["check"] == "shells"]
    rotations = [(id(d), n) for kind, d, _, n in shell_sweep.made if kind == "rotate"]
    overlaps = [(id(d), id(e), n) for kind, d, e, n in shell_sweep.made if kind == "overlap"]
    assert len(rotations) == len(set(rotations)) == 16
    assert len({d for d, _ in rotations}) == 4
    assert len(overlaps) == len(set(overlaps)) == 12
    check_shell_rows(cfg, rows, shell_sweep.calls)


def test_lr_traced_peak_is_flat_in_the_time_grid():
    """``lr`` keeps no evolved operator across times: on chain-10 its
    traced peak with 8 times stays within one block of the largest sector
    (210 states, complex) of its peak with 2 times."""
    peaks = []
    for times in ([0.25, 0.5], [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5]):
        cfg = small("chain-10", sweeps={"times": times})
        tracemalloc.start()
        try:
            assert RUNNERS["lr"](cfg).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 210 * 210 * 16, peaks


def test_local_approx_reuses_the_full_sum_on_the_scene_hamiltonian(monkeypatch):
    """On the shipped preset (shells 1-4) the last shell's H_in is the
    scene's H, so its restricted sum is the full one already made: the
    full sum and the four shells take four ``correlations`` calls, not
    five, and that shell reads exactly 0.0."""
    from bosonlr import experiments
    from bosonlr.config import config_for_experiment

    calls, correlations = [], experiments.correlations

    def counted(*args, **kwargs):
        calls.append(args[0])
        return correlations(*args, **kwargs)

    monkeypatch.setattr(experiments, "correlations", counted)
    report = RUNNERS["local-approx"](config_for_experiment("local-approx"))
    assert report.passed
    assert len(calls) == 4
    covering = [r for r in report.records if r["covering"]]
    assert covering and all(r["sup_difference"] == 0.0 for r in covering)


def test_cutoff_at_the_cap_reuses_the_full_sum(monkeypatch):
    """At the cap the cutoff generator is the scene's H entry for entry,
    so its sum is the full one already made: on the shipped preset
    (chain-4, cutoffs 1-4 and the cap 5) the full sum and the four active
    cutoffs take five ``correlations`` calls, not six, and the cap reads
    exactly 0.0."""
    from bosonlr import experiments
    from bosonlr.config import config_for_experiment

    calls, correlations = [], experiments.correlations

    def counted(*args, **kwargs):
        calls.append(args[0])
        return correlations(*args, **kwargs)

    monkeypatch.setattr(experiments, "correlations", counted)
    cfg = config_for_experiment("cutoff")
    assert cfg.graph == {"type": "chain", "length": 4}
    report = RUNNERS["cutoff"](cfg)
    assert report.passed
    assert len(calls) == 5
    at_cap = [r for r in report.records if r["at_cap"]]
    assert at_cap and all(r["measured"] == 0.0 for r in at_cap)


def test_derivative_never_decomposes_the_scene_hamiltonian(monkeypatch, scenes):
    """``derivative`` reads the scene's graph, basis and H but never its
    spectral decomposition, which is made on first use only."""
    from bosonlr import experiments
    from bosonlr.config import config_for_experiment

    decomposed, eigendecompose = [], experiments.eigendecompose

    def recording(H, *args, **kwargs):
        decomposed.append(H)
        return eigendecompose(H, *args, **kwargs)

    monkeypatch.setattr(experiments, "eigendecompose", recording)
    assert RUNNERS["derivative"](config_for_experiment("derivative")).passed
    (scene,) = scenes
    assert decomposed and not any(H is scene.H for H in decomposed)
    assert "decomp" not in vars(scene)


_SHELLS = {
    "graph": {"type": "chain", "length": 8},
    "sweeps": {"times": [0.25], "shells": [1, 2], "commutator_sites": [4, 5], "sup_times": [0.1, 0.25]},
}


@pytest.mark.parametrize(
    "experiment, preset, overrides",
    [
        ("cutoff", "chain-4", {"basis": {"site_cap": 4, "n_max": 8}, "sweeps": {"cutoffs": [1, 2]}}),
        ("lr", "chain-10", _SHELLS),
        ("local-approx", "chain-10", _SHELLS),
        (
            "kms",
            "two-site",
            {"basis": {"n_max": 4}, "thermal": {"tail_tol": 1e-5}, "sweeps": {"strip_points": 3}, "volumes": [2]},
        ),
    ],
)
def test_sweeps_start_no_thread(monkeypatch, experiment, preset, overrides):
    # every sweep point runs on the calling thread
    def refuse(self):
        raise AssertionError(f"{experiment} started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert RUNNERS[experiment](small(preset, **overrides)).passed


_EDGES = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-15, -1e-8, 1e-8])
_VALUES = st.one_of(st.floats(), _EDGES)
_PARTS = st.one_of(st.floats(-1e300, 1e300), _EDGES)  # abs() of a difference cannot overflow
_COMPLEX = st.builds(complex, _PARTS, _PARTS)


@given(m=_VALUES, b=_VALUES, s=_VALUES, a=_VALUES, d1=_COMPLEX, d2=_COMPLEX)
def test_the_pass_rule_is_each_comparison_it_replaced(m, b, s, a, d1, d2):
    # bit for bit, NaN, infinities and -0.0 included, against the literal
    # expressions the runners wrote before they shared one rule
    def passes(*checks):
        return _row(["pass"], checks)["pass"]

    assert passes(Check(m, b, "lt")) == (m < b)
    assert passes(Check(m, b, slack=s)) == (m <= b * (1 + s))
    assert passes(Check(m, b, slack=s, atol=1e-15)) == (m <= b * (1 + s) + 1e-15)
    assert passes(Check(m, b, slack=s, atol=a)) == (m <= b * (1 + s) + a)
    assert passes(Check(m, kind="eq0")) == (m == 0.0)
    assert passes(Check(-m, 1e-8)) == (m >= -1e-8)
    assert passes(Check(abs(d1 - d2), b)) == (abs(d1 - d2) <= b)
    assert passes(Check(m, b, "lt"), Check(a, b, "lt")) == (m < b and a < b)  # kms boundary residuals
    assert passes(Check(m, b, slack=s), Check(m, kind="eq0")) == (m <= b * (1 + s) and m == 0.0)
    assert passes(Check(m, kind="none")) and passes()


def test_a_row_fills_every_column():
    row = _row(["check", "t", "value", "pass"], [Check(1.0, 0.5)], check="strip", value=1.0)
    assert row == {"check": "strip", "t": "", "value": 1.0, "pass": False}


def test_a_nan_propagator_error_fails_the_row_and_the_report(monkeypatch, tmp_path):
    exact = experiments.free_particle_amplitude

    def nan_at_three(x, jt):
        return complex(math.nan) if x == 3 else exact(x, jt)

    monkeypatch.setattr(experiments, "free_particle_amplitude", nan_at_three)
    rep = run_free_evolution_check(from_preset("chain-81"))
    failed = [(r["check"], r["x"]) for r in rep.records if not r["pass"]]
    assert failed == [("propagator", 3)] * 3  # one row per time
    assert rep.passed is False
    assert math.isnan(rep.summary["max_propagator_error"])
    assert main(["free-evolution", "--out", str(tmp_path)]) == EXIT_VIOLATION


def test_norm_drift_fails_the_report_while_every_bessel_row_passes(monkeypatch):
    # a propagator 1e-9 off unitary moves no amplitude past the Bessel
    # tolerance (1e-8), but its norm drifts past the unitarity tolerance
    from bosonlr.dynamics import SpectralDecomposition

    cfg = small("chain-81", sweeps={"times": [0.5, 1.0], "displacement_max": 2, "condensate_m": [1, 10]})
    rep = run_free_evolution_check(cfg)
    assert rep.passed and rep.summary["max_norm_drift"] < DEFAULT_TOLERANCES["unitarity"]
    propagate = SpectralDecomposition.propagate
    monkeypatch.setattr(SpectralDecomposition, "propagate", lambda self, a, t: propagate(self, a, t) * (1 + 1e-9))
    rep = run_free_evolution_check(cfg)
    assert all(r["pass"] for r in rep.records)
    assert rep.summary["max_norm_drift"] > DEFAULT_TOLERANCES["unitarity"]
    assert rep.passed is False


def test_a_nan_norm_fails_the_unitarity_condition(monkeypatch):
    from bosonlr.dynamics import SpectralDecomposition

    cfg = small("chain-81", sweeps={"times": [0.5], "displacement_max": 2, "condensate_m": [1]})
    propagate = SpectralDecomposition.propagate

    def nan_far_away(self, amplitudes, t):
        out = propagate(self, amplitudes, t)
        out[0] = math.nan  # a site no Bessel row reads
        return out

    monkeypatch.setattr(SpectralDecomposition, "propagate", nan_far_away)
    rep = run_free_evolution_check(cfg)
    assert all(r["pass"] for r in rep.records)
    assert math.isnan(rep.summary["max_norm_drift"])
    assert rep.passed is False


def test_non_finite_summary_values_are_written_as_null(tmp_path):
    rep = ExperimentReport("cutoff", ["pass"], [], {"fit": math.nan, "spread": math.inf}, {}, True)
    paths = write_report(rep, tmp_path)

    def refuse(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    with open(paths["json"], encoding="utf-8") as fh:
        summary = json.loads(fh.read(), parse_constant=refuse)["summary"]
    assert summary == {"fit": None, "spread": None}
    assert math.isnan(rep.summary["fit"])  # the report in memory keeps the float


def test_a_nan_direct_sum_fails_the_condensate_crosscheck(monkeypatch):
    monkeypatch.setattr(experiments, "_binomial_direct", lambda m, p: math.nan)
    cfg = small("chain-81", sweeps={"times": [0.5], "displacement_max": 2, "condensate_m": [1, 10]})
    rep = run_free_evolution_check(cfg)
    assert rep.summary["condensate_crosscheck_ok"] is False
    assert rep.passed is False


@pytest.mark.parametrize("slack, passes", [(1e-12, True), (0.0, False)])
def test_condensate_rows_gate_with_the_bound_slack(monkeypatch, slack, passes):
    # a bound 1e-13 below the value: bound_slack, not a literal, decides the row
    monkeypatch.setitem(config.DEFAULT_TOLERANCES, "bound_slack", slack)
    cfg = small("chain-81", sweeps={"times": [0.5], "displacement_max": 2, "condensate_m": [1, 10]})
    value = experiments.condensate_nonlocality_expectation
    xc, tc = cfg.sweeps["condensate_site"], cfg.sweeps["condensate_time"]
    monkeypatch.setattr(experiments, "inverse_moment_upper_bound", lambda m, p: value(m, xc, tc) * (1 - 1e-13))
    rep = run_free_evolution_check(cfg)
    assert [r["pass"] for r in rep.records if r["check"] == "condensate"] == [passes, passes]
    assert rep.passed is passes


def test_bosonlr_all_reads_every_threshold(tmp_path, monkeypatch):
    # a threshold that no check reads fails here; the extra key shows that
    # echoing the table into each summary is not counted as a read
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(config, "DEFAULT_TOLERANCES", Recording(DEFAULT_TOLERANCES, unread=1.0))
    assert main(["all", "--out", str(tmp_path)]) == 0
    assert read == set(DEFAULT_TOLERANCES) and len(read) == 12


def test_local_approx_rows_copy_the_report_conditions():
    # no shell reaches epsilon: every row fails with the report, though
    # the sup decays shell by shell
    sweeps = dict(_SHELLS["sweeps"], epsilons=[1e-300])
    rep = RUNNERS["local-approx"](small("chain-10", graph=_SHELLS["graph"], sweeps=sweeps))
    assert rep.summary["monotone_trend"] and rep.summary["empirical_m0"] is None
    assert [r["pass"] for r in rep.records] == [False, False]
    assert rep.passed is False


@pytest.fixture
def run_reports(monkeypatch, tmp_path):
    """Run ``main(argv)`` and return every report its runners made, by
    experiment, with the ``eigendecompose`` calls made on the way."""
    from bosonlr import dynamics, thermal

    runners, made = dict(RUNNERS), []
    decompose = dynamics.eigendecompose

    def counted(H, *args, **kwargs):
        made.append(H.basis.dimension)
        return decompose(H, *args, **kwargs)

    for module in (dynamics, thermal, experiments):
        monkeypatch.setattr(module, "eigendecompose", counted)

    def run(argv):
        reports, made[:] = {}, []

        def keeping(key):
            def runner(cfg):
                reports[key] = runners[key](cfg)
                return reports[key]

            return runner

        for key in runners:
            monkeypatch.setitem(RUNNERS, key, keeping(key))
        assert main([*argv, "--out", str(tmp_path / str(len(list(tmp_path.iterdir()))))]) == 0
        return reports, list(made)

    return run


def test_all_shares_one_scene_per_preset_and_nothing_between_runs(run_reports):
    """``local-approx`` reads the chain-10 scene and the three inner-shell
    decompositions ``lr`` made, so ``bosonlr all`` makes 21
    ``eigendecompose`` calls, not 25; a second run in the same process
    starts from new configs and makes the same 21."""
    first, made = run_reports(["all"])
    assert len(made) == 21
    second, again = run_reports(["all"])
    assert again == made
    assert repr([r.records for r in second.values()]) == repr([r.records for r in first.values()])


def test_shared_scene_keeps_the_bits_of_each_experiment_run_alone(run_reports):
    """The ``lr`` and ``local-approx`` records of ``bosonlr all`` equal, bit
    for bit, those of each experiment run alone on its preset."""
    together, _ = run_reports(["all"])
    for experiment in ("lr", "local-approx"):
        alone, _ = run_reports([experiment, "--preset", "chain-10"])
        assert repr(alone[experiment].records) == repr(together[experiment].records)
