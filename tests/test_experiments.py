import csv
import json

import pytest

from bosonlr import BoundaryContaminationError, InvalidArgumentError
from bosonlr.config import from_dict, from_preset
from bosonlr.experiments import (
    RUNNERS,
    ExperimentReport,
    load_summary,
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


def test_cutoff_scaling_small():
    cfg = small("chain-4", basis={"site_cap": 4, "n_max": 8}, sweeps={"cutoffs": [1, 2, 3]})
    rep = run_cutoff_scaling(cfg)
    assert rep.passed
    at_cap = [r for r in rep.records if r["at_cap"]]
    assert at_cap and all(r["measured"] == 0.0 for r in at_cap)
    swept = [r for r in rep.records if not r["at_cap"]]
    assert all(r["measured"] <= r["bound"] for r in swept)
    assert any(r["measured"] > 0 for r in swept)


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
    assert rep.summary["volume_spread"] <= cfg.tol("volume_uniformity")


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
    reloaded = load_summary(paths["json"])
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
    assert load_summary(paths["json"])["n_records"] == 0


def test_write_report_bad_path():
    cfg = small("chain-6", sweeps={"times": [0.0]})
    rep = run_moment_propagation(cfg)
    with pytest.raises(OSError, match="cannot write report"):
        write_report(rep, "/proc/definitely/not/writable")


def test_exact_zero_at_cap_and_on_covering_shells():
    # both sides of these rows go through the same decomposition, so they
    # must agree bit for bit, not merely to rounding
    cfg = small("chain-4", basis={"site_cap": 4, "n_max": 8}, sweeps={"cutoffs": [2]}, workers=2)
    at_cap = [r for r in run_cutoff_scaling(cfg).records if r["at_cap"]]
    assert at_cap and all(r["measured"] == 0.0 for r in at_cap)
    cfg = small(
        "chain-10",
        graph={"type": "chain", "length": 8},
        sweeps={"times": [0.25], "shells": [2, 3], "sup_times": [0.1, 0.25, 0.4]},
        workers=2,
    )
    rows = RUNNERS["local-approx"](cfg).records
    assert [r["covering"] for r in rows] == [False, True]
    assert rows[0]["sup_difference"] > 0.0
    assert rows[1]["sup_difference"] == 0.0


def per_time_shell_norms(cfg):
    """The shell sweep of ``lr`` as a loop over times: per shell and time,
    the dense ``heisenberg_operator`` of both generators and the largest
    norm of their difference over the sector blocks, keyed (m, t)."""
    from bosonlr import (
        assemble_hamiltonian,
        cutoff_projection,
        eigendecompose,
        enlargement,
        heisenberg_operator,
        operator_norm,
        sandwich,
    )
    from bosonlr.experiments import _pair_observables, _support_region, build_scene
    from bosonlr.operators import same_matrix

    scene = build_scene(cfg)
    A, _ = _pair_observables(cfg, scene.basis)
    X = _support_region(scene.graph, A)
    lam, r = int(cfg.sweeps["lr_lambda"]), cfg.model.range_hops
    sectors = [sl for _, sl in scene.basis.sector_slices()]
    out = {}
    for m in cfg.sweeps["shells"]:
        inner = enlargement(scene.graph, X, 2 * m * r)
        P = cutoff_projection(scene.basis, enlargement(scene.graph, X, (2 * m + 1) * r), lam)
        G_in = sandwich(P, assemble_hamiltonian(scene.graph, inner, scene.basis, cfg.model))
        G_full = sandwich(P, scene.H)
        d_full = scene.decomp if same_matrix(G_full, scene.H) else eigendecompose(G_full)
        d_in = d_full if same_matrix(G_in, G_full) else eigendecompose(G_in)
        for t in cfg.sweeps["times"]:
            T_in = heisenberg_operator(G_in, A, t, d_in)
            T_full = heisenberg_operator(G_full, A, t, d_full)
            out[m, t] = max(operator_norm(T_in[sl, sl] - T_full[sl, sl]) for sl in sectors)
    return out


@pytest.fixture
def sweep_rotations(monkeypatch):
    """Every ``SpectralDecomposition.rotate`` call made inside
    ``heisenberg_blocks`` as called by the experiments, as (decomposition,
    rows, cols); the decompositions are kept alive so their ids stay
    distinct."""
    from bosonlr import experiments
    from bosonlr.dynamics import SpectralDecomposition

    calls, inside = [], []
    rotate, blocks = SpectralDecomposition.rotate, experiments.heisenberg_blocks

    def counting_rotate(self, matrix, rows=slice(None), cols=None):
        if inside:
            calls.append((self, rows.start, (rows if cols is None else cols).start))
        return rotate(self, matrix, rows, cols)

    def flagged_blocks(*args, **kwargs):
        inside.append(True)
        try:
            return blocks(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(SpectralDecomposition, "rotate", counting_rotate)
    monkeypatch.setattr(experiments, "heisenberg_blocks", flagged_blocks)
    return calls


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


def test_lr_sweep_below_the_cap_matches_the_per_time_loop(sweep_rotations, scenes):
    """With the cutoff below the site cap every shell has its own full
    generator, so no shell reads the scene's blocks, and A is never evolved
    under the scene's H.  Each row still equals the per-time loop bit for
    bit at both times, the covering shell reads exactly 0.0, and each
    (decomposition, sector pair) is rotated once."""
    cfg = small("chain-10", sweeps={"lr_lambda": 1, "times": [0.25, 0.5]}, workers=1)
    rows = [r for r in RUNNERS["lr"](cfg).records if r["check"] == "shells"]
    (scene,) = scenes
    assert sweep_rotations and not any(d is scene.decomp for d, _, _ in sweep_rotations)
    oracle = per_time_shell_norms(cfg)
    assert sorted((r["m"], r["t"]) for r in rows) == sorted(oracle)
    for r in rows:
        assert r["measured"] == oracle[r["m"], r["t"]]
        assert (r["measured"] == 0.0) == r["covering"]
    assert sum(r["covering"] for r in rows) == 2
    keys = [(id(d), m, n) for d, m, n in sweep_rotations]
    assert len(keys) == len(set(keys))


def test_lr_sweep_rotates_each_observable_once_per_generator(sweep_rotations):
    """On the shipped preset (cutoff at the cap) the scene's blocks serve
    every full generator: four generators (the scene's H and three inner
    shells) times four sectors make 16 rotations, where one dense operator
    per shell, side and time made 64."""
    cfg = small("chain-10", workers=1)
    assert RUNNERS["lr"](cfg).passed
    keys = [(id(d), m, n) for d, m, n in sweep_rotations]
    assert len(keys) == len(set(keys)) == 16
    assert len({id(d) for d, _, _ in sweep_rotations}) == 4


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
