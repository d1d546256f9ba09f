import csv
import json
import os
import subprocess
import sys

import pytest

import bosonlr
from bosonlr import experiments
from bosonlr.cli import EXIT_CONFIG, EXIT_PASS, EXIT_RESOURCE, emit_plot_script, main
from bosonlr.config import from_dict
from bosonlr.experiments import RUNNERS, run_moment_propagation


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_config_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, {"preset": "chain-6"})
    assert main(["validate-config", "--config", path]) == EXIT_PASS
    assert "config OK" in capsys.readouterr().out


def test_validate_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, {"preset": "chain-10", "sweeps": {"moment_p": 4}})
    assert main(["validate-config", "--config", path]) == EXIT_CONFIG
    assert "p > 2d+2" in capsys.readouterr().err


def test_missing_config_path(capsys):
    assert main(["validate-config", "--config", "/no/such/file.json"]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_run_kms_writes_reports(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "preset": "two-site",
            "basis": {"n_max": 4},
            "thermal": {"tail_tol": 1e-5},
            "sweeps": {"times": [0.0, 0.5], "strip_points": 5},
            "volumes": [2],
        },
    )
    out = tmp_path / "reports"
    code = main(["kms", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    files = sorted(os.listdir(out))
    assert any(f.endswith(".csv") for f in files)
    assert any(f.endswith(".json") for f in files)
    assert "PASS" in capsys.readouterr().out


def test_all_passes_without_the_dense_eigenvectors(tmp_path, monkeypatch):
    # a decomposition keeps one eigenvector array per sector; no runner
    # reads the D x D layout that ``vectors`` assembles
    from bosonlr.dynamics import SpectralDecomposition

    def refuse(self):
        raise AssertionError("a runner read SpectralDecomposition.vectors")

    monkeypatch.setattr(SpectralDecomposition, "vectors", property(refuse))
    assert main(["all", "--out", str(tmp_path)]) == EXIT_PASS
    assert sum(name.endswith(".csv") for name in os.listdir(tmp_path)) == len(RUNNERS)


def test_resource_limit_exit_code(tmp_path, capsys):
    # a single sector far above the dense cap trips the resource guard
    cfg = write_cfg(tmp_path, {"preset": "chain-6", "basis": {"sector": 12}})
    assert main(["moments", "--config", cfg, "--out", str(tmp_path)]) == EXIT_RESOURCE
    assert "resource" in capsys.readouterr().err


def test_env_output_dir(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, {"preset": "chain-6", "sweeps": {"times": [0.0]}})
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("BOSONLR_OUT", str(env_dir))
    assert main(["moments", "--config", cfg]) == EXIT_PASS
    assert env_dir.exists() and any(f.endswith(".csv") for f in os.listdir(env_dir))


def test_plot_script_deterministic(tmp_path):
    cfg = from_dict({"preset": "chain-6", "sweeps": {"times": [0.0, 0.5, 1.0]}})
    rep = run_moment_propagation(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert emit_plot_script(rep, d1 / "moments.plt") is not None
    assert emit_plot_script(rep, d2 / "moments.plt") is not None
    assert (d1 / "moments.plt").read_bytes() == (d2 / "moments.plt").read_bytes()
    assert "logscale" in (d1 / "moments.plt").read_text()


def test_plot_script_single_point_advisory(tmp_path):
    from bosonlr.experiments import ExperimentReport

    rep = ExperimentReport(
        experiment="moments",
        columns=["t", "site", "measured", "bound", "ratio", "pass"],
        records=[{"t": 0.5, "site": 0, "measured": 1.0, "bound": 2.0, "ratio": 0.5, "pass": True}],
        summary={},
        metadata={},
        passed=True,
    )
    assert emit_plot_script(rep, tmp_path / "one.plt") is None
    assert not (tmp_path / "one.plt").exists()


def test_plot_script_no_axis_advisory(tmp_path):
    cfg = from_dict(
        {
            "preset": "two-site",
            "basis": {"n_max": 3},
            "thermal": {"tail_tol": 1e-2},
            "sweeps": {"times": [0.0], "strip_points": 3},
            "volumes": [],
        }
    )
    from bosonlr.experiments import run_kms_check

    rep = run_kms_check(cfg)
    assert emit_plot_script(rep, tmp_path / "kms.plt") is None


def test_validate_config_nested_typo(tmp_path, capsys):
    path = write_cfg(tmp_path, {"preset": "chain-10", "thermal": {"betta": 3}})
    assert main(["validate-config", "--config", path]) == EXIT_CONFIG
    assert "unknown keys ['betta']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"graph": {"lenght": 7}},
        {"initial_state": {"kind": "occupation", "occupaton": [3, 0, 0, 0, 0, 0]}},
    ],
)
def test_misspelled_typed_key_exits_config(tmp_path, capsys, override):
    # a typo in graph or initial_state is not ignored: neither the run nor
    # validate-config gets past the config
    cfg = write_cfg(tmp_path, {"preset": "chain-6", **override})
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["moments", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("occupation", [[3, 0, 0], [1, 0, 0, 0, 0, 0]])
def test_occupation_outside_the_basis_exits_config(tmp_path, capsys, occupation):
    # a wrong length or a wrong particle number for the 3-particle sector
    # is a config error, not a bound violation
    override = {"initial_state": {"kind": "occupation", "occupation": occupation}}
    cfg = write_cfg(tmp_path, {"preset": "chain-6", **override})
    assert main(["moments", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "initial_state.occupation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, match",
    [
        ({"preset": "chain-6", "seed": 1}, "unknown keys ['seed']"),
        ({"preset": "two-site", "sweeps": {"strip_points": 0}}, "sweeps.strip_points: must be >= 1"),
        ({"preset": "chain-81", "sweeps": {"displacement_max": -1}}, "sweeps.displacement_max: must be >= 0"),
        ({"preset": "chain-6", "experiments": ["free-evolution"]}, "basis.sector: free-evolution needs the one"),
        ({"preset": "chain-81", "sweeps": {"times": []}}, "sweeps.times: need a time grid"),
        ({"preset": "chain-81", "graph": {"type": "chain", "length": 20}}, "sweeps.displacement_max: window exceeds"),
        ({"preset": "chain-81", "graph": {"type": "grid", "dims": [9, 9]}}, "graph.type: free-evolution runs on a"),
        ({"preset": "chain-10", "sweeps": {"epsilons": []}}, "sweeps.epsilons: need at least one accuracy"),
        ({"preset": "chain-10", "tolerances": {"local_approx_epsilon": 1e-3}}, "unknown keys ['tolerances']"),
    ],
)
def test_rejected_config_exits_before_the_run(tmp_path, capsys, data, match):
    # no strip grid (a crash) and no propagator rows (a vacuous PASS) are
    # config errors, as is the seed key that nothing reads; so is a config
    # free-evolution cannot run, in validate-config as well
    cfg = write_cfg(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["all", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert match in capsys.readouterr().err


SITE_9 = {"kind": "number_function", "site": 9, "fn": "inv_one_plus_n"}


@pytest.mark.parametrize(
    "experiment, data, match",
    [
        ("derivative", {"preset": "chain-4-derivative", "volumes": []}, "volumes: derivative needs at least one"),
        ("kms", {"preset": "two-site", "volumes": [1]}, "site 1 of observable pair 0, got [1]"),
        ("derivative", {"preset": "chain-4-derivative", "volumes": [2]}, "site 2 of observable pair 0, got [2]"),
        ("kms", {"preset": "two-site", "tolerances": {"kms_residual": 1e9}}, "config: unknown keys ['tolerances']"),
        ("kms", {"preset": "two-site", "debug": {"dump_operators": True}}, "config: unknown keys ['debug']"),
        ("kms", {"preset": "two-site", "output_dir": "x"}, "config: unknown keys ['output_dir']"),
        ("cutoff", {"preset": "chain-4", "observables": {"pairs": [[SITE_9, SITE_9]]}}, "sites [9] lie outside"),
        ("kms", {"preset": "two-site", "observables": {"pairs": [[{**SITE_9, "site": -1}, SITE_9]]}}, "sites [-1] lie"),
        ("derivative", {"preset": "chain-4-derivative", "deriv": {"range_R": -1}}, "deriv.range_R: must be >= 0"),
        ("derivative", {"preset": "chain-4-derivative", "deriv": {"trend_n_max": [-1]}}, "trend_n_max: each must"),
        ("lr", {"preset": "chain-10", "sweeps": {"commutator_sites": [12]}}, "sites [12] lie outside the graph's 10"),
    ],
)
def test_a_subcommand_rejects_what_validate_config_rejects(tmp_path, capsys, experiment, data, match):
    # a volume trend needs a volume, each long enough to hold observable
    # pair 0; every observable site and every lr commutator site lies on
    # the graph, and the derivative radius and trend sectors are
    # nonnegative; thresholds are constants, and reports go to --out or
    # BOSONLR_OUT
    cfg, out = write_cfg(tmp_path, data), tmp_path / "out"
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main([experiment, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count(match) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "override, match",
    [
        ({"thermal": {"beta": "hot"}}, "thermal.beta: must be a number, got 'hot'"),
        ({"thermal": {"beta": None}}, "thermal.beta: must be a number, got None"),
        ({"thermal": {"beta": True}}, "thermal.beta: must be a number, got True"),
        ({"model": {"hopping": "x"}}, "model.hopping: must be a number"),
        ({"workers": 2}, "config: unknown keys ['workers']"),
        ({"volumes": [2, "x"]}, "volumes[1]: must be an integer"),
        ({"graph": {"type": "chain", "length": [3]}}, "graph.length: must be an integer, got [3]"),
        ({"graph": {"type": "chain", "length": 6.5}}, "graph.length: must be an integer, got 6.5"),
        ({"sweeps": {"cutoffs": [1, "a"]}}, "sweeps.cutoffs[1]: must be an integer"),
        ({"sweeps": {"times": [0.0, "a"]}}, "sweeps.times[1]: must be a number"),
        ({"sweeps": {"times": 0.5}}, "sweeps.times: must be a list"),
        ({"thermal": {"beta": 10**400}}, "thermal.beta: must be a finite number, got an integer too large"),
        ({"sweeps": {"times": [0.0, 10**400]}}, "sweeps.times[1]: must be a finite number, got an integer too"),
        ({"model": {"ordered_hopping": True}}, "model: unknown keys ['ordered_hopping']"),
    ],
)
def test_value_of_the_wrong_type_exits_config(tmp_path, capsys, override, match):
    # a wrong JSON type is a config error naming its key path, not a
    # traceback with the violation code
    cfg = write_cfg(tmp_path, {"preset": "chain-6", **override})
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["moments", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count(f"config error: {match}") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, literal",
    [
        ('{"preset": "chain-6", "sweeps": {"times": [NaN]}}', "NaN"),
        ('{"preset": "chain-6", "thermal": {"beta": Infinity}}', "Infinity"),
        ('{"preset": "chain-6", "thermal": {"mu": -1e999}}', "-1e999"),
    ],
)
def test_non_finite_number_exits_config(tmp_path, capsys, text, literal):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
    # json.load reads each literal as a float, which from_dict rejects
    assert f"non-finite number {json.dumps(float(literal))} " in capsys.readouterr().err


def test_module_entry_point_exits_config_as_a_process(tmp_path):
    cfg = write_cfg(tmp_path, {"preset": "chain-6", "seed": 1})
    src = os.path.dirname(os.path.dirname(bosonlr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "bosonlr.cli", "validate-config", "--config", cfg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "unknown keys ['seed']" in proc.stderr


def _start(occupation):
    return {"preset": "chain-6", "initial_state": {"kind": "occupation", "occupation": occupation}}


def _edges(n_vertices, edges, dimension=1):
    graph = {"type": "edges", "n_vertices": n_vertices, "edges": edges, "dimension": dimension}
    return {"preset": "two-site", "graph": graph}


@pytest.mark.parametrize(
    "experiment, data, match",
    [
        pytest.param(
            "moments", {"preset": "chain-6", "sweeps": {"moment_p": 0}}, "moment_p: must be >= 1", id="moment_p-0"
        ),
        pytest.param(
            "moments", {"preset": "chain-6", "sweeps": {"moment_p": 0.5}}, ">= 1, got 0.5", id="moment_p-half"
        ),
        pytest.param(
            "cutoff", {"preset": "chain-4", "sweeps": {"cutoffs": [0]}}, "sweeps.cutoffs: each", id="cutoffs-0"
        ),
        pytest.param("lr", {"preset": "chain-10", "sweeps": {"shells": [0]}}, "sweeps.shells: each", id="shells-0"),
        pytest.param(
            "free-evolution",
            {"preset": "chain-81", "sweeps": {"condensate_m": [0]}},
            "sweeps.condensate_m: each",
            id="condensate_m-0",
        ),
        pytest.param(
            "cutoff", {"preset": "chain-4", "cutoff_region": []}, "cutoff_region: must contain", id="cutoff_region-empty"
        ),
        pytest.param(
            "cutoff", {"preset": "chain-4", "cutoff_region": [9]}, "lacks [1]", id="cutoff_region-off-support"
        ),
        pytest.param(
            "cutoff", {"preset": "chain-4", "cutoff_region": [1, 9]}, "sites [9] lie outside", id="cutoff_region-off-graph"
        ),
        pytest.param("kms", {"preset": "two-site", "basis": {"n_max": 0}}, "basis.n_max: must be >= 1", id="n_max-0"),
        pytest.param(
            "derivative",
            {"preset": "chain-4-derivative", "basis": {"n_max": 0}},
            "basis.n_max: must be >= 1",
            id="n_max-0-derivative",
        ),
        pytest.param(
            "kms",
            {"preset": "two-site", "basis": {"n_max": -1}},
            "basis.n_max: must be >= 1",
            id="n_max-neg",
        ),
        pytest.param(
            "moments",
            {"preset": "chain-6", "basis": {"sector": -1}},
            "basis.sector: must be >= 0",
            id="sector-neg",
        ),
        pytest.param(
            "lr",
            {"preset": "chain-10", "basis": {"site_cap": 0}},
            "basis.site_cap: must be >= 1",
            id="site_cap-0",
        ),
        pytest.param(
            "kms",
            {"preset": "two-site", "basis": {"site_cap": 2}},
            "basis.n_max: must be at most site_cap * vertices = 2 * 2",
            id="n_max-past-the-cap",
        ),
        pytest.param("moments", _start([1, 1, 1]), "initial_state.occupation: must be a state", id="occupation-short"),
        pytest.param(
            "moments",
            _start([1, 1, 1, 0, 0, -1]),
            "initial_state.occupation: each must be >= 0",
            id="occupation-neg",
        ),
        pytest.param(
            "moments",
            _start([3, 0, 0, 0, 0, 1]),
            "initial_state.occupation: must be a state",
            id="occupation-sector",
        ),
        pytest.param(
            "kms",
            _edges(2, [[0, 5]]),
            "graph.edges: edge [0, 5] references a vertex outside",
            id="edges-off-graph",
        ),
        pytest.param("kms", _edges(2, [[0, 0], [0, 1]]), "graph.edges: self-loop at vertex 0", id="edges-self-loop"),
        pytest.param("kms", _edges(2, [[0, 1]], dimension=0), "graph.dimension: must be >= 1", id="edges-dimension-0"),
        pytest.param("kms", _edges(3, [[0, 1]]), "graph.edges: graph is disconnected", id="edges-disconnected"),
        pytest.param(
            "local-approx",
            {"preset": "chain-10", "sweeps": {"epsilons": [-1.0]}},
            "sweeps.epsilons: each must be > 0",
            id="epsilons-neg",
        ),
        pytest.param(
            "moments",
            {"preset": "chain-6", "graph": {"type": "chain", "length": 1}, "basis": {"sector": 1}},
            "graph: the growth and light-cone bounds need an edge",
            id="one-vertex",
        ),
        pytest.param(
            "derivative",
            {"preset": "chain-4-derivative", "basis": {"site_cap": 1, "n_max": 4}, "volumes": [3]},
            "volumes: each must hold n_max = 4 particles under site_cap 1, got [3]",
            id="volume-past-the-cap",
        ),
        pytest.param(
            "kms",
            {"preset": "two-site", "basis": {"sector": 2, "n_max": None}},
            "basis.n_max: the volume trends need a grand-canonical basis",
            id="volume-trend-canonical",
        ),
        pytest.param(
            "moments",
            {"preset": "chain-6", "graph": {"type": ["chain"]}},
            "graph.type: must be one of",
            id="type-list",
        ),
    ],
)
def test_an_out_of_range_sweep_exits_before_any_scene(tmp_path, capsys, monkeypatch, experiment, data, match):
    # each once passed validate-config and exited 2 from inside the run (or
    # crashed, for a list as the graph type): a moment exponent below 1, a
    # cutoff level, shell count or condensate particle count below 1, a
    # cutoff region without the first observable's site or off the graph,
    # an n_max below 1 or past what the cap lets the graph hold, a negative
    # sector, a site cap below 1, a start outside the basis, an edges graph
    # the lattice refuses, a negative accuracy, a graph without an edge,
    # and a volume trend the basis cannot fill
    def no_scene(cfg):
        raise AssertionError("a scene was built")

    monkeypatch.setattr(experiments, "scene_of", no_scene)
    cfg, out = write_cfg(tmp_path, data), tmp_path / "out"
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main([experiment, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count(match) == 2
    assert not out.exists()


def test_a_lattice_too_short_for_the_signal_exits_3(tmp_path, capsys):
    # boundary reflections are found in the run, after validate-config
    # accepted the config: a numerical failure, not a config error
    cfg = write_cfg(tmp_path, {"preset": "chain-81", "sweeps": {"times": [81.0]}})
    assert main(["validate-config", "--config", cfg]) == EXIT_PASS
    assert main(["free-evolution", "--config", cfg, "--out", str(tmp_path)]) == EXIT_RESOURCE
    assert "resource/numerical failure: boundary reflections" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [0, -1])
def test_lr_lambda_below_one_exits_config(tmp_path, capsys, lam):
    # 0 once fell back to the cap and passed; -1 passed validate-config
    cfg = write_cfg(tmp_path, {"preset": "chain-10", "sweeps": {"lr_lambda": lam}})
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["lr", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("config error: sweeps.lr_lambda: must be >= 1") == 2


@pytest.mark.parametrize(
    "sweeps",
    [{"times": [2.0, 12.0]}, {"condensate_site": 8, "condensate_m": [1, 10, 100]}],
)
def test_free_evolution_passes_at_long_times_and_far_sites(tmp_path, sweeps):
    # the Bessel oracle keeps its digits at t = 12, and E[1/(1+X)] at
    # p = 8.9e-15 (site 8 at t = 0.5) matches its direct sum
    cfg = write_cfg(tmp_path, {"preset": "chain-81", "sweeps": sweeps})
    assert main(["free-evolution", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PASS


_F2 = {"kind": "number_function", "site": 2, "fn": "inv_one_plus_n"}


def _with_pairs(pairs):
    return {"preset": "chain-4", "observables": {"pairs": pairs}}


@pytest.mark.parametrize(
    "data, match",
    [
        (_with_pairs([5]), "observables.pairs[0]: must be a pair of observables, got 5"),
        (_with_pairs([[_F2]]), "observables.pairs[0]: must be a pair"),
        (_with_pairs({"a": 1}), "observables.pairs: must be a list of pairs"),
        (
            {"preset": "chain-6", "graph": {"type": "edges", "n_vertices": 3, "edges": [[0]]}},
            "graph.edges[0]: must be a pair of integers, got [0]",
        ),
        (_with_pairs([[dict(_F2, site="a"), _F2]]), "observables.pairs[0][0].site: must be an integer, got 'a'"),
        (
            _with_pairs([[_F2, {"kind": "normalized_hop", "sites": [0, 1, 2]}]]),
            "observables.pairs[0][1].sites: must list 2 integers, got [0, 1, 2]",
        ),
        (
            _with_pairs([[{"kind": "indicator", "site": 1}, _F2]]),
            "observables.pairs[0][0].level: must be an integer, got None",
        ),
        (_with_pairs([[{"kind": "parity", "site": 1}, _F2]]), "observables.pairs[0][0].kind: must be one of"),
        (_with_pairs([[{"kind": "number_function", "site": 1}, _F2]]), "observables.pairs[0][0].fn: required"),
        (_with_pairs([[dict(_F2, fn="nope"), _F2]]), "observables.pairs[0][0].fn: unknown function 'nope'"),
        (
            _with_pairs([[{"kind": "number_function", "sites": [1, 2], "fn": "inv_one_plus_n"}, _F2]]),
            "observables.pairs[0][0].fn: a name or a table takes one site, got sites [1, 2]",
        ),
        (
            _with_pairs([[{"kind": "number_function", "sites": [1, 2], "fn": [1.0, 0.5]}, _F2]]),
            "observables.pairs[0][0].fn: a name or a table takes one site",
        ),
        (
            _with_pairs([[dict(_F2, fn=[1.0, "x"]), _F2]]),
            "observables.pairs[0][0].fn: must be a function name or a nonempty list of numbers, got [1.0, 'x']",
        ),
        (_with_pairs([[dict(_F2, fn=[]), _F2]]), "observables.pairs[0][0].fn: must be a function name or a nonempty"),
        (_with_pairs([[dict(_F2, fn=[True]), _F2]]), "observables.pairs[0][0].fn: must be a function name or a"),
        (_with_pairs([[dict(_F2, fn=2), _F2]]), "observables.pairs[0][0].fn: must be a function name or a"),
        (
            _with_pairs([[dict(_F2, fn=[1.0, 10**400]), _F2]]),
            "observables.pairs[0][0].fn[1]: must be a finite number, got an integer too large for a float",
        ),
    ],
)
def test_malformed_pair_or_edge_exits_config(tmp_path, capsys, data, match):
    # a malformed pair, edge or observable field is a config error naming
    # its key path, in validate-config and before a run
    cfg = write_cfg(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["cutoff", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count(f"config error: {match}") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, match",
    [
        ({"preset": "chain-6"}, "sweeps.cutoffs: need a cutoff sweep"),
        ({"preset": "chain-6", "sweeps": {"cutoffs": [1]}}, "basis.site_cap: cutoff experiment needs a capped"),
    ],
)
def test_subcommand_checks_the_experiment_it_runs(tmp_path, capsys, data, match):
    # chain-6 lists only moments, so validate-config accepts it; the
    # cutoff subcommand runs cutoff on it and checks what cutoff reads
    cfg = write_cfg(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == EXIT_PASS
    assert main(["cutoff", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"config error: {match}" in capsys.readouterr().err


def test_subcommand_checks_a_listed_experiment_once(tmp_path, monkeypatch):
    # the config lists moments, so making it checks what moments reads and
    # the subcommand checks nothing more: the edges graph is built once by
    # that check and once for the scene
    from bosonlr import config

    calls, build = [], config.build_from_edges

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(config, "build_from_edges", counted)
    monkeypatch.setattr(experiments, "build_from_edges", counted)
    graph = {"type": "edges", "n_vertices": 6, "edges": [[i, i + 1] for i in range(5)]}
    cfg = write_cfg(tmp_path, {"preset": "chain-6", "graph": graph, "sweeps": {"times": [0.0, 0.5]}})
    assert main(["moments", "--config", cfg, "--out", str(tmp_path)]) == EXIT_PASS
    assert len(calls) == 2


def test_main_builds_its_parser_once(tmp_path):
    from bosonlr.cli import _build_parser

    _build_parser.cache_clear()
    cfg = write_cfg(tmp_path, {"preset": "chain-6"})
    assert main(["validate-config", "--config", cfg]) == EXIT_PASS
    assert main(["validate-config", "--config", cfg]) == EXIT_PASS
    assert _build_parser.cache_info().misses == 1


def test_workers_is_neither_a_config_key_nor_an_option(tmp_path, capsys):
    # every sweep runs on the calling thread, so nothing reads a worker count
    cfg = write_cfg(tmp_path, {"preset": "chain-4", "workers": 2})
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["cutoff", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("config error: config: unknown keys ['workers']") == 2
    with pytest.raises(SystemExit) as exc:
        main(["cutoff", "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("experiment, preset", [("kms", "two-site"), ("derivative", "chain-4-derivative")])
def test_integral_float_site_cap_runs_as_an_integer(tmp_path, experiment, preset):
    # the config reads 3.0 as the integer 3: the run is the run at cap 3
    data = {"preset": preset, "basis": {"site_cap": 3.0}}
    assert main([experiment, "--config", write_cfg(tmp_path, data), "--out", str(tmp_path)]) == EXIT_PASS
    got = RUNNERS[experiment](from_dict(data)).records
    assert got == RUNNERS[experiment](from_dict({"preset": preset, "basis": {"site_cap": 3}})).records


def test_a_degenerate_fit_writes_a_strict_json_summary(tmp_path):
    # one cutoff leaves the lambda fit a single point, so the exponent is
    # NaN; RFC 8259 has no NaN, so the summary writes it as null
    def refuse(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    cfg = write_cfg(tmp_path, {"preset": "chain-4", "sweeps": {"cutoffs": [2]}})
    out = tmp_path / "out"
    assert main(["cutoff", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    (path,) = out.glob("cutoff-*.json")
    summary = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)["summary"]
    assert summary["fitted_lambda_exponent"] is None


@pytest.mark.parametrize("sweeps", [{}, {"lr_lambda": 1}])
def test_lr_at_time_zero_measures_exactly_zero(tmp_path, sweeps):
    # tau_0 is the identity under every generator, so each shell's distance
    # at t = 0 is exactly 0.0, as the light-cone bound there is, at the cap
    # and below it; rounding of a few 1e-15 would fail the check
    data = {"preset": "chain-10", "experiments": ["lr"], "sweeps": {**sweeps, "times": [0.0, 0.25]}}
    out = tmp_path / "out"
    assert main(["lr", "--config", write_cfg(tmp_path, data), "--out", str(out)]) == EXIT_PASS
    (path,) = out.glob("lr-*.csv")
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    shells = [row for row in csv.DictReader(lines) if row["check"] == "shells"]
    at_zero = [row for row in shells if float(row["t"]) == 0.0]
    assert len(at_zero) == len(shells) // 2 == 4
    assert all(row["measured"] == "0.0" for row in at_zero)
