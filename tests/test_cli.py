import json
import os
import subprocess
import sys

import pytest

import bosonlr
from bosonlr.cli import EXIT_CONFIG, EXIT_PASS, EXIT_RESOURCE, emit_plot_script, main
from bosonlr.config import from_dict
from bosonlr.experiments import run_moment_propagation


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
    ],
)
def test_rejected_config_exits_before_the_run(tmp_path, capsys, data, match):
    # no strip grid (a crash) and no propagator rows (a vacuous PASS) are
    # config errors, as is the seed key that nothing reads
    cfg = write_cfg(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
    assert main(["all", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert match in capsys.readouterr().err


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
    assert f"non-finite number {literal} " in capsys.readouterr().err


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
