"""Schema fuzzing: every settable value of every preset, set to the
boundary values of its type, one at a time.  A config validate-config
accepts must run without a config error (exit 0, 1 or 3), and one it
rejects must exit 2 at the subcommand before any scene is built."""

import json
import math

import pytest

from bosonlr import ConfigError, experiments
from bosonlr.cli import EXIT_CONFIG, main
from bosonlr.config import EXPERIMENT_NAMES, PRESETS, parse_config, resolve_dict

THERMAL = EXPERIMENT_NAMES[1:]  # all but free-evolution
PAIRED = ("cutoff", "lr", "local-approx", "kms", "derivative")

# the experiments that read each key path, or else each section; a key no
# experiment reads (name, experiments, schema_version) is only validated
READERS = {
    "graph": EXPERIMENT_NAMES,
    "basis": EXPERIMENT_NAMES,
    "model": EXPERIMENT_NAMES,
    "thermal": THERMAL,
    "observables": PAIRED,
    "initial_state": ("moments",),
    "volumes": ("kms", "derivative"),
    "deriv": ("derivative",),
    "cutoff_region": ("cutoff",),
    "sweeps.times": EXPERIMENT_NAMES,
    "sweeps.cutoffs": ("cutoff",),
    "sweeps.shells": ("lr", "local-approx"),
    "sweeps.moment_p": ("moments", "cutoff", "lr", "local-approx"),
    "sweeps.displacement_max": ("free-evolution",),
    "sweeps.condensate_m": ("free-evolution",),
    "sweeps.condensate_site": ("free-evolution",),
    "sweeps.condensate_time": ("free-evolution",),
    "sweeps.commutator_sites": ("lr",),
    "sweeps.sup_times": ("local-approx",),
    "sweeps.epsilons": ("local-approx",),
    "sweeps.strip_points": ("kms",),
    "sweeps.lr_lambda": ("lr",),
}

# keys whose values are vertices: they also take one off the graph
SITES = {"sweeps.commutator_sites", "sweeps.condensate_site", "cutoff_region", "observables.site"}
SITES.add("observables.sites")

# the presets, and chain-6 (whose moments run is the cheapest) on the
# graph types and the start kind no preset uses
EDGES = {"type": "edges", "n_vertices": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], "dimension": 1}
OCCUPATION = {"kind": "occupation", "occupation": [1, 1, 1, 0, 0, 0]}
BASES = {name: {"preset": name} for name in PRESETS} | {
    "chain-6-edges-occupation": {"preset": "chain-6", "graph": EDGES, "initial_state": OCCUPATION},
    "chain-6-grid": {"preset": "chain-6", "graph": {"type": "grid", "dims": [2, 3]}},
}


def _leaves(raw):
    """(key path, where to set it) for every settable value of a resolved
    config: each key of each section, each integer field of an
    observable (on the first observable that has it), and the optional
    sweeps.lr_lambda."""
    for section, value in raw.items():
        if section == "observables":
            first = {}
            for i, pair in enumerate(value["pairs"]):
                for j, spec in enumerate(pair):
                    for field in spec.keys() & {"site", "sites", "level"}:
                        first.setdefault(field, ("observables", "pairs", i, j, field))
            yield from ((f"observables.{field}", where) for field, where in sorted(first.items()))
        elif isinstance(value, dict):
            yield from ((f"{section}.{key}", (section, key)) for key in value)
        else:
            yield section, (section,)
    yield "sweeps.lr_lambda", ("sweeps", "lr_lambda")


def _set(data, where, value):
    for step in where[:-1]:
        data = data[step]
    data[where[-1]] = value


@pytest.mark.parametrize("base", sorted(BASES))
def test_validate_config_accepts_exactly_what_runs(tmp_path, monkeypatch, capsys, base):
    raw = resolve_dict(BASES[base])
    graph = raw["graph"]
    off = math.prod(graph["dims"]) if "dims" in graph else graph.get("length") or graph["n_vertices"]  # off the graph
    path, out, failures = tmp_path / "cfg.json", str(tmp_path / "out"), []

    def no_scene(cfg):
        raise AssertionError("a scene was built")

    for key, where in _leaves(raw):
        readers = READERS.get(key, READERS.get(key.split(".")[0], ()))
        # the one run: the last listed experiment that reads the key (on
        # chain-10, local-approx, which takes a quarter of lr's time)
        reader = next((e for e in reversed(raw["experiments"]) if e in readers), None)
        for value in (0, -1, 0.5, [], [0], [-1], [0.5]) + ((off, [off]) if key in SITES else ()):
            data = resolve_dict(BASES[base])
            _set(data, where, value)
            path.write_text(json.dumps(data))
            try:  # what validate-config runs, without its parser
                parse_config(str(path))
                code = 0
            except ConfigError:
                code = EXIT_CONFIG
            if code == EXIT_CONFIG:
                subcommand = reader or raw["experiments"][0]
                with monkeypatch.context() as patch:
                    patch.setattr(experiments, "scene_of", no_scene)
                    code = main([subcommand, "--config", str(path), "--out", out])
                if code != EXIT_CONFIG:
                    failures.append((key, value, subcommand, "rejected, then exited", code))
            elif code != EXIT_CONFIG and reader is not None:
                code = main([reader, "--config", str(path), "--out", out])
                if code == EXIT_CONFIG:
                    failures.append((key, value, reader, "accepted, then exited", code))
            capsys.readouterr()
    assert failures == []
