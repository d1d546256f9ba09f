"""Experiment configuration: presets, file parsing, validation.

Configs are plain JSON objects.  A file may name a ``preset`` and override
any field; the fully resolved dict is echoed into every report so a run
can be reproduced from its own output.
"""

import copy
import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .operators import ModelParams

SCHEMA_VERSION = 1

EXPERIMENT_NAMES = (
    "free-evolution",
    "moments",
    "cutoff",
    "lr",
    "local-approx",
    "kms",
    "derivative",
)

DEFAULT_TOLERANCES = {
    "bessel": 1e-8,
    "boundary_agreement": 1e-8,
    "kms_residual": 1e-9,
    "invariance_residual": 1e-9,
    "strip_slack": 1e-9,
    "unitarity": 1e-10,
    "bound_slack": 1e-12,
    "local_approx_epsilon": 1e-3,
    "monotone_slack": 0.1,
    "deriv_step": 1e-4,
    "richardson": 1e-5,
    "volume_uniformity": 2.0,
    "condensate_crosscheck": 1e-12,
}

# every top-level key and its default; a section default also lists the
# keys that section accepts
_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "name": "custom",
    "experiments": [],
    "graph": {"type": "chain", "length": 2},
    "model": {"hopping": 1.0, "onsite": 0.0, "offsite": [], "ordered_hopping": False},
    "basis": {"site_cap": None, "n_max": None, "sector": None},
    "thermal": {"beta": 1.0, "mu": -1.0, "tail_tol": 1e-10},
    "observables": {"pairs": []},
    "initial_state": {"kind": "gibbs"},
    "sweeps": {
        "times": [],
        "cutoffs": [],
        "shells": [],
        "moment_p": 4,
        "displacement_max": 10,
        "condensate_m": [],
        "condensate_site": 1,
        "condensate_time": 0.5,
        "commutator_sites": [],
        "sup_times": [],
        "strip_points": 11,
        "epsilons": [],
    },
    "volumes": [],
    "deriv": {"range_R": 2, "trend_n_max": []},
    "cutoff_region": None,
    "tolerances": DEFAULT_TOLERANCES,
    "output_dir": None,
    "workers": None,
    "debug": {"dump_operators": False},
}

_TOP_LEVEL_KEYS = set(_DEFAULTS) | {"preset"}

# graph and initial_state keys depend on their type: per section, the tag
# key and the keys each tag value allows next to it
_TYPED_KEYS = {
    "graph": ("type", {"chain": {"length"}, "grid": {"dims"}, "edges": {"n_vertices", "edges", "dimension"}}),
    "initial_state": ("kind", {"gibbs": set(), "gibbs_decoupled": set(), "occupation": {"occupation"}}),
}


def _f(site, fn="inv_one_plus_n"):
    return {"kind": "number_function", "site": site, "fn": fn}


PRESETS: dict[str, dict] = {
    # free single-particle spreading against the exact lattice propagator
    "chain-81": {
        "name": "chain-81",
        "experiments": ["free-evolution"],
        "graph": {"type": "chain", "length": 81},
        "model": {"hopping": 1.0, "onsite": 0.0, "offsite": []},
        "basis": {"sector": 1},
        "sweeps": {
            "times": [0.5, 1.0, 2.0],
            "displacement_max": 10,
            "condensate_m": [1, 10, 100, 1000, 10000],
            "condensate_site": 1,
            "condensate_time": 0.5,
        },
    },
    # dense canonical quench, moment growth certificates
    "chain-6": {
        "name": "chain-6",
        "experiments": ["moments"],
        "graph": {"type": "chain", "length": 6},
        "model": {"hopping": 1.0, "onsite": 1.0, "offsite": []},
        "basis": {"sector": 3},
        "thermal": {"beta": 1.0, "mu": -1.0},
        "initial_state": {"kind": "gibbs_decoupled"},
        "sweeps": {"times": [round(0.1 * k, 1) for k in range(21)], "moment_p": 4},
    },
    # occupation-cutoff error scaling on a short chain with a roomy cap
    "chain-4": {
        "name": "chain-4",
        "experiments": ["cutoff"],
        "graph": {"type": "chain", "length": 4},
        "model": {"hopping": 1.0, "onsite": 1.0, "offsite": []},
        "basis": {"site_cap": 5, "n_max": 8},
        "thermal": {"beta": 1.0, "mu": -2.0, "tail_tol": 1e-8},
        "observables": {"pairs": [[_f(1), _f(2)]]},
        "sweeps": {"times": [0.5], "cutoffs": [1, 2, 3, 4], "moment_p": 6},
    },
    # light-cone sweeps at cap 2: shell-restricted dynamics and correlation decay
    "chain-10": {
        "name": "chain-10",
        "experiments": ["lr", "local-approx"],
        "graph": {"type": "chain", "length": 10},
        "model": {"hopping": 1.0, "onsite": 1.0, "offsite": []},
        "basis": {"site_cap": 2, "n_max": 3},
        "thermal": {"beta": 1.0, "mu": -4.0, "tail_tol": 0.01},
        "observables": {"pairs": [[_f(2), _f(7)]]},
        "sweeps": {
            "times": [0.25, 0.5],
            "shells": [1, 2, 3, 4],
            "moment_p": 6,
            "commutator_sites": [4, 5, 6, 7, 8, 9],
            "sup_times": [0.1, 0.2, 0.3, 0.4, 0.5],
        },
    },
    # thermal precision scenario: strong coupling keeps the sector tail certifiable
    "two-site": {
        "name": "two-site",
        "experiments": ["kms"],
        "graph": {"type": "chain", "length": 2},
        "model": {"hopping": 0.2, "onsite": 1.0, "offsite": []},
        "basis": {"n_max": 6},
        "thermal": {"beta": 1.0, "mu": -1.0, "tail_tol": 1e-10},
        "observables": {
            "pairs": [
                [_f(0), _f(1)],
                [{"kind": "indicator", "site": 0, "level": 1}, _f(0)],
                [{"kind": "normalized_hop", "sites": [0, 1]}, _f(1)],
                [_f(0), {"kind": "normalized_hop", "sites": [0, 1]}],
                [
                    {"kind": "indicator", "site": 1, "level": 2},
                    {"kind": "indicator", "site": 0, "level": 0},
                ],
            ]
        },
        "sweeps": {"times": [0.0, 0.5, 1.0], "strip_points": 11},
        "volumes": [2, 3, 4],
    },
    # operator inequality and uniform derivative bound across growing volumes
    "chain-4-derivative": {
        "name": "chain-4-derivative",
        "experiments": ["derivative"],
        "graph": {"type": "chain", "length": 4},
        "model": {"hopping": 1.0, "onsite": 1.0, "offsite": []},
        "basis": {"n_max": 2},
        "thermal": {"beta": 1.0, "mu": -3.0, "tail_tol": 0.05},
        "observables": {"pairs": [[_f(1), _f(2)]]},
        "sweeps": {"times": [0.0, 0.25, 0.5, 0.75, 1.0]},
        "volumes": [4, 5, 6],
        "deriv": {"range_R": 2, "trend_n_max": [2, 3, 4]},
    },
}

# default preset per CLI subcommand
EXPERIMENT_PRESETS = {
    "free-evolution": "chain-81",
    "moments": "chain-6",
    "cutoff": "chain-4",
    "lr": "chain-10",
    "local-approx": "chain-10",
    "kms": "two-site",
    "derivative": "chain-4-derivative",
}

# execution order of `all`, cheapest first
ALL_ORDER = ("chain-4-derivative", "chain-81", "two-site", "chain-6", "chain-4", "chain-10")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    experiments: tuple[str, ...]
    graph: dict
    model: ModelParams
    basis: dict
    thermal: dict
    observable_pairs: tuple
    initial_state: dict
    sweeps: dict
    volumes: tuple[int, ...]
    deriv: dict
    cutoff_region: tuple[int, ...] | None
    tolerances: dict
    output_dir: str | None
    workers: int | None
    debug: dict
    raw: dict

    def tol(self, key: str) -> float:
        return self.tolerances[key]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _graph_dimension(graph: dict) -> int:
    if graph["type"] == "grid":
        return len(graph["dims"])
    return int(graph.get("dimension", 1))


def resolve_dict(data: dict) -> dict:
    """Apply preset inheritance and fill defaults, returning a plain dict."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    _require(not unknown, "config", f"unknown keys {sorted(unknown)}")
    preset = data.get("preset")
    if preset is not None:
        _require(preset in PRESETS, "preset", f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        merged = _deep_merge(PRESETS[preset], {k: v for k, v in data.items() if k != "preset"})
    else:
        merged = copy.deepcopy(data)
    out = _deep_merge(_DEFAULTS, merged)
    sections = ("model", "basis", "thermal", "observables", "sweeps", "deriv", "tolerances", "debug")
    known = {key: set(_DEFAULTS[key]) for key in sections}
    known["sweeps"].add("lr_lambda")  # optional, read without a default
    for section, keys in known.items():
        _require(isinstance(out[section], dict), section, "must be a JSON object")
        unknown = set(out[section]) - keys
        _require(not unknown, section, f"unknown keys {sorted(unknown)}")
    # typed sections: check the keys this config supplies against the merged
    # type, and drop merged-in keys of another type (the default chain's
    # length under an edges graph), so the resolved dict resolves to itself
    for section, (tag, allowed) in _TYPED_KEYS.items():
        _require(isinstance(out[section], dict), section, "must be a JSON object")
        kind = out[section].get(tag)
        _require(kind in allowed, f"{section}.{tag}", f"must be one of {sorted(allowed)}")
        keys = allowed[kind] | {tag}
        unknown = set(data.get(section, {})) - keys
        _require(not unknown, section, f"unknown keys {sorted(unknown)} for {tag} {kind!r}")
        out[section] = {key: val for key, val in out[section].items() if key in keys}
    if out["initial_state"]["kind"] == "occupation":
        _require("occupation" in out["initial_state"], "initial_state.occupation", "required for this kind")
    return out


def from_dict(data: dict) -> ExperimentConfig:
    raw = resolve_dict(data)
    _require(raw["schema_version"] == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}")

    experiments = tuple(raw["experiments"])
    for e in experiments:
        _require(e in EXPERIMENT_NAMES, "experiments", f"unknown experiment {e!r}")

    graph = raw["graph"]
    if graph["type"] == "chain":
        _require(int(graph.get("length", 0)) >= 1, "graph.length", "must be >= 1")
    elif graph["type"] == "grid":
        dims = graph.get("dims", [])
        _require(bool(dims) and all(int(d) >= 1 for d in dims), "graph.dims", "need positive dims")
    else:
        _require(int(graph.get("n_vertices", 0)) >= 1, "graph.n_vertices", "must be >= 1")
        _require(isinstance(graph.get("edges"), list), "graph.edges", "need an edge list")

    model_raw = raw["model"]
    model = ModelParams(
        hopping=float(model_raw["hopping"]),
        onsite=float(model_raw["onsite"]),
        offsite=tuple(float(v) for v in model_raw["offsite"]),
        ordered_hopping=bool(model_raw.get("ordered_hopping", False)),
    )

    basis = raw["basis"]
    has_sector = basis.get("sector") is not None
    has_nmax = basis.get("n_max") is not None
    _require(
        has_sector != has_nmax,
        "basis",
        "exactly one of sector (canonical) or n_max (grand canonical) must be set",
    )
    if basis.get("site_cap") is not None:
        _require(int(basis["site_cap"]) >= 0, "basis.site_cap", "must be nonnegative")

    thermal = raw["thermal"]
    _require(float(thermal["beta"]) > 0, "thermal.beta", "must be positive")
    _require(float(thermal["tail_tol"]) > 0, "thermal.tail_tol", "must be positive")

    sweeps = raw["sweeps"]
    d = _graph_dimension(graph)
    p = float(sweeps["moment_p"])
    if {"lr", "local-approx"} & set(experiments):
        _require(
            p > 2 * d + 2,
            "sweeps.moment_p",
            f"must satisfy p > 2d+2 = {2 * d + 2} for light-cone experiments (got {p})",
        )
        _require(bool(sweeps["shells"]), "sweeps.shells", "need a shell sweep")
    if "cutoff" in experiments:
        _require(p >= 2, "sweeps.moment_p", "cutoff certificate needs p >= 2")
        _require(bool(sweeps["cutoffs"]), "sweeps.cutoffs", "need a cutoff sweep")
        cap = basis.get("site_cap")
        _require(cap is not None, "basis.site_cap", "cutoff experiment needs a capped reference basis")
        _require(
            all(int(l) < int(cap) for l in sweeps["cutoffs"]),
            "sweeps.cutoffs",
            f"every swept cutoff must sit strictly below the reference cap {cap}",
        )
    needs_pairs = {"cutoff", "lr", "local-approx", "kms", "derivative"} & set(experiments)
    if needs_pairs:
        _require(bool(raw["observables"]["pairs"]), "observables.pairs", "need observable pairs")
    if {"moments", "cutoff", "lr", "local-approx", "kms", "derivative"} & set(experiments):
        _require(bool(sweeps["times"]), "sweeps.times", "need a time grid")
    _require(
        model.hopping >= 0.0,
        "model.hopping",
        "bound evaluators assume a nonnegative hopping normalization",
    )
    bound_experiments = {"moments", "cutoff", "lr", "local-approx"} & set(experiments)
    if bound_experiments and model.hopping > 1.0 + 1e-12:
        raise ConfigError(
            "model.hopping: analytic certificates are normalized to hopping <= 1 "
            f"(time in inverse hopping units); got {model.hopping}"
        )

    for key in ("times", "cutoffs", "shells"):
        vals = sweeps[key]
        _require(list(vals) == sorted(vals), f"sweeps.{key}", "sweep must be ascending")
    _require(int(sweeps["strip_points"]) >= 1, "sweeps.strip_points", "must be >= 1")
    # a negative window leaves free-evolution with no propagator rows to check
    _require(int(sweeps["displacement_max"]) >= 0, "sweeps.displacement_max", "must be >= 0")

    workers = raw["workers"]
    if workers is not None:
        _require(int(workers) >= 1, "workers", "must be >= 1")

    pairs = tuple((copy.deepcopy(a), copy.deepcopy(b)) for a, b in raw["observables"]["pairs"])
    cutoff_region = raw["cutoff_region"]
    if cutoff_region is not None:
        cutoff_region = tuple(int(x) for x in cutoff_region)

    return ExperimentConfig(
        name=str(raw["name"]),
        experiments=experiments,
        graph=copy.deepcopy(graph),
        model=model,
        basis=copy.deepcopy(basis),
        thermal=copy.deepcopy(thermal),
        observable_pairs=pairs,
        initial_state=copy.deepcopy(raw["initial_state"]),
        sweeps=copy.deepcopy(sweeps),
        volumes=tuple(int(v) for v in raw["volumes"]),
        deriv=copy.deepcopy(raw["deriv"]),
        cutoff_region=cutoff_region,
        tolerances=raw["tolerances"],
        output_dir=raw["output_dir"],
        workers=None if workers is None else int(workers),
        debug=copy.deepcopy(raw["debug"]),
        raw=raw,
    )


def from_preset(name: str, overrides: dict | None = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}; have {sorted(PRESETS)}")
    data = {"preset": name}
    if overrides:
        data.update(overrides)
    return from_dict(data)


def config_for_experiment(experiment: str) -> ExperimentConfig:
    if experiment not in EXPERIMENT_PRESETS:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    return from_preset(EXPERIMENT_PRESETS[experiment])


def parse_config(path) -> ExperimentConfig:
    """Load, resolve, and validate a JSON config file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return from_dict(data)


def _non_finite(literal: str):
    raise ConfigError(f"config: non-finite number {literal} is not allowed")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _non_finite(literal)
    return value
