"""Experiment configuration: presets, file parsing, validation.

Configs are plain JSON objects.  A file may name a ``preset`` and override
any field; the fully resolved dict is echoed into every report so a run
can be reproduced from its own output.
"""

import copy
import json
import math
import numbers
import os
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidArgumentError
from .lattice import build_from_edges
from .operators import _NAMED_FUNCTIONS, ModelParams

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

# the threshold of each check: no config sets one, and each report echoes them
DEFAULT_TOLERANCES = {
    "bessel": 1e-8,
    "boundary_agreement": 1e-8,
    "kms_residual": 1e-9,
    "invariance_residual": 1e-9,
    "strip_slack": 1e-9,
    "unitarity": 1e-10,
    "bound_slack": 1e-12,
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
    "model": {"hopping": 1.0, "onsite": 0.0, "offsite": []},
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
        "epsilons": [1e-3],
    },
    "volumes": [],
    "deriv": {"range_R": 2, "trend_n_max": []},
    "cutoff_region": None,
}

_TOP_LEVEL_KEYS = set(_DEFAULTS) | {"preset"}

# graph and initial_state keys depend on their type: per section, the tag
# key and the keys each tag value allows next to it
_TYPED_KEYS = {
    "graph": ("type", {"chain": {"length"}, "grid": {"dims"}, "edges": {"n_vertices", "edges", "dimension"}}),
    "initial_state": ("kind", {"gibbs": set(), "gibbs_decoupled": set(), "occupation": {"occupation"}}),
}


# the JSON type of every value from_dict and the runners read, by key path:
# "[kind]" is a list of them, and a trailing "?" also allows null.  An int
# is a number with an integral value; a boolean is never a number.  This is
# the one place a value's type is decided: from_dict reads an int as a
# Python int (3.0 too) and a number as a finite float
_TYPES = {
    "number": "model.hopping model.onsite thermal.beta thermal.mu thermal.tail_tol sweeps.moment_p "
    "sweeps.condensate_time",
    "[number]": "model.offsite sweeps.times sweeps.sup_times sweeps.epsilons",
    "int": "schema_version graph.length graph.n_vertices graph.dimension sweeps.displacement_max "
    "sweeps.condensate_site sweeps.strip_points deriv.range_R",
    "int?": "basis.site_cap basis.n_max basis.sector sweeps.lr_lambda",
    "[int]": "graph.dims initial_state.occupation sweeps.cutoffs sweeps.shells sweeps.condensate_m "
    "sweeps.commutator_sites volumes deriv.trend_n_max",
    "[int]?": "cutoff_region",
    "str": "name",
    "[str]": "experiments",
}
_WANTED = {"number": "a number", "int": "an integer", "str": "a string"}

# the range of every value of _TYPES that has one, by key path: a list's
# range holds for each item, and a null is not checked.  This is the one
# place a single key's range is decided, for every config whatever it
# lists; a rule that reads two keys, or one experiment's need, is
# check_experiments'
_RANGES = {
    ">= 0": "model.hopping basis.sector initial_state.occupation sweeps.displacement_max deriv.range_R "
    "deriv.trend_n_max",
    ">= 1": "graph.length graph.dims graph.n_vertices graph.dimension basis.site_cap basis.n_max sweeps.moment_p "
    "sweeps.cutoffs sweeps.shells sweeps.condensate_m sweeps.strip_points sweeps.lr_lambda",
    "> 0": "thermal.beta thermal.tail_tol sweeps.epsilons",
}
_RANGE_OF = {path: rule for rule, paths in _RANGES.items() for path in paths.split()}

# the integer fields ``operators.local_observable`` reads, per observable
# kind; a number_function names one "site" or, in process, several "sites"
_OBSERVABLE_INTS = {"number_function": ("site",), "indicator": ("site", "level"), "normalized_hop": ("sites",)}


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
    raw: dict
    # what the experiments build from this config and share (its scene),
    # filled on first use and released with the config; ``replace`` starts
    # a new one, and equality never reads it
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    sections = ("model", "basis", "thermal", "observables", "sweeps", "deriv")
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
        _require(isinstance(kind, str) and kind in allowed, f"{section}.{tag}", f"must be one of {sorted(allowed)}")
        keys = allowed[kind] | {tag}
        unknown = set(data.get(section, {})) - keys
        _require(not unknown, section, f"unknown keys {sorted(unknown)} for {tag} {kind!r}")
        out[section] = {key: val for key, val in out[section].items() if key in keys}
        for key in sorted(allowed[kind] - {"dimension"}):  # an edges graph's dimension defaults to 1
            _require(key in out[section], f"{section}.{key}", f"required for {tag} {kind!r}")
    return out


def _require_finite(value, path: str):
    """Raise ConfigError naming the key path of the first non-finite float
    anywhere in ``value`` (nested dicts and lists); integers are exact and
    never checked (a huge one does not convert to float)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")
    elif isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        if not math.isfinite(value):
            raise ConfigError(f"{path}: non-finite number {json.dumps(float(value))} is not allowed")


def _is(kind: str, value) -> bool:
    if kind == "str":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return kind == "number" or isinstance(value, numbers.Integral) or float(value).is_integer()


def _typed(kind: str, value, path: str):
    """``value`` as the Python type of the single ``_TYPES`` kind ``kind``."""
    _require(_is(kind, value), path, f"must be {_WANTED[kind]}, got {value!r}")
    if kind == "int":
        return int(value)
    if kind == "number":
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: must be a finite number, got an integer too large for a float") from None
    return value


def _in_range(rule: str, value) -> bool:
    op, bound = rule.split()
    return value > float(bound) if op == ">" else value >= float(bound)


def _require_types(raw: dict) -> dict:
    """A deep copy of ``raw`` with every value ``_TYPES`` names as its
    Python type.  Raise ConfigError naming the key path of the first value
    whose type differs from ``_TYPES``, of an integer too large for a
    float where a number is wanted, or of a value outside its ``_RANGES``
    range; absent keys are not checked.  This owns every single-key rule
    of type and range; ``check_experiments`` owns the rest."""
    typed = copy.deepcopy(raw)
    for kind, paths in _TYPES.items():
        single = kind.strip("[]?")
        for path in paths.split():
            section, _, key = path.rpartition(".")
            holder = typed[section] if section else typed
            value = holder.get(key)
            if key not in holder or (value is None and kind.endswith("?")):
                continue
            if kind.startswith("["):
                _require(isinstance(value, (list, tuple)), path, f"must be a list, got {value!r}")
                holder[key] = [_typed(single, item, f"{path}[{i}]") for i, item in enumerate(value)]
            else:
                holder[key] = _typed(single, value, path)
            rule, items = _RANGE_OF.get(path), holder[key] if kind.startswith("[") else [holder[key]]
            if rule and not all(_in_range(rule, v) for v in items):
                each = "each " if kind.startswith("[") else ""
                raise ConfigError(f"{path}: {each}must be {rule}, got {value!r}")
    return typed


def _ints(value, size: int | None = None) -> bool:
    """True for a nonempty list of integers, of ``size`` of them if given."""
    n = len(value) if isinstance(value, (list, tuple)) else 0
    return n > 0 and n == (size or n) and all(_is("int", item) for item in value)


def _typed_observable(spec, path: str) -> dict:
    """A copy of the observable ``spec`` with its integer fields as Python
    ints and a number_function's table as floats.  Raise ConfigError naming
    the key path of the first malformed part: its kind, the integer fields
    of that kind and a number_function's ``fn``."""
    _require(isinstance(spec, dict), path, f"must be an observable object, got {spec!r}")
    kind = spec.get("kind")
    _require(kind in _OBSERVABLE_INTS, f"{path}.kind", f"must be one of {sorted(_OBSERVABLE_INTS)}, got {kind!r}")
    typed = dict(spec)
    for key in ("sites",) if kind == "number_function" and "site" not in spec else _OBSERVABLE_INTS[kind]:
        value, size = spec.get(key), 2 if kind == "normalized_hop" else None
        ok = _ints(value, size) if key == "sites" else _is("int", value)
        wanted = f"list {size or 'one or more'} integers" if key == "sites" else "be an integer"
        _require(ok, f"{path}.{key}", f"must {wanted}, got {value!r}")
        typed[key] = [int(v) for v in value] if key == "sites" else int(value)
    fn, where = spec.get("fn"), f"{path}.fn"
    if kind != "number_function" or callable(fn):
        return typed  # a callable is set in process and takes one occupation per site
    _require("fn" in spec, where, "required: a function name or a table of numbers")
    if "site" not in spec:
        _require(len(spec["sites"]) == 1, where, f"a name or a table takes one site, got sites {spec['sites']!r}")
    if isinstance(fn, str):
        _require(fn in _NAMED_FUNCTIONS, where, f"unknown function {fn!r}; have {sorted(_NAMED_FUNCTIONS)}")
    else:
        ok = isinstance(fn, (list, tuple)) and len(fn) > 0 and all(_is("number", v) for v in fn)
        _require(ok, where, f"must be a function name or a nonempty list of numbers, got {fn!r}")
        typed["fn"] = [_typed("number", v, f"{where}[{i}]") for i, v in enumerate(fn)]
    return typed


def _observable_sites(spec: dict) -> list:
    """The sites a typed observable acts on."""
    return spec["sites"] if spec["kind"] == "normalized_hop" or "site" not in spec else [spec["site"]]


def check_experiments(cfg: ExperimentConfig, experiments) -> None:
    """Raise ConfigError unless ``cfg`` holds what each of ``experiments``
    reads.  This owns the rules that read two or more keys and what one
    experiment needs; ``_require_types`` owns each single key's type and
    range.  The graph, the basis and an occupation start, which every
    scene builds, are checked whatever ``experiments`` names.  ``from_dict``
    runs this for the listed experiments, the command line for the one a
    subcommand runs."""
    sweeps, basis, graph = cfg.sweeps, cfg.basis, cfg.graph
    vertices = math.prod(graph["dims"]) if graph["type"] == "grid" else graph.get("length") or graph["n_vertices"]
    if graph["type"] == "edges":  # the lattice's own checks: vertices in range, no self-loop, connected
        try:
            build_from_edges(graph["n_vertices"], graph["edges"], graph.get("dimension", 1))
        except InvalidArgumentError as exc:
            raise ConfigError(f"graph.edges: {exc}") from None
    cap, n_max, sector = basis["site_cap"], basis["n_max"], basis["sector"]
    most, key = (n_max, "basis.n_max") if sector is None else (sector, "basis.sector")
    _require(cap is None or most <= cap * vertices, key, f"must be at most site_cap * vertices = {cap} * {vertices}")
    occ = cfg.initial_state.get("occupation")
    if occ is not None:
        fits = len(occ) == vertices and (cap is None or max(occ) <= cap) and sum(occ) <= most
        ok = fits and (sector is None or sum(occ) == sector)
        _require(ok, "initial_state.occupation", f"must be a state of the basis (a count per vertex), got {occ}")
    d = len(graph["dims"]) if graph["type"] == "grid" else graph.get("dimension", 1)
    p = sweeps["moment_p"]
    if {"lr", "local-approx"} & set(experiments):
        light_cone = f"must satisfy p > 2d+2 = {2 * d + 2} for light-cone experiments (got {p})"
        _require(p > 2 * d + 2, "sweeps.moment_p", light_cone)
        _require(bool(sweeps["shells"]), "sweeps.shells", "need a shell sweep")
    if {"moments", "cutoff", "lr"} & set(experiments):
        _require(vertices >= 2, "graph", "the growth and light-cone bounds need an edge, so two or more vertices")
    if "cutoff" in experiments:
        _require(p >= 2, "sweeps.moment_p", "cutoff certificate needs p >= 2")
        _require(bool(sweeps["cutoffs"]), "sweeps.cutoffs", "need a cutoff sweep")
        _require(cap is not None, "basis.site_cap", "cutoff experiment needs a capped reference basis")
        below = f"every swept cutoff must sit strictly below the reference cap {cap}"
        _require(all(l < cap for l in sweeps["cutoffs"]), "sweeps.cutoffs", below)
    off_graph = f"lie outside the graph's {vertices} vertices"
    if {"cutoff", "lr", "local-approx", "kms", "derivative"} & set(experiments):
        _require(bool(cfg.observable_pairs), "observables.pairs", "need observable pairs")
        for i, pair in enumerate(cfg.observable_pairs):
            for j, spec in enumerate(pair):
                outside = [x for x in _observable_sites(spec) if not 0 <= x < vertices]
                _require(not outside, f"observables.pairs[{i}][{j}]", f"sites {outside} {off_graph}")
        if "cutoff" in experiments and cfg.cutoff_region is not None:
            region = cfg.cutoff_region
            missing = sorted(set(_observable_sites(cfg.observable_pairs[0][0])) - set(region))
            _require(not missing, "cutoff_region", f"must contain the support of the first observable, lacks {missing}")
            outside = [x for x in region if not 0 <= x < vertices]
            _require(not outside, "cutoff_region", f"sites {outside} {off_graph}")
        if "lr" in experiments:
            outside = [x for x in sweeps["commutator_sites"] if not 0 <= x < vertices]
            _require(not outside, "sweeps.commutator_sites", f"sites {outside} {off_graph}")
    if "derivative" in experiments:
        _require(bool(cfg.volumes), "volumes", "derivative needs at least one volume")
    if {"kms", "derivative"} & set(experiments):
        # both volume trends put observable pair 0 on a chain of each length,
        # in the grand-canonical state on sectors 0..n_max
        top = max(site for spec in cfg.observable_pairs[0] for site in _observable_sites(spec))
        short = [L for L in cfg.volumes if L <= top]
        _require(not short, "volumes", f"each must exceed the largest site {top} of observable pair 0, got {short}")
        _require(n_max is not None or not cfg.volumes, "basis.n_max", "the volume trends need a grand-canonical basis")
        few = [L for L in cfg.volumes if cap is not None and L * cap < n_max]
        _require(not few, "volumes", f"each must hold n_max = {n_max} particles under site_cap {cap}, got {few}")
    if "free-evolution" in experiments:
        _require(graph["type"] == "chain", "graph.type", "free-evolution runs on a chain")
        _require(sector == 1, "basis.sector", "free-evolution needs the one-particle sector")
        window = vertices // 2 + sweeps["displacement_max"]
        _require(window < vertices, "sweeps.displacement_max", "window exceeds the chain")
    if experiments:  # each of them reads the time grid
        _require(bool(sweeps["times"]), "sweeps.times", "need a time grid")
    hopping = cfg.model.hopping
    if {"moments", "cutoff", "lr", "local-approx"} & set(experiments) and hopping > 1.0 + 1e-12:
        unit = "(time in inverse hopping units)"
        raise ConfigError(f"model.hopping: analytic certificates are normalized to hopping <= 1 {unit}; got {hopping}")


def from_dict(data: dict) -> ExperimentConfig:
    """Resolve, type and validate a config.  Every field of the result
    holds typed values (see ``_TYPES``); ``raw``, which reports echo, holds
    the resolved config as written."""
    raw = resolve_dict(data)
    _require_finite(raw, "")
    typed = _require_types(raw)
    _require(typed["schema_version"] == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}")

    experiments = tuple(typed["experiments"])
    for e in experiments:
        _require(e in EXPERIMENT_NAMES, "experiments", f"unknown experiment {e!r}")

    graph = typed["graph"]
    if graph["type"] == "grid":
        _require(bool(graph["dims"]), "graph.dims", "need at least one dimension")
    elif graph["type"] == "edges":
        _require(isinstance(graph["edges"], list), "graph.edges", "need an edge list")
        for i, edge in enumerate(graph["edges"]):
            _require(_ints(edge, 2), f"graph.edges[{i}]", f"must be a pair of integers, got {edge!r}")
        graph["edges"] = [[int(x), int(y)] for x, y in graph["edges"]]

    m = typed["model"]
    model = ModelParams(hopping=m["hopping"], onsite=m["onsite"], offsite=tuple(m["offsite"]))

    basis = typed["basis"]
    one_mode = (basis["sector"] is None) != (basis["n_max"] is None)
    _require(one_mode, "basis", "exactly one of sector (canonical) or n_max (grand canonical) must be set")

    sweeps = typed["sweeps"]
    for key in ("times", "cutoffs", "shells"):
        vals = sweeps[key]
        _require(vals == sorted(vals), f"sweeps.{key}", "sweep must be ascending")
    _require(bool(sweeps["epsilons"]), "sweeps.epsilons", "need at least one accuracy")

    pairs = typed["observables"]["pairs"]
    _require(isinstance(pairs, list), "observables.pairs", "must be a list of pairs")
    for i, pair in enumerate(pairs):
        ok = isinstance(pair, (list, tuple)) and len(pair) == 2
        _require(ok, f"observables.pairs[{i}]", f"must be a pair of observables, got {pair!r}")
        pairs[i] = [_typed_observable(spec, f"observables.pairs[{i}][{j}]") for j, spec in enumerate(pair)]
    cutoff_region = typed["cutoff_region"]

    cfg = ExperimentConfig(
        name=typed["name"],
        experiments=experiments,
        graph=graph,
        model=model,
        basis=basis,
        thermal=typed["thermal"],
        observable_pairs=tuple(tuple(pair) for pair in pairs),
        initial_state=typed["initial_state"],
        sweeps=sweeps,
        volumes=tuple(typed["volumes"]),
        deriv=typed["deriv"],
        cutoff_region=None if cutoff_region is None else tuple(cutoff_region),
        raw=raw,
    )
    check_experiments(cfg, experiments)
    return cfg


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
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return from_dict(data)

