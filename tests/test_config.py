import json

import pytest

from bosonlr import ConfigError, parse_config
from bosonlr.config import (
    EXPERIMENT_PRESETS,
    PRESETS,
    _DEFAULTS,
    _TYPED_KEYS,
    _TYPES,
    config_for_experiment,
    from_dict,
    from_preset,
)


def _f(site):
    return {"kind": "number_function", "site": site, "fn": "inv_one_plus_n"}


def _hop(x, y):
    return {"kind": "normalized_hop", "sites": [x, y]}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_presets_all_valid():
    for name in PRESETS:
        cfg = from_preset(name)
        assert cfg.name == name
        assert cfg.experiments


def test_experiment_preset_mapping_complete():
    for exp, preset in EXPERIMENT_PRESETS.items():
        cfg = config_for_experiment(exp)
        assert exp in cfg.experiments
        assert preset in PRESETS


def test_preset_with_overrides(tmp_path):
    path = write_cfg(tmp_path, {"preset": "chain-6", "sweeps": {"times": [0.0, 0.5]}})
    cfg = parse_config(path)
    assert cfg.sweeps["times"] == [0.0, 0.5]
    assert cfg.sweeps["moment_p"] == 4  # inherited
    assert cfg.graph["length"] == 6


def test_moment_exponent_hypothesis_enforced(tmp_path):
    path = write_cfg(tmp_path, {"preset": "chain-10", "sweeps": {"moment_p": 4}})
    with pytest.raises(ConfigError, match="p > 2d\\+2"):
        parse_config(path)


def test_values_are_typed_once():
    # from_dict hands the runners ints and floats; the echoed config keeps
    # the values as written
    cfg = from_preset("two-site", {"basis": {"site_cap": 3.0}, "thermal": {"beta": 2}, "volumes": [2.0]})
    assert type(cfg.basis["site_cap"]) is int and type(cfg.thermal["beta"]) is float
    assert cfg.volumes == (2,) and type(cfg.volumes[0]) is int
    assert type(cfg.sweeps["strip_points"]) is int and type(cfg.sweeps["times"][0]) is float
    assert cfg.to_dict()["basis"]["site_cap"] == 3.0 and type(cfg.to_dict()["basis"]["site_cap"]) is float
    assert type(cfg.to_dict()["thermal"]["beta"]) is int


def test_observable_fields_and_edges_are_typed_once():
    # an observable's site, level and sites, a table's entries and each
    # edge reach the runners as ints and floats: an observable built from
    # "site": 2.0 records its support as the int 2, and the echoed config
    # keeps the values as written
    from bosonlr.experiments import build_graph, scene_of

    pairs = [
        [{"kind": "number_function", "site": 2.0, "fn": [1, 0.5, 0.25]}, {"kind": "indicator", "site": 1.0, "level": 1.0}],
        [{"kind": "normalized_hop", "sites": [0.0, 1.0]}, {"kind": "number_function", "site": 3, "fn": "inv_one_plus_n"}],
    ]
    edges = [[0, 1.0], [1.0, 2], [2, 3.0]]
    graph = {"type": "edges", "n_vertices": 4, "edges": edges}
    cfg = from_dict({"graph": graph, "basis": {"n_max": 2}, "observables": {"pairs": pairs}})
    spec_a, spec_b = cfg.observable_pairs[0]
    assert spec_a == {"kind": "number_function", "site": 2, "fn": [1.0, 0.5, 0.25]} and type(spec_a["site"]) is int
    assert all(type(v) is float for v in spec_a["fn"])
    assert type(spec_b["site"]) is int and type(spec_b["level"]) is int
    assert [type(v) for v in cfg.observable_pairs[1][0]["sites"]] == [int, int]
    assert cfg.graph["edges"] == [[0, 1], [1, 2], [2, 3]]
    assert all(type(v) is int for edge in cfg.graph["edges"] for v in edge)
    assert cfg.to_dict()["observables"]["pairs"] == pairs and cfg.to_dict()["graph"]["edges"] == edges
    assert build_graph(cfg.graph).adjacency == ((1,), (0, 2), (1, 3), (2,))
    scene = scene_of(cfg)
    A, B = scene.pair(cfg)
    hop, _ = scene.pair(cfg, 1)
    assert A.support == (2,) and type(A.support[0]) is int and B.support == (1,) and hop.support == (0, 1)


def test_integer_past_the_digit_limit_exits_config(tmp_path):
    # json.load refuses an integer literal of more digits than Python reads
    # (3.10.7 and later); an older reader gets an integer no float holds
    path = tmp_path / "big.json"
    path.write_text('{"preset": "chain-6", "thermal": {"beta": 1' + "0" * 5000 + "}}")
    with pytest.raises(ConfigError, match=r"not valid JSON|thermal\.beta: must be a finite number"):
        parse_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/path.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(path)


def test_unknown_keys_rejected(tmp_path):
    path = write_cfg(tmp_path, {"preset": "chain-6", "tyop": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(path)


# every key path a config may set; a new knob is added here too
SETTABLE = """
preset schema_version name experiments volumes cutoff_region
graph.type graph.length graph.dims graph.n_vertices graph.edges graph.dimension
initial_state.kind initial_state.occupation
model.hopping model.onsite model.offsite
basis.site_cap basis.n_max basis.sector
thermal.beta thermal.mu thermal.tail_tol
observables.pairs
sweeps.times sweeps.cutoffs sweeps.shells sweeps.moment_p sweeps.displacement_max sweeps.condensate_m
sweeps.condensate_site sweeps.condensate_time sweeps.commutator_sites sweeps.sup_times sweeps.strip_points
sweeps.epsilons sweeps.lr_lambda
deriv.range_R deriv.trend_n_max
""".split()


def test_the_settable_config_keys_are_pinned():
    paths = {"preset", "sweeps.lr_lambda"}  # the two keys without a default
    for key, default in _DEFAULTS.items():
        if key in _TYPED_KEYS:
            tag, allowed = _TYPED_KEYS[key]
            paths |= {f"{key}.{k}" for k in {tag}.union(*allowed.values())}
        elif isinstance(default, dict):
            paths |= {f"{key}.{k}" for k in default}
        else:
            paths.add(key)
    assert len(SETTABLE) == len(set(SETTABLE)) == 39
    assert paths == set(SETTABLE)
    assert {path for paths in _TYPES.values() for path in paths.split()} <= paths


GRID_2X2 = {"type": "grid", "dims": [2, 2]}
EDGES_3 = {"type": "edges", "n_vertices": 3, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize(
    "data, match",
    [
        ({"preset": "chain-4", "observables": {"pairs": [[_f(9), _f(0)]]}}, r"\[0\]\[0\]: sites \[9\] lie outside"),
        ({"preset": "two-site", "observables": {"pairs": [[_f(0), _f(-1)]]}}, r"\[0\]\[1\]: sites \[-1\] lie outside"),
        ({"preset": "chain-10", "observables": {"pairs": [[_hop(9, 10), _f(0)]]}}, r"sites \[10\] lie outside"),
        ({"preset": "chain-4", "graph": GRID_2X2, "observables": {"pairs": [[_f(4), _f(3)]]}}, r"graph's 4 vertices"),
        ({"preset": "chain-4", "graph": EDGES_3, "observables": {"pairs": [[_f(0), _f(3)]]}}, r"graph's 3 vertices"),
        ({"preset": "chain-4-derivative", "deriv": {"range_R": -1}}, r"deriv\.range_R: must be >= 0"),
        ({"preset": "chain-4-derivative", "deriv": {"trend_n_max": [2, -1]}}, r"deriv\.trend_n_max: each must be >= 0"),
        ({"preset": "chain-10", "sweeps": {"commutator_sites": [12]}}, r"commutator_sites: sites \[12\] lie outside"),
        ({"preset": "chain-10", "sweeps": {"commutator_sites": [-1, 4]}}, r"sites \[-1\] lie outside the graph's 10"),
    ],
)
def test_sites_off_the_graph_and_negative_derivative_ranges_rejected(data, match):
    # caught when the config is read, not when a runner builds the scene
    with pytest.raises(ConfigError, match=match):
        from_dict(data)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        from_preset("chain-999")


def test_cutoff_sweep_must_stay_below_cap(tmp_path):
    path = write_cfg(tmp_path, {"preset": "chain-4", "sweeps": {"cutoffs": [1, 5]}})
    with pytest.raises(ConfigError, match="strictly below"):
        parse_config(path)


def test_basis_needs_exactly_one_mode():
    with pytest.raises(ConfigError, match="exactly one"):
        from_dict({"preset": "chain-6", "basis": {"sector": 3, "n_max": 3}})
    with pytest.raises(ConfigError, match="exactly one"):
        from_dict({"preset": "chain-6", "basis": {"sector": None, "n_max": None}})


def test_beta_positive():
    with pytest.raises(ConfigError, match="beta"):
        from_dict({"preset": "two-site", "thermal": {"beta": -1.0}})


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"sweeps": {"times": [float("nan")]}}, r"sweeps\.times\[0\]: non-finite number NaN "),
        ({"thermal": {"beta": float("inf")}}, r"thermal\.beta: non-finite number Infinity "),
    ],
)
def test_in_process_non_finite_number_rejected(overrides, match):
    # a config built in Python never passes through json.load
    with pytest.raises(ConfigError, match=match):
        from_preset("chain-6", overrides)


def test_hopping_normalization_guard():
    with pytest.raises(ConfigError, match="hopping"):
        from_dict({"preset": "chain-6", "model": {"hopping": 2.0}})


def test_sweeps_must_ascend():
    with pytest.raises(ConfigError, match="ascending"):
        from_dict({"preset": "chain-6", "sweeps": {"times": [1.0, 0.5]}})


def test_unknown_experiment_name():
    with pytest.raises(ConfigError, match="unknown experiment"):
        from_dict({"preset": "chain-6", "experiments": ["quantum-supremacy"]})


def test_edges_graph_spec():
    cfg = from_dict(
        {
            "name": "triangle",
            "experiments": [],
            "graph": {"type": "edges", "n_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "dimension": 1},
            "basis": {"sector": 1},
        }
    )
    from bosonlr.experiments import build_graph

    g = build_graph(cfg.graph)
    assert g.n_vertices == 3
    assert g.dist[0, 2] == 1


@pytest.mark.parametrize(
    "section, key",
    [
        ("model", "hoping"),
        ("basis", "sectr"),
        ("thermal", "betta"),
        ("observables", "pair"),
        ("sweeps", "shell"),
        ("deriv", "range"),
        ("tolerances", "kms"),
        ("debug", "dump"),
    ],
)
def test_unknown_nested_keys_rejected(section, key):
    # the deleted sections tolerances and debug are unknown top-level keys
    where, unknown = (section, key) if section in _DEFAULTS else ("config", section)
    match = rf"{where}: unknown keys \['{unknown}'\]"
    with pytest.raises(ConfigError, match=match):
        from_preset("chain-10", {section: {key: 1}})


def test_nested_section_must_be_object():
    with pytest.raises(ConfigError, match="thermal: must be a JSON object"):
        from_preset("chain-10", {"thermal": 3})


def test_sweeps_accept_lr_lambda():
    assert from_preset("chain-10", {"sweeps": {"lr_lambda": 2.0}}).sweeps["lr_lambda"] == 2.0


@pytest.mark.parametrize(
    "section, value, key",
    [
        ("graph", {"lenght": 7}, "lenght"),
        ("graph", {"type": "grid", "dims": [2, 3], "length": 6}, "length"),
        ("graph", {"type": "edges", "n_vertices": 2, "edges": [[0, 1]], "dims": [2]}, "dims"),
        ("initial_state", {"kind": "occupation", "occupaton": [3, 0, 0, 0, 0, 0]}, "occupaton"),
        ("initial_state", {"kind": "gibbs", "occupation": [3, 0, 0, 0, 0, 0]}, "occupation"),
    ],
)
def test_typed_section_keys_checked_per_type(section, value, key):
    with pytest.raises(ConfigError, match=rf"{section}: unknown keys \['{key}'\]"):
        from_preset("chain-6", {section: value})


def test_typed_section_accepts_keys_of_its_type():
    # the chain preset's length under a grid or an edges graph, and the
    # default chain's length under a preset-free edges graph, are inherited
    # keys of another type: not an error, and dropped from the resolved
    # config, which resolves again to the same config
    grid = {"type": "grid", "dims": [2, 3]}
    edges = {"type": "edges", "n_vertices": 3, "edges": [[0, 1], [1, 2]], "dimension": 1}
    occupation = {"kind": "occupation", "occupation": [3, 0, 0, 0, 0, 0]}
    for cfg, section, want in (
        (from_preset("chain-6", {"graph": grid}), "graph", grid),
        (from_preset("chain-6", {"graph": edges}), "graph", edges),
        (from_dict({"graph": edges, "basis": {"sector": 1}}), "graph", edges),
        (from_preset("chain-6", {"initial_state": occupation}), "initial_state", occupation),
        (from_preset("chain-6", {"initial_state": {"kind": "gibbs"}}), "initial_state", {"kind": "gibbs"}),
    ):
        assert cfg.to_dict()[section] == want
        assert from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.mark.parametrize(
    "section, value, match",
    [
        ("graph", {"type": "ring"}, "graph.type: must be one of"),
        ("graph", [7], "graph: must be a JSON object"),
        ("initial_state", {"kind": "vacuum"}, "initial_state.kind: must be one of"),
        ("initial_state", {"kind": "occupation"}, "initial_state.occupation: required"),
        ("initial_state", "gibbs", "initial_state: must be a JSON object"),
    ],
)
def test_typed_section_tag_and_required_keys(section, value, match):
    with pytest.raises(ConfigError, match=match):
        from_preset("chain-6", {section: value})
