"""Topology construction, orbital element assignment, altitude sizing."""
import hashlib
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from frosette import constellation
from frosette.config import (
    DEFAULT_CONSTANTS, TWO_PI, PhysicalConstants, config_from_dict, config_to_dict,
)
from frosette.constellation import (
    MAX_SATELLITES,
    OrbitState,
    Topology,
    build,
    format_address,
    ground_to_space_rtt,
    min_altitude_coverage,
    min_altitude_stability,
    orbit_state,
    ring_neighbor,
    ring_table,
    sat_id,
    stability_report,
    address_to_elements,
    topology_to_dict,
    topology_to_json,
    validate_address,
)
from frosette.errors import ConfigError, DomainError, InfeasibleError, RangeError
from frosette.geom import central_angles, great_circle_range, sat_position_eci
from conftest import make_config


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (8, 1), (5, 2)])
def test_build_counts_and_degrees(n, k):
    cfg = make_config(n, 1, k)
    topo = build(cfg)
    assert len(topo.nodes) == n ** (k + 1)
    assert len(topo.edges) == (k + 1) * n ** (k + 1)
    assert len(set(topo.nodes)) == len(topo.nodes)
    deg = {node: 0 for node in topo.nodes}
    seen = set()
    for a, b, layer in topo.edges:
        deg[a] += 1
        deg[b] += 1
        assert 0 <= layer <= k
        key = (min(a, b), max(a, b), layer)
        assert key not in seen, f"duplicate edge {key}"
        seen.add(key)
    assert set(deg.values()) == {2 * (k + 1)}
    # edges share the node tuples: endpoint b of node i's layer-j edge is the
    # ring neighbour, found in nodes by mixed-radix index
    index = {node: i for i, node in enumerate(topo.nodes)}
    for e, (a, b, layer) in enumerate(topo.edges):
        assert a is topo.nodes[e // (k + 1)] and layer == e % (k + 1)
        assert b == ring_neighbor(a, layer, +1, n)
        assert b is topo.nodes[index[b]]


@pytest.mark.parametrize("n,k", [(5, 0), (4, 1), (3, 2), (4, 3)])
def test_ring_table_is_neighbors_and_edge_ids(n, k):
    # row i of the table is node i's ring neighbours by id, layers ascending
    # and +1 before -1, and edge id e names topo.edges[e] from both of its ends
    cfg = make_config(n, 1, k)
    topo = build(cfg)
    nbr, edge = ring_table(cfg)
    assert nbr.shape == edge.shape == (cfg.n_sats, 2 * (k + 1))
    for i, node in enumerate(topo.nodes):
        assert [topo.nodes[j] for j in nbr[i]] == [
            ring_neighbor(node, layer, d, n) for layer in range(k + 1) for d in (1, -1)
        ]
    for e, (a, b, layer) in enumerate(topo.edges):
        assert (edge[sat_id(a, n), 2 * layer], edge[sat_id(b, n), 2 * layer + 1]) == (e, e)
    adj_nbr, adj_edge = topo.adjacency()  # the same arrays, not a copy
    assert adj_nbr is nbr and adj_edge is edge
    # the table depends on N and k only
    assert ring_table(make_config(n, 0, k, altitude_km=900.0))[0] is nbr


def test_topology_builds_nodes_and_edges_on_first_use():
    cfg = make_config(4, 1, 1)
    topo = build(cfg)
    assert topo == Topology(cfg)
    assert not {"nodes", "edges"} & set(vars(topo))
    assert topo.edges is topo.edges and topo.edges[0][0] is topo.nodes[0]


def test_shared_config_arrays_are_read_only():
    cfg = make_config(4, 1, 1)
    state = orbit_state(cfg)
    for array in (*ring_table(cfg), *state._trig):
        with pytest.raises(ValueError):
            array[0] = 0


def test_ring_neighbor_and_adjacency():
    cfg = make_config(8, 6, 1)
    assert ring_neighbor((7, 3), 0, +1, 8) == (0, 3)
    assert ring_neighbor((0, 0), 1, -1, 8) == (0, 7)
    topo = build(cfg)
    # layers ascending, +1 before -1 within a layer
    row = ring_table(cfg)[0][sat_id((2, 5), 8)]
    assert [topo.nodes[j] for j in row] == [(3, 5), (1, 5), (2, 6), (2, 4)]
    assert ((2, 5), (3, 5), 0) in topo.edges
    assert not any({a, b} == {(2, 5), (4, 5)} for a, b, _layer in topo.edges)


def test_validate_address():
    cfg = make_config(8, 6, 1)
    with pytest.raises(RangeError):
        validate_address((1,), cfg)
    with pytest.raises(RangeError):
        validate_address((1, 8), cfg)
    validate_address((7, 0), cfg)


def test_address_to_elements_formula():
    cfg = make_config(8, 6, 1)
    el = address_to_elements((2, 3), cfg)
    assert el.raan_rad == pytest.approx(math.pi / 2)
    assert el.phase0_rad == pytest.approx((TWO_PI * 6 * 2 / 8 + TWO_PI * 3 / 8) % TWO_PI)
    assert el.period_s == pytest.approx(cfg.consts.sidereal_day_s / 2)
    assert el.orbit_radius_km == pytest.approx(cfg.consts.earth_radius_km + 1200.0)
    assert el.inclination_rad == cfg.inclination_rad
    # deeper digits refine the phase by powers of N
    cfg3 = make_config(4, 1, 2)
    el3 = address_to_elements((1, 2, 3), cfg3)
    want = TWO_PI * (1 * 1 / 4 + 2 / 4 + 3 / 16) % TWO_PI
    assert el3.phase0_rad == pytest.approx(want)


@pytest.mark.parametrize("n,m,k", [(8, 6, 1), (7, 3, 2), (5, 4, 3)])
def test_orbit_state_shares_the_address_phase(n, m, k):
    # one phase formula: the state's arrays are the cos/sin of the very
    # angles address_to_elements returns, row sat_id(addr) for each address
    cfg = make_config(n, m, k)
    topo, state = build(cfg), orbit_state(cfg)
    assert orbit_state(cfg) is state
    cp, sp, ca, sa = state._trig
    assert [sat_id(a, n) for a in topo.nodes] == list(range(cfg.n_sats))
    for addr in topo.nodes:
        el, i = address_to_elements(addr, cfg), sat_id(addr, n)
        assert 0.0 <= el.phase0_rad < TWO_PI
        assert cp[i] == np.cos(el.phase0_rad) and sp[i] == np.sin(el.phase0_rad)
        assert ca[i] == np.cos(el.raan_rad) and sa[i] == np.sin(el.raan_rad)
    assert state.unit_positions(123.0).shape == (cfg.n_sats, 3)
    assert state.unit_positions(np.array([[0.0], [1.0]]), [0, 1, 2]).shape == (2, 3, 3)


def test_size_guard_refuses_before_allocating(monkeypatch):
    # 64^4 = 16,777,216 satellites: the size is only computed. With the
    # enumeration and numpy stubbed out, a guard that let the config through
    # would fail here instead of allocating.
    cfg = make_config(64, 1, 3)
    assert cfg.n_sats > MAX_SATELLITES >= 64 * 65_536
    monkeypatch.setattr(constellation, "itertools", None)
    monkeypatch.setattr(constellation, "np", None)
    with pytest.raises(DomainError, match="16777216"):
        build(cfg)
    with pytest.raises(DomainError):
        OrbitState(cfg)
    with pytest.raises(DomainError):
        orbit_state(cfg)


def test_layer_edges_differ_in_one_digit():
    cfg = make_config(4, 1, 2)
    topo = build(cfg)
    for a, b, layer in topo.edges:
        diffs = [j for j in range(3) if a[j] != b[j]]
        assert diffs == [layer]
        assert (a[layer] + 1) % 4 == b[layer]


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(2, 1, 0)
    with pytest.raises(ConfigError):
        make_config(8, 8, 0)
    with pytest.raises(ConfigError):
        make_config(8, 1, -1)
    with pytest.raises(ConfigError):
        make_config(8, 1, 0, incl_deg=0.0)
    with pytest.raises(ConfigError, match="min_elevation_rad must be in"):
        make_config(8, 1, 0, elev_deg=90.0)
    doc = config_to_dict(make_config(8, 1, 0))
    del doc["n"]
    with pytest.raises(ConfigError, match="missing config field: n"):
        config_from_dict(doc)
    for altitude_km in (math.nan, math.inf, -math.inf, 0.0):
        with pytest.raises(ConfigError):
            make_config(8, 1, 0, altitude_km=altitude_km)


@pytest.mark.parametrize(
    "constants",
    [
        {"earth_radius_km": "x"},
        {"earth_radius_km": None},
        {"earth_radius_km": math.nan},
        {"sidereal_day_s": math.inf},
        {"light_speed_km_s": 0.0},
        {"light_speed_km_s": -1.0},
        {"earth_radius_km": -6371.0},
        {"atmosphere_margin_km": -1.0},
        {"atmosphere_margin_km": math.nan},
        {"moon_radius_km": 1737.0},
        [["earth_radius_km", 6371.0]],
    ],
)
def test_config_rejects_bad_constants(constants):
    doc = dict(config_to_dict(make_config(8, 6, 1)), constants=constants)
    with pytest.raises(ConfigError):
        config_from_dict(doc)
    # numbers out of range are rejected however the constants are built
    known = isinstance(constants, dict) and set(constants) <= set(vars(DEFAULT_CONSTANTS))
    if known and all(isinstance(v, float) for v in constants.values()):
        with pytest.raises(ConfigError, match="is not finite|must be finite and"):
            PhysicalConstants(**constants)


@pytest.mark.parametrize("value", ["x", None, True, False])
def test_constants_built_in_python_reject_values_that_are_not_numbers(value):
    # the rule config_from_dict applies to a constants override, not a raw TypeError
    with pytest.raises(ConfigError, match=f"constant earth_radius_km must be a JSON number, got {value!r}"):
        PhysicalConstants(earth_radius_km=value)
    with pytest.raises(ConfigError, match="must be a JSON number"):
        config_from_dict(dict(config_to_dict(make_config(8, 6, 1)), constants={"earth_radius_km": value}))


@pytest.mark.parametrize(
    "field,value",
    [("n", 8.5), ("n", 8.0), ("n", True), ("n", "8"), ("m", 6.9), ("k", 1.2), ("k", None),
     ("altitude_km", "1260"), ("altitude_km", True), ("inclination_deg", [70.0]),
     ("min_elevation_deg", "0"), ("constants", {"earth_radius_km": "6371"}),
     ("constants", {"light_speed_km_s": True}),
     pytest.param("altitude_km", 10 ** 400, id="altitude_km-int-beyond-float")],
)
def test_config_rejects_mistyped_fields(field, value):
    doc = dict(config_to_dict(make_config(8, 6, 1)), **{field: value})
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_config_takes_json_ints_for_float_fields():
    doc = dict(config_to_dict(make_config(8, 6, 1)), altitude_km=1200, inclination_deg=70)
    cfg = config_from_dict(doc)
    assert cfg == make_config(8, 6, 1) and isinstance(cfg.altitude_km, float)


@pytest.mark.parametrize(
    "fields,derived",
    [
        ({"constants": {"sidereal_day_s": 1e-310}}, "omega_earth_rad_s"),
        ({"altitude_km": 1.7e308, "constants": {"earth_radius_km": 1.7e308}}, "orbit_radius_km"),
    ],
)
def test_config_rejects_non_finite_derived_constants(fields, derived):
    doc = dict(config_to_dict(make_config(8, 6, 1)), **fields)
    with pytest.raises(ConfigError, match=f"derived {derived} is not finite"):
        config_from_dict(doc)


def test_config_constants_round_trip():
    doc = dict(
        config_to_dict(make_config(8, 6, 1)),
        constants={"earth_radius_km": 6400, "atmosphere_margin_km": 80.0},
    )
    cfg = config_from_dict(doc)
    assert cfg.consts.earth_radius_km == 6400.0
    assert cfg.consts.atmosphere_margin_km == 80.0
    # the written form lists every constant, a zero margin included
    back = config_to_dict(cfg)
    assert config_from_dict(back) == cfg
    margin_zero = dict(back, constants=dict(back["constants"], atmosphere_margin_km=0.0))
    assert config_from_dict(margin_zero).consts.atmosphere_margin_km == 0.0


# --- altitude sizing ------------------------------------------------------------


def test_min_altitude_coverage_reference_rows():
    # two anchor rows of the published altitude/latency table
    cfg = make_config(8, 1, 1, elev_deg=25.0)
    h = min_altitude_coverage(cfg)
    assert h == pytest.approx(1259.58, rel=5e-4)
    assert ground_to_space_rtt(h, cfg.consts) * 1e3 == pytest.approx(8.40, rel=5e-3)
    cfg16 = make_config(16, 1, 1, elev_deg=25.0)
    assert min_altitude_coverage(cfg16) == pytest.approx(504.83, rel=5e-4)


def test_min_altitude_coverage_elevation_monotone():
    hs = [
        min_altitude_coverage(make_config(8, 1, 1, elev_deg=e)) for e in (0, 10, 25, 40)
    ]
    assert hs == sorted(hs)


@pytest.mark.parametrize("n,elev_deg,reason", [
    (3, 0.0, "3 satellites cannot cover"),  # tan(pi/2) is finite in floats: 1.04e20 km
    (3, 10.0, "3 satellites cannot cover"),
    (4, 25.0, "too steep"),
])
def test_min_altitude_coverage_rejects_rings_too_small(n, elev_deg, reason):
    cfg = make_config(n, 1, 0, elev_deg=elev_deg)
    for floor in (min_altitude_coverage, min_altitude_stability):
        with pytest.raises(InfeasibleError, match=reason):
            floor(cfg)


def test_stability_report_dominates_random_probes():
    cfg = make_config(8, 6, 1)
    rep = stability_report(cfg)
    rng = random.Random(7)
    probe = 0.0
    for _ in range(2000):
        i = rng.randrange(cfg.n)
        t = rng.uniform(0.0, cfg.period_s)
        ei = address_to_elements((i, 0), cfg)
        ej = address_to_elements(((i + 1) % cfg.n, 0), cfg)
        probe = max(
            probe, great_circle_range(sat_position_eci(ei, t), sat_position_eci(ej, t))
        )
    assert rep.r_max_rad >= probe - 1e-9
    # intra-orbit arcs are fixed and must be accounted for
    assert rep.r_max_rad >= TWO_PI / cfg.n - 1e-12
    re = cfg.consts.earth_radius_km
    assert rep.h_stability_km == pytest.approx(
        (1.0 / math.cos(rep.r_max_rad / 2.0) - 1.0) * re
    )
    assert rep.h_min_km == max(rep.h_stability_km, rep.h_coverage_km)
    assert min_altitude_stability(cfg) == rep.h_min_km


def test_stability_floor_honours_atmosphere_margin():
    # a link across r_max clears the earth plus the margin when
    # (Re + h) cos(r_max/2) > Re + margin; a zero margin leaves the floor's bits
    cfg = make_config(8, 6, 1)
    base = stability_report(cfg)
    lifted = stability_report(replace(cfg, consts=replace(cfg.consts, atmosphere_margin_km=80.0)))
    re, half = cfg.consts.earth_radius_km, math.cos(base.r_max_rad / 2.0)
    assert base.h_stability_km == (1.0 / half - 1.0) * re
    assert lifted.r_max_rad == base.r_max_rad
    assert lifted.h_stability_km == pytest.approx(base.h_stability_km + 80.0 / half, rel=1e-12)
    assert (re + lifted.h_stability_km) * half == pytest.approx(re + 80.0, rel=1e-12)
    assert lifted.h_min_km == max(lifted.h_stability_km, lifted.h_coverage_km)


@pytest.mark.parametrize(
    "n, m, k",
    [(4, 2, 1), (4, 2, 2), (4, 2, 3), (6, 3, 0), (6, 3, 1), (6, 3, 2), (6, 3, 3), (12, 6, 1)],
)
def test_stability_report_rejects_antipodal_links(n, m, k):
    # at 90 degrees with m = N/2, layer-0 neighbours meet antipodally; the
    # closed-form sum rounds to either side of 1 (N=12 lands at pi - 3e-8)
    with pytest.raises(InfeasibleError):
        stability_report(make_config(n, m, k, incl_deg=90.0))


def test_stability_report_antipodal_window(monkeypatch):
    # a range within 8 ulps of sin^2(r/2) = 1 is infeasible whichever way the
    # sum rounded; just outside it the floor is finite, if absurd
    cfg = make_config(8, 6, 1)
    monkeypatch.setattr(constellation, "closed_form_range", lambda *a: math.pi - 3.0e-8)
    with pytest.raises(InfeasibleError):
        stability_report(cfg)
    monkeypatch.setattr(constellation, "closed_form_range", lambda *a: math.pi - 1e-6)
    assert 1e10 < stability_report(cfg).h_min_km < math.inf


@pytest.mark.parametrize(
    "n, m, k",
    [(5, 1, 0), (7, 3, 0), (8, 6, 1), (9, 4, 2), (16, 2, 1), (16, 8, 1), (8, 0, 1), (8, 7, 1)],
)
@pytest.mark.parametrize("incl_deg", [40.0, 70.0, 120.0])
def test_stability_report_closed_form_is_the_layer0_range(n, m, k, incl_deg):
    # every layer-0 pair (i, 0, ..., 0) and its +1 neighbour, sampled from
    # first principles 8,192 times a period: the closed form bounds every
    # sample and is the peak they reach
    cfg = make_config(n, m, k, incl_deg=incl_deg)
    rep = stability_report(cfg)
    span, samples = n**k, 8192
    rows = [i * span for i in range(n)] + [(i + 1) % n * span for i in range(n)]
    times = np.arange(samples)[:, None] * cfg.period_s / samples
    p = orbit_state(cfg).unit_positions(times, rows)
    ranges = central_angles(p[:, :n], p[:, n:])
    assert np.all(rep.r_max_closed_form_rad >= ranges - 1e-12)
    assert rep.r_max_closed_form_rad == pytest.approx(float(ranges.max()), abs=1e-6)
    assert rep.r_max_rad >= rep.r_max_closed_form_rad


def test_ground_to_space_rtt():
    c = make_config(8, 1, 0).consts
    assert ground_to_space_rtt(c.light_speed_km_s / 2.0, c) == pytest.approx(1.0)


# --- serialization --------------------------------------------------------------


def test_topology_serialization_round_trip():
    cfg = make_config(4, 1, 1)
    topo = build(cfg)
    doc = topology_to_dict(topo)
    assert doc["config"]["n"] == 4
    assert len(doc["nodes"]) == 16
    assert len(doc["edges"]) == 32
    assert doc["nodes"][0] == "0.0"
    parsed = json.loads(topology_to_json(topo))
    assert parsed == doc
    assert format_address((3, 11, 0)) == "3.11.0"


@pytest.mark.parametrize("cfg,want", [
    (make_config(4, 1, 1), "cc090821f22ea1cb31cf3d50c50ba4c8811edb8461c6d97e7f51fc5e9a4982e0"),
    (make_config(5, 2, 2, incl_deg=45.0),
     "1b15c4f1a90fa0283865d0d61d294cb3b9be0bc1cffbf24a736976cdbc1c70c6"),
])
def test_topology_json_bytes_are_pinned(cfg, want):
    # sha256 of topology_to_json as the per-item topology_to_dict produced it
    assert hashlib.sha256(topology_to_json(build(cfg)).encode()).hexdigest() == want
