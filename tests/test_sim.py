"""Emulation loop: association, delay oracle, traces, determinism."""
import csv
import heapq
import io
import json
import math
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import frosette.sim as sim_module
from frosette.config import TWO_PI
from frosette.constellation import (
    OrbitState, Topology, _orbit_units, address_to_elements, build, orbit_state, ring_table, sat_id,
)
from frosette.errors import ConfigError, DomainError, ParseError, RangeError
from frosette.geom import (
    LatLon,
    central_angles,
    coverage_range,
    great_circle_range,
    ground_unit,
    link_length_delay,
    range_terms,
    sat_position_eci,
    slant_range_km,
    subpoint,
)
from frosette.geocell import GeoCoord, geocoord_to_latlon, locate_point
from frosette.georouting import coverage_check, serving_coord
from frosette.routing import shortest_path
from frosette.sim import (
    MAX_STEPS,
    Scenario,
    TRACE_COLUMNS,
    TraceRecord,
    _edge_delays,
    _min_delays,
    _walk_back,
    _step_times,
    associate,
    delay_oracle,
    link_delay_trace,
    load_scenario,
    path_delay,
    run,
    scenario_from_dict,
    summarize,
    write_trace_csv,
)
from conftest import make_config, ring_graph


def _scenario_doc():
    return {
        "config": {
            "n": 8,
            "m": 6,
            "k": 1,
            "altitude_km": 1200.0,
            "inclination_deg": 70.0,
            "min_elevation_deg": 0.0,
        },
        "window": {"start_s": 0.0, "end_s": 60.0, "step_s": 30.0},
        "endpoints": {
            "a": {"lat_deg": 39.9, "lon_deg": 116.4},
            "b": {"lat_deg": 40.7, "lon_deg": -74.0},
        },
        "experiments": [{"src": "a", "dst": "b"}],
        "seed": 11,
    }


# --- scenario parsing -----------------------------------------------------------


def test_scenario_parse_and_defaults(tmp_path):
    doc = _scenario_doc()
    scn = scenario_from_dict(doc)
    assert scn.seed == 11
    assert scn.experiments == (("a", "b"),)
    assert scn.endpoints["a"].lat_rad == pytest.approx(math.radians(39.9))
    del doc["seed"]
    assert scenario_from_dict(doc).seed == 0
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_scenario_doc()), encoding="utf-8")
    assert load_scenario(str(path)).seed == 11


def test_scenario_env_seed_override(monkeypatch):
    monkeypatch.setenv("FROSETTE_SEED", "777")
    assert scenario_from_dict(_scenario_doc()).seed == 777
    monkeypatch.setenv("FROSETTE_SEED", "abc")
    with pytest.raises(ParseError):
        scenario_from_dict(_scenario_doc())


def test_scenario_rejects_bad_documents():
    doc = _scenario_doc()
    del doc["window"]
    with pytest.raises(ParseError):
        scenario_from_dict(doc)
    doc = _scenario_doc()
    doc["experiments"] = [{"src": "a", "dst": "nowhere"}]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    doc = _scenario_doc()
    doc["window"]["step_s"] = 0.0
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    doc = _scenario_doc()
    doc["window"]["end_s"] = -5.0
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("window", "end_s", math.nan),
        ("window", "start_s", -math.inf),
        ("window", "step_s", math.inf),
        ("window", "step_s", "fast"),
        ("window", "end_s", None),
        ("a", "lat_deg", "x"),
        ("a", "lon_deg", math.nan),
        ("a", "lat_deg", [1.0]),
        ("a", "lat_deg", 95.0),
        ("b", "lat_deg", -90.5),
    ],
)
def test_scenario_rejects_malformed_values(section, key, value):
    doc = _scenario_doc()
    (doc["window"] if section == "window" else doc["endpoints"][section])[key] = value
    with pytest.raises(ParseError):
        scenario_from_dict(doc)


def test_scenario_rejects_mistyped_sections():
    for key, value in (("endpoints", []), ("window", [0, 60, 30]), ("experiments", ["ab"])):
        doc = _scenario_doc()
        doc[key] = value
        with pytest.raises(ParseError):
            scenario_from_dict(doc)


# --- association ------------------------------------------------------------------


def test_associate_matches_brute_force(topo_8_1, cfg_8_1):
    rng = random.Random(271828)
    for _ in range(25):
        p = LatLon(math.asin(2 * rng.random() - 1), rng.uniform(-math.pi, math.pi))
        t = rng.uniform(0.0, cfg_8_1.rho * cfg_8_1.period_s)
        got = associate(p, t, topo_8_1)
        best = min(
            topo_8_1.nodes,
            key=lambda a: great_circle_range(
                subpoint(address_to_elements(a, cfg_8_1), t, cfg_8_1.consts), p
            ),
        )
        assert got == best


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise(topo_8_1, bad, monkeypatch):
    # NaN delays leave every distance NaN, with no path to walk back; the
    # stub proves that no search runs on a non-finite time.
    def unreachable(*args):
        raise AssertionError("search ran on a non-finite time")

    monkeypatch.setattr(sim_module, "_min_delays", unreachable)
    with pytest.raises(RangeError):
        delay_oracle(topo_8_1, bad, (0, 0), (3, 3))
    with pytest.raises(RangeError):
        path_delay([(0, 0), (1, 0)], bad, topo_8_1)
    with pytest.raises(RangeError):
        associate(LatLon(bad, 0.0), 0.0, topo_8_1)
    with pytest.raises(RangeError):
        associate(LatLon(0.0, 0.0), bad, topo_8_1)
    with pytest.raises(RangeError):
        link_delay_trace(((0, 0), (0, 1)), (0.0, bad, 10.0), topo_8_1)
    with pytest.raises(RangeError):
        coverage_check((0, 0), LatLon(0.0, 0.0), bad, topo_8_1.config)
    with pytest.raises(RangeError):
        serving_coord((0, 0), bad, topo_8_1.config)
    with pytest.raises(RangeError):
        LatLon(0.3, bad)
    with pytest.raises(RangeError):
        geocoord_to_latlon(GeoCoord(bad, 0.0), topo_8_1.config)
    with pytest.raises(RangeError):
        subpoint(address_to_elements((0, 0), topo_8_1.config), bad, topo_8_1.config.consts)


@pytest.mark.parametrize("lat_deg", [95.0, -90.5, -200.0])
def test_latitudes_beyond_90_raise(topo_8_1, cfg_cells, lat_deg):
    lat = math.radians(lat_deg)  # a LatLon checks itself when made
    with pytest.raises(RangeError, match="latitude"):
        associate(LatLon(lat, 0.1), 0.0, topo_8_1)
    with pytest.raises(RangeError, match="latitude"):
        coverage_check((0, 0), LatLon(lat, 0.1), 0.0, topo_8_1.config)
    with pytest.raises(RangeError, match="latitude"):
        locate_point(LatLon(lat, 0.1), cfg_cells)


def test_scenario_built_in_python_checks_its_window_and_endpoints(cfg_8_1):
    endpoints = {"a": LatLon(0.7, 2.0), "b": LatLon(0.7, -1.3)}
    with pytest.raises(RangeError, match="time is not finite: nan"):
        Scenario(cfg_8_1, 0.0, math.nan, 30.0, endpoints, (("a", "b"),))
    with pytest.raises(RangeError, match="orbital phase 2\\*pi\\*t/T is not finite"):
        Scenario(cfg_8_1, 0.0, 1e308, 30.0, endpoints, (("a", "b"),))
    with pytest.raises(RangeError, match="finite"):
        Scenario(cfg_8_1, 0.0, 60.0, 30.0, dict(endpoints, a=LatLon(math.nan, 2.0)), (("a", "b"),))


@pytest.mark.parametrize(
    "start,end,step,message",
    [(0.0, 60.0, 0.0, "step_s must be positive"), (0.0, 60.0, -30.0, "step_s must be positive"),
     (60.0, 0.0, 30.0, "window is empty")],
)
def test_bad_windows_raise_one_error_through_both_entry_points(topo_8_1, start, end, step, message):
    endpoints = {"a": LatLon(0.7, 2.0), "b": LatLon(0.7, -1.3)}
    with pytest.raises(ConfigError, match=message):
        Scenario(topo_8_1.config, start, end, step, endpoints, (("a", "b"),))
    with pytest.raises(ConfigError, match=message):
        link_delay_trace(((0, 0), (0, 1)), (start, end, step), topo_8_1)


# --- delay oracle ---------------------------------------------------------------------


def _adjacency_lists(cfg):
    """Per satellite id, [(neighbour id, edge id)] in ``ring_table`` row order:
    the graph that the reference Dijkstra searches."""
    nbr, edge = ring_table(cfg)
    return [list(zip(a, e)) for a, e in zip(nbr.tolist(), edge.tolist())]


def _min_delay_path(adj, delays, src, dst):
    """Dijkstra over node indices; ties break to the smaller index. The oracle
    the fixpoint kernel must match bit for bit."""
    dist = [math.inf] * len(adj)
    prev = [-1] * len(adj)
    done = [False] * len(adj)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        if node == dst:
            break
        done[node] = True
        for nb, e in adj[node]:
            nd = d + delays[e]
            if nd < dist[nb]:
                dist[nb] = nd
                prev[nb] = node
                heapq.heappush(heap, (nd, nb))
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path, dist[dst]


def _nx_min_delay(topo, t, src, dst):
    cfg = topo.config
    g = nx.Graph()
    positions = {
        node: sat_position_eci(address_to_elements(node, cfg), t) for node in topo.nodes
    }
    for a, b, _layer in topo.edges:
        r = great_circle_range(positions[a], positions[b])
        g.add_edge(a, b, weight=link_length_delay(r, cfg.altitude_km, cfg.consts)[1])
    return nx.dijkstra_path_length(g, src, dst)


def test_delay_oracle_matches_networkx():
    rng = random.Random(1618)
    for n, m, k in [(8, 6, 1), (4, 2, 2), (3, 1, 3)]:
        topo = build(make_config(n, m, k))
        graph = ring_graph(topo)
        for _ in range(8):
            src = tuple(rng.randrange(n) for _ in range(k + 1))
            dst = tuple(rng.randrange(n) for _ in range(k + 1))
            t = rng.uniform(0.0, 5000.0)
            path, delay = delay_oracle(topo, t, src, dst)
            assert path[0] == src and path[-1] == dst
            assert all(b in graph[a] for a, b in zip(path, path[1:]))
            assert delay == pytest.approx(_nx_min_delay(topo, t, src, dst), rel=1e-9)
            assert delay == pytest.approx(path_delay(path, t, topo), rel=1e-9)
        same = (1,) * (k + 1)
        assert delay_oracle(topo, 0.0, same, same) == ([same], 0.0)


@pytest.mark.parametrize("n, m, k", [(16, 8, 3), (5, 3, 2), (6, 0, 1), (7, 6, 1), (9, 4, 0)])
def test_closed_form_edge_delays_equal_the_position_path(n, m, k):
    """Every edge's closed-form delay is the chord between the position
    kernel's unit vectors, wrap edges included, out to t = 1e7 s."""
    cfg = make_config(n, m, k)
    tails = np.arange(cfg.n_sats).repeat(k + 1)
    heads = ring_table(cfg)[0][:, 0::2].ravel()
    times = [*np.linspace(0.0, cfg.rho * cfg.period_s, 14).tolist(), 1e7 - 0.3, 1e7 + 1234.5]
    for t in times:
        pos = orbit_state(cfg).unit_positions(t)
        ranges = central_angles(pos[tails], pos[heads])
        expected = link_length_delay(ranges, cfg.altitude_km, cfg.consts)[1]
        np.testing.assert_allclose(_edge_delays(cfg, t), expected, rtol=1e-12, atol=0.0)


def test_closed_form_edge_delays_are_zero_where_satellites_meet():
    # polar m=0 orbits all cross the poles together; rounding takes sin^2(r/2) below 0 there
    cfg = make_config(8, 0, 2, incl_deg=90.0)
    delays = _edge_delays(cfg, np.linspace(0.0, cfg.period_s, 2001)[:, None])
    assert np.isfinite(delays).all() and delays.min() == 0.0


def _per_edge_link_terms(cfg):
    """(K, D*cos(phi), D*sin(phi)) of every ring_table edge from ``range_terms``
    of its own tail and +1 head: the per-edge reference for the link classes."""
    half = cfg.n_sats // 2
    heads = ring_table(cfg)[0][:, 0::2]  # row i: the heads of i's edges
    s0, phase = _orbit_units(np.arange(cfg.n_sats), cfg)
    steps = np.stack([phase[heads] - phase[:, None], (s0[heads] - s0[:, None]) * cfg.n**cfg.k])
    du, draan = (steps + half) % cfg.n_sats - half
    k, d = range_terms(du, draan, cfg.n_sats, cfg.inclination_rad)
    phi = TWO_PI * ((phase[heads] + phase[:, None]) % cfg.n_sats) / cfg.n_sats
    return tuple(a.ravel() for a in (k, d * np.cos(phi), d * np.sin(phi)))


@pytest.mark.parametrize(
    "n, m, k, incl", [(16, 2, 1, 70.0), (16, 8, 3, 70.0), (5, 3, 2, 70.0), (7, 6, 1, 70.0),
                      (9, 4, 0, 70.0), (8, 0, 2, 90.0)])
def test_edge_delays_equal_the_per_edge_closed_form_bit_for_bit(n, m, k, incl):
    """Pricing once per link class changes no bit of any edge delay, out to
    t = 1e7 s. The terms are equal by value only: a class may hold +0.0 where
    an edge of it held -0.0, which leaves every sum unchanged."""
    cfg = make_config(n, m, k, incl_deg=incl)
    const, dc, ds = _per_edge_link_terms(cfg)
    cls, terms = orbit_state(cfg).link_terms
    for want, got in zip((const, dc, ds), terms):
        assert np.array_equal(got[cls], want)
    scale = 2.0 * (cfg.consts.earth_radius_km + cfg.altitude_km) / cfg.consts.light_speed_km_s
    column = np.array([*np.linspace(0.0, cfg.period_s, 5), 1e7 - 0.3, 1e7])[:, None]
    for t in (0.0, 1234.5, 1e7, column):
        theta = 4.0 * math.pi * t / cfg.period_s
        want = scale * np.sqrt(np.maximum(const + dc * np.cos(theta) - ds * np.sin(theta), 0.0))
        got = _edge_delays(cfg, t)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "n, m, k", [(8, 6, 1), (5, 3, 2), (4, 1, 3), (16, 8, 1), (16, 8, 3), (16, 2, 1)])
def test_link_classes_are_a_few_closed_forms_per_layer(n, m, k):
    """On every config of test_delay_oracle_equals_dijkstra, and sim-bjny's:
    layer 0 has one (K, D) and only phi varies; a layer >= 1 link keeps its
    length (D = 0), with one K on layer 1 and at most two (regular and wrap)
    on each deeper layer."""
    cfg = make_config(n, m, k)
    cls, (const, dc, ds) = orbit_state(cfg).link_terms
    for layer, of_layer in enumerate(cls.reshape(-1, k + 1).T):
        c = np.unique(of_layer)
        if layer == 0:
            amplitude = np.hypot(dc[c], ds[c])
            assert len(set(const[c])) == 1 and amplitude.min() > 0.0
            np.testing.assert_allclose(amplitude, amplitude[0], rtol=1e-14, atol=0.0)
        else:
            assert (dc[c] == 0.0).all() and (ds[c] == 0.0).all()
            assert len(set(const[c])) <= (1 if layer == 1 else 2)
    if (n, m, k) == (16, 2, 1):
        assert len(const) <= 12


# README "Link delays": building the link classes takes at most this many bytes per edge
LINK_CLASS_BYTES_PER_EDGE = 24


@pytest.mark.parametrize("n, m, k", [(8, 6, 3), (16, 8, 3)])
def test_link_classes_build_within_their_bytes_per_edge(n, m, k):
    cfg = make_config(n, m, k)
    state = OrbitState(cfg)  # its own, so its classes are built here
    tracemalloc.start()
    try:
        state.link_terms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LINK_CLASS_BYTES_PER_EDGE * cfg.n_sats * (k + 1)


def _random_pairs(topo, rng, count):
    n, width = topo.config.n, topo.config.k + 1
    for _ in range(count):
        yield (tuple(rng.randrange(n) for _ in range(width)),
               tuple(rng.randrange(n) for _ in range(width)), rng.uniform(0.0, 20000.0))


@pytest.mark.parametrize(
    "n, m, k, pairs", [(8, 6, 1, 20), (5, 3, 2, 20), (4, 1, 3, 20), (16, 8, 1, 20), (16, 8, 3, 2)]
)
def test_delay_oracle_equals_dijkstra(n, m, k, pairs):
    """The fixpoint kernel's paths and delays are Dijkstra's, bit for bit."""
    topo = build(make_config(n, m, k))
    adj = _adjacency_lists(topo.config)
    for src, dst, t in _random_pairs(topo, random.Random(n * 100 + k), pairs):
        delays = _edge_delays(topo.config, t)
        si, di = sat_id(src, n), sat_id(dst, n)
        path, delay = _min_delay_path(adj, delays.tolist(), si, di)
        assert _min_delays(delays[None], [si], topo.config)[0, di] == delay  # before any walk
        assert delay_oracle(topo, t, src, dst) == ([topo.nodes[i] for i in path], delay)


def test_delay_oracle_builds_no_address_list_or_positions(monkeypatch):
    # it names the path's satellites from their ids, and prices links without positions
    cfg = make_config(6, 1, 2, altitude_km=987.6)  # no other test builds this orbit state
    topo = build(cfg)
    path, _ = delay_oracle(topo, 345.6, (0, 1, 2), (3, 4, 5))
    assert "nodes" not in vars(topo) and "_trig" not in vars(orbit_state(cfg))
    assert [type(d) for a in path for d in a] == [int] * 3 * len(path)  # as validate_address needs
    # associate and run name their satellites from their ids too
    served = associate(LatLon(0.3, 1.2), 345.6, topo)
    assert "nodes" not in vars(topo) and [type(d) for d in served] == [int] * 3
    built = []
    monkeypatch.setattr(sim_module, "build", lambda cfg: built.append(build(cfg)) or built[-1])
    records, _ = run(_block_scenario(6, 1, 2, 4))
    assert len(built) == 1 and "nodes" not in vars(built[0])
    assert [type(d) for r in records for d in r.src_sat + r.dst_sat] == [int] * 6 * len(records)


def test_delay_oracle_raises_where_zero_delay_links_tie():
    # polar m=0 orbits meet at t = 0: equal distances joined by zero-delay links
    # would walk 0 -> 8 -> 16 -> 80 -> 16 -> ... forever; M steps end the walk
    topo = build(make_config(8, 0, 2, incl_deg=90.0))
    with pytest.raises(DomainError, match="ambiguous"):
        delay_oracle(topo, 0.0, topo.nodes[148], topo.nodes[0])


@pytest.mark.parametrize("n, k", [(8, 1), (5, 2), (4, 3), (6, 0)])
@pytest.mark.parametrize("weights", ["uniform", "small-integers"])
def test_walk_back_follows_dijkstras_tie_rule(n, k, weights):
    """Where many paths tie, the walk back still picks Dijkstra's: the
    predecessor is the smallest (distance, id) among the tight neighbours."""
    cfg = make_config(n, 1, k)
    adj = _adjacency_lists(cfg)
    rng = random.Random(n + 10 * k)
    edges = cfg.n_sats * (k + 1)
    rows = [[1.0] * edges if weights == "uniform" else [float(rng.randint(1, 3)) for _ in range(edges)]
            for _ in range(6)]
    sources = [rng.randrange(cfg.n_sats) for _ in rows]
    dist = _min_delays(np.array(rows), sources, cfg)
    for delays, src, row in zip(rows, sources, dist):
        dsts = np.arange(cfg.n_sats)
        paths = [[dst] for dst in dsts.tolist()]  # every destination's walk, all in one call
        for at, v in _walk_back(row[None].repeat(len(dsts), 0), np.array([delays] * len(dsts)),
                                np.full(len(dsts), src), dsts, ring_table(cfg)):
            for g, node in zip(at.tolist(), v.tolist()):
                paths[g].append(node)
        for dst, walked in zip(dsts.tolist(), paths):
            path, delay = _min_delay_path(adj, delays, src, dst)
            assert row[dst] == delay
            assert walked[::-1] == path


def _check_hops_back(cfg, delays, sources, dsts):
    """The walk's hops on row g to each of dsts[g], all in one call, against
    the hop counts of Dijkstra's paths."""
    adj = _adjacency_lists(cfg)
    dist = _min_delays(delays, sources, cfg)
    at = np.repeat(np.arange(len(sources)), [len(d) for d in dsts])
    ends = np.concatenate(dsts)
    got = np.zeros(len(ends), dtype=int)
    for rows, _ in _walk_back(dist[at], delays[at], np.array(sources)[at], ends, ring_table(cfg)):
        got[rows] += 1
    want = [len(_min_delay_path(adj, delays[g].tolist(), sources[g], dst)[0]) - 1
            for g, row in enumerate(dsts) for dst in row]
    assert got.tolist() == want


@pytest.mark.parametrize("n, k", [(8, 1), (5, 2), (4, 3), (6, 0)])
@pytest.mark.parametrize("weights", ["uniform", "small-integers"])
def test_hops_back_follows_dijkstras_tie_rule(n, k, weights):
    """The array walk, every row and destination at once, counts the hops of
    the path Dijkstra takes where many paths tie."""
    cfg = make_config(n, 1, k)
    rng = random.Random(n + 10 * k)
    edges = cfg.n_sats * (k + 1)
    rows = [[1.0] * edges if weights == "uniform" else [float(rng.randint(1, 3)) for _ in range(edges)]
            for _ in range(6)]
    sources = [rng.randrange(cfg.n_sats) for _ in rows]
    _check_hops_back(cfg, np.array(rows), sources, [np.arange(cfg.n_sats)] * len(rows))


def test_hops_back_at_paper_scale():
    # N=16, k=3: 65,536 satellites under closed-form delays at two instants
    cfg = make_config(16, 8, 3)
    rng = random.Random(1603)
    delays = _edge_delays(cfg, np.array([[rng.uniform(0.0, 20000.0)] for _ in range(2)]))
    sources = [rng.randrange(cfg.n_sats) for _ in range(2)]
    dsts = [np.array([src] + [rng.randrange(cfg.n_sats) for _ in range(2)]) for src in sources]
    _check_hops_back(cfg, delays, sources, dsts)


def test_min_delays_stop_on_nan_delays():
    """NaN delays never converge: the rounds stop at Bellman-Ford's bound."""
    cfg = make_config(4, 1, 1)
    delays = np.full((1, cfg.n_sats * (cfg.k + 1)), np.nan)
    assert np.isnan(_min_delays(delays, [0], cfg)[0, 1:]).all()


def _group(cfg, rng, g, times=()):
    """(G, E) closed-form delays at the given times, then random ones, and G random sources."""
    times = list(times) + [rng.uniform(0.0, 20000.0) for _ in range(g - len(times))]
    return _edge_delays(cfg, np.array(times)[:, None]), [rng.randrange(cfg.n_sats) for _ in times]


@pytest.mark.parametrize(
    "n, m, k, incl", [(6, 1, 0, 70.0), (8, 6, 1, 70.0), (5, 3, 2, 70.0), (8, 0, 2, 90.0), (4, 1, 3, 70.0)]
)
def test_bounded_kernel_equals_the_capped_unbounded_one_bit_for_bit(n, m, k, incl):
    """Each row's bound caps its distances and changes nothing below it: at 0,
    at exactly a node's distance, just above it, between, past every node and
    at infinity; (8, 0, 2) is polar, its satellites meeting at t = 0."""
    cfg = make_config(n, m, k, incl_deg=incl)
    rng = random.Random(7 * n + k)
    delays, sources = _group(cfg, rng, 12, times=[0.0])
    unbounded = _min_delays(delays, sources, cfg)
    far = unbounded.max(axis=1)
    picked = unbounded[np.arange(12), [rng.randrange(cfg.n_sats) for _ in range(12)]]
    bound = np.concatenate([
        [0.0, np.inf, 2.0 * far[2]], picked[3:6], np.nextafter(picked[6:9], np.inf),
        far[9:] * [0.25, 0.5, 0.75],
    ])
    got = _min_delays(delays, sources, cfg, bound)
    assert got.tobytes() == np.minimum(bound[:, None], unbounded).tobytes()


@pytest.mark.parametrize("n, m, k", [(8, 6, 1), (5, 3, 2), (16, 8, 1)])
def test_rows_that_settle_in_different_rounds_equal_each_row_alone(n, m, k):
    """Rows leave the arrays as they settle; the rest go on to the same
    values as each row run by itself, with a scalar bound and with its own."""
    cfg = make_config(n, m, k)
    rng = random.Random(n + k)
    delays, sources = _group(cfg, rng, 9)
    far = _min_delays(delays, sources, cfg).max(axis=1)
    bound = far * np.linspace(0.0, 1.25, 9)  # 0 settles in one round, the rest later
    bound[4] = np.inf
    got = _min_delays(delays, sources, cfg, bound)
    for g in range(9):
        alone = _min_delays(delays[g:g + 1], sources[g:g + 1], cfg, bound[g])
        assert got[g].tobytes() == alone[0].tobytes()


def _walked(dist, delays, src, dst, cfg):
    """Every step of :func:`_walk_back`, or the DomainError it ends in."""
    try:
        walk = _walk_back(dist, delays, src, dst, ring_table(cfg))
        return [(rows.tolist(), v.tolist()) for rows, v in walk]
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "n, m, k, incl",
    [(6, 1, 0, 70.0), (8, 6, 1, 70.0), (5, 3, 2, 70.0), (4, 1, 3, 70.0), (7, 2, 1, 70.0), (8, 0, 2, 90.0)],
)
def test_goal_start_gives_the_per_row_bounds_oracle_bit_for_bit(n, m, k, incl):
    """Starting each node at the F-Rosette price less its lower bound to dst
    leaves the destination's distance and the walk back as the per-row bound
    leaves them, on 64 random rows at random times; (8, 0, 2) is polar."""
    cfg = make_config(n, m, k, incl_deg=incl)
    topo, rng = build(cfg), random.Random(13 * n + k)
    times = np.array([[rng.uniform(0.0, 20000.0)] for _ in range(64)])
    src = np.array([rng.randrange(cfg.n_sats) for _ in times])
    dst = np.array([rng.randrange(cfg.n_sats) for _ in times])
    delays, rows = _edge_delays(cfg, times), np.arange(64)
    price, _ = sim_module._frosette_prices(delays, src, dst, topo, topo.nodes, {})
    bounded = _min_delays(delays, src, cfg, np.nextafter(price, np.inf))
    goal = _min_delays(delays, src, cfg, sim_module._goal_start(delays, price, dst, cfg))
    assert goal[rows, dst].tobytes() == bounded[rows, dst].tobytes()
    assert _walked(goal, delays, src, dst, cfg) == _walked(bounded, delays, src, dst, cfg)
    assert (goal <= bounded).all() and (goal < bounded).any()  # the start cuts below the bound


@pytest.mark.parametrize("n, k", [(8, 1), (5, 2), (4, 3), (6, 0)])
@pytest.mark.parametrize("weights", ["uniform", "small-integers"])
def test_kernel_is_exact_below_a_consistent_start_and_at_most_it_elsewhere(n, k, weights):
    """Where many paths tie, a goal start (consistent: it falls by less than
    a link's delay across the link) leaves every node whose true delay lies
    below start * (1 - sigma) at its unbounded value, and no node but the
    source above its start; prices from the destination's own distance up."""
    cfg = make_config(n, 1, k)
    rng = random.Random(n + 10 * k)
    edges = cfg.n_sats * (k + 1)
    delays = np.array([[1.0] * edges if weights == "uniform" else
                       [float(rng.randint(1, 3)) for _ in range(edges)] for _ in range(6)])
    sources = [rng.randrange(cfg.n_sats) for _ in delays]
    dst = np.array([rng.randrange(cfg.n_sats) for _ in delays])
    unbounded = _min_delays(delays, sources, cfg)
    price = unbounded[np.arange(6), dst] * [1.0, 1.0, 1.0, 1.25, 2.0, 3.0]
    goal = sim_module._goal_start(delays, price, dst, cfg)
    got, start = _min_delays(delays, sources, cfg, goal), goal.reshape(-1, 6).T  # both (G, M)
    below = unbounded < start * (1.0 - sim_module._SLACK)
    assert below.sum() > 6  # more than the sources
    assert got[below].tobytes() == unbounded[below].tobytes()
    others = np.ones_like(below)
    others[np.arange(6), sources] = False
    assert (got[others] <= start[others]).all() and (got[~others] == 0.0).all()


@pytest.mark.parametrize(
    "n, m, k, incl", [(6, 1, 0, 70.0), (8, 6, 1, 70.0), (5, 3, 2, 70.0), (8, 0, 2, 90.0), (4, 1, 3, 70.0)]
)
def test_frosette_prices_are_the_path_order_sum_of_each_steps_edge_delays(n, m, k, incl):
    """Each row's price is a scalar sum, in path order, of the edge delays at
    its own time along shortest_path's hops, bit for bit; (8, 0, 2) is polar,
    its satellites meeting at t = 0."""
    cfg = make_config(n, m, k, incl_deg=incl)
    topo, rng = build(cfg), random.Random(11 * n + k)
    edge_of = {}
    for e, (a, b, _layer) in enumerate(topo.edges):
        edge_of[a, b] = edge_of[b, a] = e
    times = [0.0] + [rng.uniform(0.0, 20000.0) for _ in range(11)]
    src = np.array([rng.randrange(cfg.n_sats) for _ in times])
    dst = np.array([rng.randrange(cfg.n_sats) for _ in times])
    dst[3], src[5:8], dst[5:8] = src[3], src[4], dst[4]  # a zero-hop row; rows sharing a pair
    price, hops = sim_module._frosette_prices(
        _edge_delays(cfg, np.array(times)[:, None]), src, dst, topo, topo.nodes, {})
    want, want_hops = [], []
    for t, s, d in zip(times, src.tolist(), dst.tolist()):
        delays, path = _edge_delays(cfg, t).tolist(), shortest_path(topo.nodes[s], topo.nodes[d], topo)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += delays[edge_of[a, b]]
        want.append(total)
        want_hops.append(len(path) - 1)
    assert price.tobytes() == np.array(want).tobytes()
    assert hops.tolist() == want_hops
    assert want_hops[3] == 0 and len(set(want_hops)) > 2


def test_run_finds_each_satellite_pairs_route_once(monkeypatch):
    # 4 steps per oracle group at 64 satellites, so routes carry over between groups
    monkeypatch.setattr(sim_module, "_GROUP_SAT_STEPS", 4 * 64)
    calls = []

    def counted(src, dst, topo):
        calls.append((src, dst))
        return shortest_path(src, dst, topo)

    monkeypatch.setattr(sim_module, "shortest_path", counted)
    records, _ = run(_block_scenario(8, 6, 1, 40, step_s=120.0))
    pairs = {(r.src_sat, r.dst_sat) for r in records}
    assert len(pairs) > 3  # handoffs give the window new pairs in later groups
    assert sorted(calls) == sorted(pairs)


def test_path_delay_sums_hop_delays(topo_8_1, cfg_8_1):
    path = [(0, 0), (1, 0), (1, 1)]
    t = 333.0
    total = path_delay(path, t, topo_8_1)
    manual = 0.0
    for a, b in zip(path, path[1:]):
        pa = sat_position_eci(address_to_elements(a, cfg_8_1), t)
        pb = sat_position_eci(address_to_elements(b, cfg_8_1), t)
        manual += link_length_delay(
            great_circle_range(pa, pb), cfg_8_1.altitude_km, cfg_8_1.consts
        )[1]
    assert total == pytest.approx(manual, rel=1e-12)
    assert path_delay([(0, 0)], t, topo_8_1) == 0.0


# --- link delay traces -------------------------------------------------------------------


def test_step_times_refuse_more_than_max_steps_before_allocating():
    assert len(_step_times(0.0, MAX_STEPS - 1.0, 1.0)) == MAX_STEPS
    for end, step in ((float(MAX_STEPS), 1.0), (1e300, 1e-300), (1e308, 1e-310)):
        with pytest.raises(DomainError, match="steps"):
            _step_times(0.0, end, step)


def test_link_delay_trace_window_and_errors(topo_8_1, cfg_8_1):
    edge = ((0, 0), (0, 1))
    series = link_delay_trace(edge, (0.0, 100.0, 10.0), topo_8_1)
    assert len(series) == 11
    assert [t for t, _ in series] == pytest.approx(list(range(0, 101, 10)))
    # samples sit at start + i*step: no accumulated rounding at the window's end
    series = link_delay_trace(edge, (0.0, 1.0, 0.1), topo_8_1)
    assert len(series) == 11
    assert series[-1][0] == 1.0
    with pytest.raises(RangeError):
        link_delay_trace(((0, 0), (2, 0)), (0.0, 1.0, 1.0), topo_8_1)
    with pytest.raises(ConfigError):
        link_delay_trace(edge, (0.0, 1.0, 0.0), topo_8_1)
    with pytest.raises(ConfigError):
        link_delay_trace(edge, (1.0, 0.0, 1.0), topo_8_1)


def test_intra_orbit_delay_constant(topo_8_1, cfg_8_1):
    series = link_delay_trace(
        ((3, 2), (3, 3)), (0.0, cfg_8_1.period_s, cfg_8_1.period_s / 50), topo_8_1
    )
    delays = [d for _, d in series]
    assert (max(delays) - min(delays)) / max(delays) < 1e-12


def test_intra_orbit_delay_constant_at_paper_depth():
    """Criterion 10 at N=16, k=3: deepest-layer links span a 2*pi/N^3 arc."""
    cfg = make_config(16, 8, 3)
    topo = build(cfg)
    rng = random.Random(4096)
    deepest = [
        (a, b) for a, b, layer in topo.edges if layer == cfg.k and a[cfg.k] != cfg.n - 1
    ]
    for edge in rng.sample(deepest, 6):
        series = link_delay_trace(edge, (0.0, cfg.period_s, cfg.period_s / 64), topo)
        delays = [d for _, d in series]
        assert len(delays) == 65
        assert (max(delays) - min(delays)) / max(delays) <= 1e-12, edge


# --- the run loop ---------------------------------------------------------------------------


def test_run_shape_and_determinism():
    scn = scenario_from_dict(_scenario_doc())
    records, summary = run(scn)
    assert len(records) == 3  # t = 0, 30, 60
    assert [r.t for r in records] == [0.0, 30.0, 60.0]
    for r in records:
        assert r.experiment == "a->b"
        assert r.stretch >= 1.0 - 1e-12
        assert r.oracle_delay_s <= r.frosette_delay_s + 1e-15
        assert r.frosette_hops >= r.oracle_hops >= 0
    assert records[0].handoff is False
    again, summary2 = run(scn)
    assert again == records
    assert summary2 == summary
    assert summary["seed"] == 11
    assert summary["records"] == 3
    assert summary["config"]["n"] == 8
    exp = summary["experiments"]["a->b"]
    assert exp["records"] == 3
    assert exp["stretch_median"] >= 1.0


def test_summarize_percentiles():
    scn = scenario_from_dict(_scenario_doc())
    records, _ = run(scn)
    doc = summarize(records, scn)
    stretches = sorted(r.stretch for r in records)
    assert doc["stretch_median"] == pytest.approx(stretches[1])
    assert doc["stretch_max"] == pytest.approx(stretches[-1])


def test_trace_csv_round_trip():
    scn = scenario_from_dict(_scenario_doc())
    records, _ = run(scn)
    buf = io.StringIO()
    write_trace_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == len(records) + 1
    # repr round-trip keeps delays exact
    assert float(rows[1][3]) == records[0].frosette_delay_s
    assert rows[1][7].count(".") == 1  # dotted satellite address


def test_handoffs_counted_over_long_window():
    doc = _scenario_doc()
    doc["window"] = {"start_s": 0.0, "end_s": 3000.0, "step_s": 100.0}
    records, summary = run(scenario_from_dict(doc))
    # serving satellites must change at least once over 50 minutes
    assert summary["experiments"]["a->b"]["handoffs"] > 0
    flips = sum(
        1
        for a, b in zip(records, records[1:])
        if (a.src_sat, a.dst_sat) != (b.src_sat, b.dst_sat)
    )
    assert summary["experiments"]["a->b"]["handoffs"] == flips


def _leg_s(r, cfg):
    """Ground-to-satellite delay across central angle r."""
    return slant_range_km(r, cfg.altitude_km, cfg.consts) / cfg.consts.light_speed_km_s


def _ground_leg_s(p, sat, t, cfg):
    return _leg_s(great_circle_range(subpoint(address_to_elements(sat, cfg), t, cfg.consts), p), cfg)


# Elevations chosen so that both flag values and handoffs occur; 8/6/3 has
# 4,096 satellites, so a group (see sim._snapshots) is 4 steps.
@pytest.mark.parametrize("n, m, k, elev_deg", [(8, 6, 1, 40.0), (5, 3, 2, 20.0), (8, 6, 3, 60.0)])
def test_run_records_match_the_public_functions(n, m, k, elev_deg):
    """The one-snapshot loop prices every step as the public functions do."""
    doc = _scenario_doc()
    doc["config"].update(n=n, m=m, k=k, min_elevation_deg=elev_deg)
    doc["window"] = {"start_s": 0.0, "end_s": 1800.0, "step_s": 200.0}
    doc["endpoints"]["c"] = {"lat_deg": -33.9, "lon_deg": 151.2}
    doc["experiments"].append({"src": "b", "dst": "c"})
    scn = scenario_from_dict(doc)
    cfg = scn.config
    topo = build(cfg)
    records, _ = run(scn)
    assert len(records) == 20
    last = {}
    for rec in records:
        t = rec.t
        src_name, dst_name = rec.experiment.split("->")
        src_p, dst_p = scn.endpoints[src_name], scn.endpoints[dst_name]
        src, dst = associate(src_p, t, topo), associate(dst_p, t, topo)
        assert (rec.src_sat, rec.dst_sat) == (src, dst)
        assert rec.handoff == (rec.experiment in last and last[rec.experiment] != (src, dst))
        last[rec.experiment] = (src, dst)
        covered = coverage_check(src, src_p, t, cfg) and coverage_check(dst, dst_p, t, cfg)
        assert rec.flag == ("" if covered else "coverage_violation")

        legs = _ground_leg_s(src_p, src, t, cfg) + _ground_leg_s(dst_p, dst, t, cfg)
        fro = shortest_path(src, dst, topo)
        oracle, oracle_space = delay_oracle(topo, t, src, dst)
        assert rec.frosette_hops == len(fro) - 1
        assert rec.oracle_hops == len(oracle) - 1
        assert rec.frosette_delay_s == pytest.approx(legs + path_delay(fro, t, topo), rel=1e-12)
        assert rec.oracle_delay_s == pytest.approx(legs + oracle_space, rel=1e-12)


def test_run_and_associate_build_no_list_index(monkeypatch):
    # run reads ring_table itself; only delay_oracle reads its links through adjacency()
    calls = []
    adjacency = Topology.adjacency

    def counted(self, **kwargs):
        calls.append(kwargs)
        return adjacency(self, **kwargs)

    monkeypatch.setattr(Topology, "adjacency", counted)
    scn = scenario_from_dict(_scenario_doc())
    associate(scn.endpoints["a"], 0.0, build(scn.config))
    assert calls == []
    records, _ = run(scn)
    assert len(records) == 3
    assert calls == []


def _per_step_run(scenario):
    """The one-snapshot-per-step loop that the block loop replaced, kept as
    written but for its link delays, which come from the same closed form."""
    cfg = scenario.config
    topo = build(cfg)
    state = orbit_state(cfg)
    adj = _adjacency_lists(cfg)
    radius = coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)
    records: list[TraceRecord] = []
    last_pair = {}

    for t in _step_times(scenario.start_s, scenario.end_s, scenario.step_s):
        pos = state.unit_positions(t)
        delays = _edge_delays(cfg, t).tolist()
        for src_name, dst_name in scenario.experiments:
            exp = f"{src_name}->{dst_name}"
            src_g = ground_unit(scenario.endpoints[src_name], t, cfg)
            dst_g = ground_unit(scenario.endpoints[dst_name], t, cfg)
            si, di = int(np.argmax(pos @ src_g)), int(np.argmax(pos @ dst_g))
            src_sat, dst_sat = topo.nodes[si], topo.nodes[di]
            src_r, dst_r = central_angles(pos[[si, di]], np.stack([src_g, dst_g])).tolist()
            flag = "coverage_violation" if src_r > radius or dst_r > radius else ""

            fro_path = shortest_path(src_sat, dst_sat, topo)
            legs = _leg_s(src_r, cfg) + _leg_s(dst_r, cfg)
            fro_ids = [sat_id(a, cfg.n) for a in fro_path]
            fro_space = 0.0
            for a, b in zip(fro_ids, fro_ids[1:]):  # in path order, as the oracle sums
                fro_space += delays[dict(adj[a])[b]]
            fro_delay = legs + fro_space
            oracle_path, oracle_space = _min_delay_path(adj, delays, si, di)
            oracle_delay = legs + oracle_space

            pair = (src_sat, dst_sat)
            handoff = exp in last_pair and last_pair[exp] != pair
            last_pair[exp] = pair
            records.append(
                TraceRecord(
                    t=t,
                    experiment=exp,
                    frosette_hops=len(fro_path) - 1,
                    frosette_delay_s=fro_delay,
                    oracle_hops=len(oracle_path) - 1,
                    oracle_delay_s=oracle_delay,
                    stretch=fro_delay / oracle_delay,
                    src_sat=src_sat,
                    dst_sat=dst_sat,
                    handoff=handoff,
                    flag=flag,
                )
            )
    return records, summarize(records, scenario)


def _block_scenario(n, m, k, steps, step_s=30.0):
    # a->b and a->c share an endpoint; c->c is served by one satellite at both ends;
    # a->b is listed twice
    doc = _scenario_doc()
    doc["config"].update(n=n, m=m, k=k, min_elevation_deg=35.0)
    doc["window"] = {"start_s": 1234.5, "end_s": 1234.5 + (steps - 1) * step_s, "step_s": step_s}
    doc["endpoints"]["c"] = {"lat_deg": -33.9, "lon_deg": 151.2}
    doc["experiments"] = [
        {"src": "a", "dst": "b"}, {"src": "a", "dst": "c"}, {"src": "c", "dst": "c"},
        {"src": "a", "dst": "b"},
    ]
    return scenario_from_dict(doc)


# Window lengths inside one oracle group, at and around the 2,048 satellite-steps
# of the position blocks that groups replaced.
_FORMER_BLOCK_SAT_STEPS = 2048


@pytest.mark.parametrize("n, m, k", [(8, 6, 1), (5, 3, 2), (4, 1, 3)])
@pytest.mark.parametrize(
    "sat_steps, units, extra",
    [(_FORMER_BLOCK_SAT_STEPS, units, extra) for units, extra in
     [(0, 1), (1, -1), (1, 0), (1, 1), (3, 2)]]
    + [(sim_module._GROUP_SAT_STEPS, 1, extra) for extra in (-1, 0, 1)],
    ids=["1", "B-1", "B", "B+1", "3B+2", "G-1", "G", "G+1"],
)
def test_block_loop_equals_the_per_step_loop(n, m, k, sat_steps, units, extra):
    # G steps per oracle group; B = max(1, 2048 // M) steps fall inside one
    steps = units * max(1, sat_steps // n ** (k + 1)) + extra
    scn = _block_scenario(n, m, k, steps)
    records, summary = run(scn)
    assert len(records) == 4 * steps
    assert (records, summary) == _per_step_run(scn)


def test_block_loop_equals_the_per_step_loop_one_step_per_block():
    # 65,536 satellites: a group is a single step
    scn = _block_scenario(16, 8, 3, 3)
    records, summary = run(scn)
    assert len(records) == 12
    assert (records, summary) == _per_step_run(scn)
