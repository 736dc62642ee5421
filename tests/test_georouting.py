"""Coordinate-steered geographic routing.

The machinery rests on one physical fact — every ring hop shifts the ground
coordinate by a time-independent delta — so that constancy is tested against
first-principles sub-points before anything about delivery.
"""
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from frosette import georouting
from frosette.config import TWO_PI
from frosette.constellation import (
    OrbitState, address_to_elements, build, ring_neighbor, validate_address,
)
from frosette.errors import ConfigError, DomainError, RangeError
from frosette.geocell import (
    GeoCoord,
    build_alpha0_tables,
    cell_center,
    geocoord_to_latlon,
    locate_point,
)
from frosette.geom import (
    LatLon,
    OrbitalElements,
    coverage_range,
    great_circle_range,
    subpoint,
    wrap_angle,
    wrap_lon,
)
from frosette.georouting import (
    GeoRouteResult,
    coverage_check,
    geo_route,
    measure_hop_motions,
    serving_coord,
)
from frosette.routing import shortest_path
from frosette.sim import associate
from conftest import make_config


def test_serving_coord_linear_drift(cfg_geo):
    addr = (0,) * (cfg_geo.k + 1)
    at0 = serving_coord(addr, 0.0, cfg_geo)
    assert at0.alpha_rad == 0.0 and at0.gamma_rad == 0.0
    t = 1234.5
    at_t = serving_coord(addr, t, cfg_geo)
    assert at_t.alpha_rad == pytest.approx(wrap_angle(-cfg_geo.omega_earth_rad_s * t), abs=1e-12)
    assert at_t.gamma_rad == pytest.approx(wrap_angle(TWO_PI * t / cfg_geo.period_s), abs=1e-12)
    with pytest.raises(RangeError):
        serving_coord((99,) * (cfg_geo.k + 1), 0.0, cfg_geo)


def test_serving_coord_matches_subpoint(cfg_geo):
    # the maintained coordinate, pushed through the forward map, is the
    # first-principles sub-point
    from frosette.geocell import GeoCoord, geocoord_to_latlon

    rng = random.Random(5150)
    for _ in range(40):
        addr = tuple(rng.randrange(cfg_geo.n) for _ in range(cfg_geo.k + 1))
        t = rng.uniform(0.0, cfg_geo.rho * cfg_geo.period_s)
        coord = serving_coord(addr, t, cfg_geo)
        via_map = geocoord_to_latlon(GeoCoord(coord.alpha_rad, coord.gamma_rad), cfg_geo)
        direct = subpoint(address_to_elements(addr, cfg_geo), t, cfg_geo.consts)
        assert great_circle_range(via_map, direct) < 1e-9


@pytest.mark.parametrize("m", [1, 8, 15])
def test_serving_coord_is_the_address_to_elements_form(m):
    # every address of N=16 k=1: the same floats as from the address's orbital elements
    cfg = make_config(16, m, 1)
    for t in (0.0, 1234.5, cfg.period_s, -250.25, 7.3e5, 1e9 + 0.5):
        for addr in build(cfg).nodes:
            el = address_to_elements(addr, cfg)
            want = GeoCoord(wrap_angle(el.raan_rad - cfg.omega_earth_rad_s * t),
                            wrap_angle(el.phase0_rad + TWO_PI * t / cfg.period_s))
            assert serving_coord(addr, t, cfg) == want, (addr, t)


def test_hop_motions_expected_values(cfg_geo):
    motions = measure_hop_motions(cfg_geo)
    assert len(motions) == cfg_geo.k + 1
    assert motions[0].delta_alpha_rad == pytest.approx(TWO_PI / cfg_geo.n, abs=1e-12)
    assert motions[0].delta_gamma_rad == pytest.approx(
        (TWO_PI * cfg_geo.m / cfg_geo.n) % TWO_PI, abs=1e-12
    )
    for layer, motion in enumerate(motions[1:], start=1):
        assert motion.delta_alpha_rad == pytest.approx(0.0, abs=1e-12)
        assert motion.delta_gamma_rad == pytest.approx(TWO_PI / cfg_geo.n**layer, abs=1e-12)


def test_hop_motions_raise_when_a_layer_drifts(cfg_geo, monkeypatch):
    # the layer-1 neighbour of the origin gains alpha over time
    def drifting(addr, t, cfg):
        coord = serving_coord(addr, t, cfg)
        return replace(coord, alpha_rad=coord.alpha_rad + 1e-3 * t / cfg.period_s) if addr[1] else coord

    monkeypatch.setattr(georouting, "serving_coord", drifting)
    with pytest.raises(DomainError, match="hop motion on layer 1 drifts"):
        measure_hop_motions(cfg_geo)


def test_coverage_check(cfg_geo):
    sat = (3, 7)
    t = 777.0
    nadir = subpoint(address_to_elements(sat, cfg_geo), t, cfg_geo.consts)
    assert coverage_check(sat, nadir, t, cfg_geo)
    r = coverage_range(cfg_geo.altitude_km, cfg_geo.min_elevation_rad, cfg_geo.consts)
    inside = LatLon(nadir.lat_rad, nadir.lon_rad + (r * 0.9) / math.cos(nadir.lat_rad))
    assert coverage_check(sat, inside, t, cfg_geo)
    antipode = LatLon(-nadir.lat_rad, wrap_lon(nadir.lon_rad + math.pi))
    assert not coverage_check(sat, antipode, t, cfg_geo)


def test_geo_route_delivers(cfg_geo, tables_geo, topo_geo):
    rng = random.Random(161803)
    bound = (cfg_geo.k + 1) * (cfg_geo.n // 2) + (cfg_geo.k + 1) * (cfg_geo.n - 1)
    for _ in range(400):
        src_p = LatLon(math.asin(2 * rng.random() - 1), rng.uniform(-math.pi, math.pi))
        dst_p = LatLon(math.asin(2 * rng.random() - 1), rng.uniform(-math.pi, math.pi))
        t = rng.uniform(0.0, cfg_geo.rho * cfg_geo.period_s)
        serving = associate(src_p, t, topo_geo)
        cell = locate_point(dst_p, cfg_geo, tables_geo)
        res = geo_route(serving, cell, t, cfg_geo, tables_geo)
        assert res.delivered
        assert not res.coverage_violation
        assert res.path[0] == serving and res.path[-1] == res.terminal
        assert len(set(res.path)) == len(res.path), "route revisited a node"
        assert res.hops <= bound
        # each hop is a legal ring move
        for a, b in zip(res.path, res.path[1:]):
            diff = [j for j in range(cfg_geo.k + 1) if a[j] != b[j]]
            assert len(diff) == 1
            j = diff[0]
            assert (a[j] - b[j]) % cfg_geo.n in (1, cfg_geo.n - 1)


def test_geo_route_trivial_when_covered(cfg_geo, tables_geo, topo_geo):
    # a point under the serving satellite is already delivered
    t = 0.0
    sat = (5, 11)
    nadir = subpoint(address_to_elements(sat, cfg_geo), t, cfg_geo.consts)
    cell = locate_point(nadir, cfg_geo, tables_geo)
    res = geo_route(sat, cell, t, cfg_geo, tables_geo)
    assert res.delivered and res.hops == 0 and res.fallback_hops == 0
    assert res.path == (sat,)


def test_geo_route_coverage_violation():
    # a footprint too small to cover anything distant: low altitude, steep mask
    cfg = make_config(16, 8, 1, incl_deg=70.0, altitude_km=150.0, elev_deg=60.0)
    from frosette.geocell import build_alpha0_tables

    tables = build_alpha0_tables(cfg)
    cell = locate_point(LatLon(0.0, math.pi), cfg, tables)
    res = geo_route((0, 0), cell, 0.0, cfg, tables)
    assert not res.delivered
    assert res.coverage_violation
    assert isinstance(res, GeoRouteResult)


# --- the former scalar implementation, kept verbatim as an exact oracle -------------
#
# geo_route and its helpers as they were before positions came from the orbit
# state: per-hop sub-points from a float-summed phase and np.cross ranges. Only
# the names are prefixed, great_circle_range has its `_as_unit` helper inlined,
# and the greedy fallback sweep is cut: a plan that covers nothing returns
# undelivered, and the tests check the end after it by brute force.


def _old_address_to_elements(addr, cfg):
    validate_address(addr, cfg)
    n = cfg.n
    raan = TWO_PI * addr[0] / n
    phase = TWO_PI * cfg.m * addr[0] / n
    for j in range(1, cfg.k + 1):
        phase += TWO_PI * addr[j] / n**j
    return OrbitalElements(
        raan_rad=raan,
        inclination_rad=cfg.inclination_rad,
        phase0_rad=phase % TWO_PI,
        period_s=cfg.period_s,
        orbit_radius_km=cfg.orbit_radius_km,
    )


def _old_sat_position_eci(elements, t):
    u = TWO_PI * t / elements.period_s + elements.phase0_rad
    cu, su = math.cos(u), math.sin(u)
    cb, sb = math.cos(elements.inclination_rad), math.sin(elements.inclination_rad)
    x_orb = cu
    y_orb = su * cb
    z = su * sb
    ca, sa = math.cos(elements.raan_rad), math.sin(elements.raan_rad)
    return np.array([ca * x_orb - sa * y_orb, sa * x_orb + ca * y_orb, z])


def _old_subpoint(elements, t, consts):
    p = _old_sat_position_eci(elements, t)
    theta = TWO_PI * t / consts.sidereal_day_s
    lat = math.asin(max(-1.0, min(1.0, p[2])))
    if abs(p[0]) < 1e-15 and abs(p[1]) < 1e-15:
        return LatLon(lat, 0.0)  # pole: longitude undefined, 0 by convention
    lon = math.atan2(p[1], p[0]) - theta
    return LatLon(lat, wrap_lon(lon))


def _old_great_circle_range(a, b):
    va = a.unit_vector() if isinstance(a, LatLon) else np.asarray(a, dtype=float)
    vb = b.unit_vector() if isinstance(b, LatLon) else np.asarray(b, dtype=float)
    cross = np.cross(va, vb)
    return math.atan2(float(np.linalg.norm(cross)), float(np.dot(va, vb)))


def _old_serving_coord(addr, t, cfg):
    validate_address(addr, cfg)
    el = _old_address_to_elements(addr, cfg)
    alpha = wrap_angle(el.raan_rad - cfg.omega_earth_rad_s * t)
    gamma = wrap_angle(el.phase0_rad + TWO_PI * t / cfg.period_s)
    return GeoCoord(alpha, gamma)


def _old_coverage_check(sat, target, t, cfg):
    el = _old_address_to_elements(sat, cfg)
    radius = coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)
    return _old_great_circle_range(_old_subpoint(el, t, cfg.consts), target) <= radius


def _old_ring_distance_to(sat, target, t, cfg):
    return _old_great_circle_range(
        _old_subpoint(_old_address_to_elements(sat, cfg), t, cfg.consts), target
    )


def _old_geo_route(src_serving, dst_cell, t, cfg, tables):
    validate_address(src_serving, cfg)
    center = cell_center(dst_cell, tables)
    target = geocoord_to_latlon(center, cfg)
    cur = src_serving
    path = [cur]

    def covered() -> bool:
        return _old_coverage_check(cur, target, t, cfg)

    if covered():
        return GeoRouteResult(tuple(path), cur, True, 0)

    # Phase 1: inter-orbit alpha alignment.
    here = _old_serving_coord(cur, t, cfg)
    gap = wrap_angle(center.alpha_rad - here.alpha_rad)
    direction, span = (1, gap) if gap < math.pi else (-1, TWO_PI - gap)
    steps = min(round(span / (TWO_PI / cfg.n)), cfg.n // 2)
    for _ in range(steps):
        cur = ring_neighbor(cur, 0, direction, cfg.n)
        path.append(cur)
        if covered():
            return GeoRouteResult(tuple(path), cur, True, 0)

    # Phase 2: intra-orbit gamma alignment, finest achievable step per layer.
    for layer in range(1, cfg.k + 1):
        here = _old_serving_coord(cur, t, cfg)
        gap = wrap_angle(center.gamma_rad - here.gamma_rad)
        direction, span = (1, gap) if gap < math.pi else (-1, TWO_PI - gap)
        pitch = TWO_PI / cfg.n**layer
        steps = round(span / pitch) % cfg.n
        if steps > cfg.n / 2:
            steps = cfg.n - steps
            direction = -direction
        for _ in range(steps):
            cur = ring_neighbor(cur, layer, direction, cfg.n)
            path.append(cur)
            if covered():
                return GeoRouteResult(tuple(path), cur, True, 0)

    return GeoRouteResult(tuple(path), cur, False, 0)


def _old_all_addresses(cfg):
    return itertools.product(range(cfg.n), repeat=cfg.k + 1)


def _check_phase(res, n_layers):
    """The phase agrees with the route's shape: no hop, layer-0 greedy hops
    only, a last greedy hop deeper than layer 0, fallback hops, undelivered."""
    layers = [next(j for j in range(n_layers) if a[j] != b[j]) for a, b in zip(res.path, res.path[1:])]
    assert (res.phase == "undelivered") == (not res.delivered)
    assert (res.phase == "start") == (res.delivered and res.hops == 0)
    assert (res.phase == "fallback") == (res.delivered and res.fallback_hops > 0)
    if res.phase == "alpha":
        assert res.fallback_hops == 0 and set(layers) == {0}
    if res.phase == "gamma":
        assert res.fallback_hops == 0 and layers[-1] > 0


# Partial coverage (10 degree mask) so that walks, plans that cover nothing
# and (at k=1) undelivered routes all occur.
ROUTE_CFGS = [
    make_config(8, 4, 1, altitude_km=1100.0, elev_deg=10.0),
    make_config(8, 4, 2, incl_deg=60.0, altitude_km=1100.0, elev_deg=10.0),
]


@pytest.mark.parametrize("cfg", ROUTE_CFGS, ids=["k1", "k2"])
def test_geo_route_equals_former_scalar_route(cfg):
    topo, tables = build(cfg), build_alpha0_tables(cfg)
    rng = random.Random(7)
    kinds, phases = set(), set()
    for i in range(2000):
        src_p = LatLon(math.asin(2 * rng.random() - 1), rng.uniform(-math.pi, math.pi))
        dst_p = LatLon(math.asin(2 * rng.random() - 1), rng.uniform(-math.pi, math.pi))
        t = rng.uniform(0.0, cfg.rho * cfg.period_s)
        if i % 2:
            serving = tuple(rng.randrange(cfg.n) for _ in range(cfg.k + 1))
        else:
            serving = associate(src_p, t, topo)
        cell = locate_point(dst_p, cfg, tables)
        got = geo_route(serving, cell, t, cfg, tables)
        want = _old_geo_route(serving, cell, t, cfg, tables)
        if want.delivered:  # the route ends on the plan: the former route but its phase
            assert replace(got, phase=None) == want
        else:  # the plan covers nothing: a scalar brute force over every satellite
            target = geocoord_to_latlon(cell_center(cell, tables), cfg)
            sats = list(_old_all_addresses(cfg))
            covered = any(_old_coverage_check(s, target, t, cfg) for s in sats)
            assert got.delivered == covered
            if covered:
                least = min(_old_ring_distance_to(s, target, t, cfg) for s in sats)
                assert _old_ring_distance_to(got.terminal, target, t, cfg) <= least + 1e-12
                assert got.path == tuple(shortest_path(serving, got.terminal, topo))
                assert got.fallback_hops == got.hops
            else:
                assert got.path == want.path and got.terminal == want.terminal
                assert got.fallback_hops == 0
        assert got.coverage_violation == (not got.delivered)
        assert len(set(got.path)) == len(got.path), "route revisited a node"
        _check_phase(got, cfg.k + 1)
        kinds.add((got.delivered, got.fallback_hops > 0, got.coverage_violation))
        phases.add(got.phase)
    # an undelivered route is a coverage violation and takes no fallback hop;
    # k1's 64 satellites leave some drawn targets uncovered, k2's 512 none
    delivered = {(True, False, False), (True, True, False)}
    ended = {"start", "alpha", "gamma", "fallback"}
    if cfg.k == 1:
        assert kinds == delivered | {(False, False, True)}
        assert phases == ended | {"undelivered"}
    else:
        assert (kinds, phases) == (delivered, ended)


@pytest.mark.parametrize("cfg", ROUTE_CFGS, ids=["k1", "k2"])
def test_geo_route_takes_one_position_call_for_the_greedy_path(cfg, monkeypatch):
    tables = build_alpha0_tables(cfg)
    calls = []
    real = OrbitState.unit_positions

    def counted(self, t, rows=slice(None)):
        calls.append(rows)
        return real(self, t, rows)

    monkeypatch.setattr(OrbitState, "unit_positions", counted)
    rng = random.Random(23)
    phases = set()
    for _ in range(600):
        serving = tuple(rng.randrange(cfg.n) for _ in range(cfg.k + 1))
        dst_p = LatLon(math.asin(2 * rng.random() - 1), rng.uniform(-math.pi, math.pi))
        t = rng.uniform(0.0, cfg.rho * cfg.period_s)
        cell = locate_point(dst_p, cfg, tables)
        calls.clear()
        res = geo_route(serving, cell, t, cfg, tables)
        phases.add(res.phase)
        # the planned greedy path, at least as long as the route that ends on it
        assert isinstance(calls[0], list)
        if res.phase in ("start", "alpha", "gamma"):
            assert len(calls) == 1 and len(calls[0]) >= len(res.path)
        else:  # then one snapshot of every satellite for the nearest
            assert len(calls) == 2 and calls[1] == slice(None)
    assert {"start", "alpha", "fallback"} <= phases
    assert ("undelivered" in phases) == (cfg.k == 1)  # as in the test above


def test_geo_route_rejects_tables_of_another_config(cfg_geo, tables_geo):
    cell = locate_point(LatLon(0.3, 1.0), cfg_geo, tables_geo)
    for other in (
        make_config(16, 8, 1, incl_deg=55.0, altitude_km=1100.0, elev_deg=0.0),
        make_config(16, 7, 1, altitude_km=1100.0, elev_deg=0.0),
        make_config(16, 8, 0, altitude_km=1100.0, elev_deg=0.0),
    ):
        with pytest.raises(ConfigError, match="another"):
            geo_route((0, 0), cell, 0.0, cfg_geo, build_alpha0_tables(other))
    # altitude and elevation are not in the tables
    lifted = make_config(16, 8, 1, altitude_km=1300.0, elev_deg=5.0)
    assert geo_route((0, 0), cell, 0.0, lifted, tables_geo).delivered
