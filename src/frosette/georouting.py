"""Geographical routing from a serving satellite toward a ground cell.

Satellites steer by coordinates, not tables: each one knows its own (alpha,
gamma), every ring hop shifts those by a constant, and the destination cell's
center is a fixed coordinate. Greedy correction of alpha (layer 0) then gamma
(deeper layers) plans a path that lands next to the target, and the route ends
at the plan's first satellite covering the cell center. Where the plan covers
nothing, the route runs by ring shortest path from the source to the satellite
nearest the target, which covers it exactly when any satellite does.

Coverage and distances to the target are central angles between positions
from the config's ``constellation.OrbitState`` and the target's inertial
vector: the planned path's in one call, then, where it covers nothing, one
snapshot of every satellite, searched by the association rule ``geom.nearest``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig
from .constellation import SatAddress, Topology, _address, _orbit_units, orbit_state, ring_neighbor
from .constellation import sat_id, validate_address
from .errors import ConfigError, DomainError
from .geocell import Alpha0Table, CellId, GeoCoord, cell_center, geocoord_to_latlon
from .geom import LatLon, central_angles, check_times, coverage_range, ground_unit, nearest
from .geom import wrap_angle
from .routing import shortest_path

MOTION_CONSTANCY_TOL_RAD = 1e-9
MOTION_SAMPLE_TIMES = 16


@dataclass(frozen=True)
class HopMotion:
    """Coordinate shift of one +1 hop on a layer; -1 hops negate both."""

    layer: int
    delta_alpha_rad: float
    delta_gamma_rad: float


@dataclass(frozen=True)
class GeoRouteResult:
    path: tuple[SatAddress, ...]
    terminal: SatAddress
    delivered: bool
    fallback_hops: int  # hops of a route that leaves the plan (phase fallback), else 0
    coverage_violation: bool = False
    # where the route ended: start, alpha, gamma, fallback or undelivered
    phase: str | None = None

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def serving_coord(addr: SatAddress, t: float, cfg: ConstellationConfig) -> GeoCoord:
    """The (alpha, gamma) a satellite maintains locally: linear drift from epoch."""
    validate_address(addr, cfg)
    check_times(cfg, t)
    return GeoCoord(*_coord(sat_id(addr, cfg.n), t, cfg))


def _coord(i: int, t: float, cfg: ConstellationConfig) -> tuple[float, float]:
    """:func:`serving_coord` of satellite id i at a checked t, unchecked."""
    s0, phase = _orbit_units(i, cfg)  # address_to_elements' RAAN and phase
    alpha = wrap_angle(TWO_PI * s0 / cfg.n - cfg.omega_earth_rad_s * t)
    return alpha, wrap_angle(TWO_PI * phase / cfg.n_sats + TWO_PI * t / cfg.period_s)


def measure_hop_motions(cfg: ConstellationConfig) -> list[HopMotion]:
    """Per-layer (delta alpha, delta gamma) of a +1 hop, measured at epoch.

    Constancy over time is what makes coordinate steering possible, so it is
    re-checked at 16 sampled times and a violation raises rather than returns.
    """
    origin = (0,) * (cfg.k + 1)
    motions = []
    rng = random.Random(1729)
    times = [rng.uniform(0.0, cfg.period_s * cfg.rho) for _ in range(MOTION_SAMPLE_TIMES)]
    for layer in range(cfg.k + 1):
        nb = ring_neighbor(origin, layer, 1, cfg.n)
        base, step = serving_coord(origin, 0.0, cfg), serving_coord(nb, 0.0, cfg)
        d_alpha = wrap_angle(step.alpha_rad - base.alpha_rad)
        d_gamma = wrap_angle(step.gamma_rad - base.gamma_rad)
        for t in times:
            at = serving_coord(origin, t, cfg)
            bt = serving_coord(nb, t, cfg)
            if (
                abs(wrap_angle(bt.alpha_rad - at.alpha_rad) - d_alpha) > MOTION_CONSTANCY_TOL_RAD
                or abs(wrap_angle(bt.gamma_rad - at.gamma_rad) - d_gamma) > MOTION_CONSTANCY_TOL_RAD
            ):
                raise DomainError(
                    f"hop motion on layer {layer} drifts over time; "
                    "epoch/config inconsistency"
                )
        motions.append(HopMotion(layer, d_alpha, d_gamma))
    return motions


def coverage_check(sat: SatAddress, target: LatLon, t: float, cfg: ConstellationConfig) -> bool:
    """True when the satellite's footprint (at its min elevation) reaches target."""
    validate_address(sat, cfg)
    check_times(cfg, t)
    radius = coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)
    pos = orbit_state(cfg).unit_positions(t, [sat_id(sat, cfg.n)])
    return bool(central_angles(pos, ground_unit(target, t, cfg))[0] <= radius)


def geo_route(
    src_serving: SatAddress,
    dst_cell: CellId,
    t: float,
    cfg: ConstellationConfig,
    tables: Alpha0Table,
) -> GeoRouteResult:
    """Route from a serving satellite to a satellite covering dst_cell's center.

    Phase 1 walks layer 0 to cancel the alpha gap, phase 2 walks layers 1..k
    to cancel the gamma gap (recomputed per layer, since layer-0 hops shift
    gamma too). No range test steers these walks, so the whole greedy path is
    planned first, in satellite ids, and its positions come from one call; the
    route ends at its first satellite covering the target. If none does, it is
    the ``shortest_path`` from the source, not the plan's end, so loop-free and
    within ``hop_bound``, to the snapshot's ``nearest`` satellite, which covers
    the target exactly when any satellite does; if it does not, the route is
    undelivered: the planned path, flagged as a coverage violation.
    """
    validate_address(src_serving, cfg)
    check_times(cfg, t)
    built_for = (tables.n, tables.m, tables.k, tables.inclination_rad)
    if built_for != (cfg.n, cfg.m, cfg.k, cfg.inclination_rad):
        raise ConfigError("alpha0 tables were built for another (N, m, k, inclination)")
    center = cell_center(dst_cell, tables)
    ground = ground_unit(geocoord_to_latlon(center, cfg), t, cfg)
    radius = coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)

    # Phase 1: inter-orbit alpha alignment on digit 0, of stride N^k.
    n, stride, plan = cfg.n, cfg.n**cfg.k, [sat_id(src_serving, cfg.n)]
    gap = wrap_angle(center.alpha_rad - _coord(plan[0], t, cfg)[0])
    direction, span = (1, gap) if gap < math.pi else (-1, TWO_PI - gap)
    steps = min(round(span / (TWO_PI / n)), n // 2)
    plan += [(plan[0] + direction * j * stride) % cfg.n_sats for j in range(1, steps + 1)]
    alpha_end = len(plan)

    # Phase 2: intra-orbit gamma alignment, finest achievable step per layer,
    # on digit L of stride N^(k-L), wrapping inside it.
    for layer in range(1, cfg.k + 1):
        stride //= n
        gap = wrap_angle(center.gamma_rad - _coord(plan[-1], t, cfg)[1])
        direction, span = (1, gap) if gap < math.pi else (-1, TWO_PI - gap)
        steps = round(span / (TWO_PI / n**layer)) % n
        if steps > n / 2:
            steps, direction = n - steps, -direction
        digit = plan[-1] // stride % n
        base = plan[-1] - digit * stride
        plan += [base + (digit + direction * j) % n * stride for j in range(1, steps + 1)]

    angles = central_angles(orbit_state(cfg).unit_positions(t, np.array(plan)), ground)
    covered = np.flatnonzero(angles <= radius)
    if covered.size:
        i = int(covered[0])
        phase = "start" if i == 0 else "alpha" if i < alpha_end else "gamma"
        path = tuple([_address(v, cfg) for v in plan[: i + 1]])
        return GeoRouteResult(path, path[-1], True, 0, phase=phase)

    snapshot = orbit_state(cfg).unit_positions(t)
    egress = int(nearest(snapshot, ground))
    if central_angles(snapshot[egress], ground) > radius:
        path = tuple([_address(v, cfg) for v in plan])
        return GeoRouteResult(path, path[-1], False, 0, True, "undelivered")
    route = tuple(shortest_path(src_serving, _address(egress, cfg), Topology(cfg)))
    return GeoRouteResult(route, route[-1], True, len(route) - 1, phase="fallback")
