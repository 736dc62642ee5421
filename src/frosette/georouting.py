"""Geographical routing from a serving satellite toward a ground cell.

Satellites steer by coordinates, not tables: each one knows its own (alpha,
gamma), every ring hop shifts those by a constant, and the destination cell's
center is a fixed coordinate. Greedy correction of alpha (layer 0) then gamma
(deeper layers) lands next to the target; a bounded ring sweep mops up the
quantization residue. Coverage of the cell center ends the route early.

Coverage and distances to the target are central angles between positions
from the config's ``constellation.OrbitState`` and the target's inertial
vector, computed only for the satellites a route tests; the one full
snapshot is taken when a route ends undelivered.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig
from .constellation import (
    SatAddress, address_to_elements, orbit_state, ring_neighbor, sat_id, validate_address,
)
from .errors import DomainError
from .geocell import Alpha0Table, CellId, GeoCoord, cell_center, geocoord_to_latlon
from .geom import LatLon, central_angles, check_finite, check_latlon, coverage_range
from .geom import ground_unit, wrap_angle

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
    fallback_hops: int
    coverage_violation: bool = False

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def serving_coord(addr: SatAddress, t: float, cfg: ConstellationConfig) -> GeoCoord:
    """The (alpha, gamma) a satellite maintains locally: linear drift from epoch."""
    validate_address(addr, cfg)
    check_finite(t)
    el = address_to_elements(addr, cfg)
    alpha = wrap_angle(el.raan_rad - cfg.omega_earth_rad_s * t)
    gamma = wrap_angle(el.phase0_rad + TWO_PI * t / cfg.period_s)
    return GeoCoord(alpha, gamma)


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
        base = serving_coord(origin, 0.0, cfg)
        step = serving_coord(nb, 0.0, cfg)
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


@functools.lru_cache(maxsize=64)
def _coverage_radius(cfg: ConstellationConfig) -> float:
    return coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)


def _ranges(sats: list[SatAddress], ground, t: float, cfg: ConstellationConfig):
    """Central angles from the satellites to an inertial ground vector at t."""
    pos = orbit_state(cfg).unit_positions(t, [sat_id(s, cfg.n) for s in sats])
    return central_angles(pos, ground)


def coverage_check(sat: SatAddress, target: LatLon, t: float, cfg: ConstellationConfig) -> bool:
    """True when the satellite's footprint (at its min elevation) reaches target."""
    validate_address(sat, cfg)
    check_latlon(target, t)
    return bool(_ranges([sat], ground_unit(target, t, cfg), t, cfg)[0] <= _coverage_radius(cfg))


def geo_route(
    src_serving: SatAddress,
    dst_cell: CellId,
    t: float,
    cfg: ConstellationConfig,
    tables: Alpha0Table,
) -> GeoRouteResult:
    """Route from a serving satellite to any satellite covering dst_cell's center.

    Phase 1 walks layer 0 to cancel the alpha gap, phase 2 walks layers 1..k
    to cancel the gamma gap (recomputed per layer, since layer-0 hops shift
    gamma too). Each walk stops at its first satellite that covers the
    target. If the greedy walk ends uncovered, one sweep over the rings,
    deepest first, moves along whichever neighbor strictly shrinks the
    great-circle distance to the target, at most N-1 steps per ring.
    """
    validate_address(src_serving, cfg)
    check_finite(t)
    center = cell_center(dst_cell, tables)
    ground = ground_unit(geocoord_to_latlon(center, cfg), t, cfg)
    radius = _coverage_radius(cfg)
    path = [src_serving]

    def walk(layer: int, direction: int, steps: int) -> bool:
        """Append up to `steps` hops; True once one of them covers the target."""
        cur, hops = path[-1], []
        for _ in range(steps):
            cur = ring_neighbor(cur, layer, direction, cfg.n)
            hops.append(cur)
        covered = np.flatnonzero(_ranges(hops, ground, t, cfg) <= radius)
        path.extend(hops[: covered[0] + 1] if covered.size else hops)
        return covered.size > 0

    if _ranges(path, ground, t, cfg)[0] <= radius:
        return GeoRouteResult(tuple(path), src_serving, True, 0)

    # Phase 1: inter-orbit alpha alignment.
    here = serving_coord(src_serving, t, cfg)
    gap = wrap_angle(center.alpha_rad - here.alpha_rad)
    direction, span = (1, gap) if gap < math.pi else (-1, TWO_PI - gap)
    if walk(0, direction, min(round(span / (TWO_PI / cfg.n)), cfg.n // 2)):
        return GeoRouteResult(tuple(path), path[-1], True, 0)

    # Phase 2: intra-orbit gamma alignment, finest achievable step per layer.
    for layer in range(1, cfg.k + 1):
        here = serving_coord(path[-1], t, cfg)
        gap = wrap_angle(center.gamma_rad - here.gamma_rad)
        direction, span = (1, gap) if gap < math.pi else (-1, TWO_PI - gap)
        pitch = TWO_PI / cfg.n**layer
        steps = round(span / pitch) % cfg.n
        if steps > cfg.n / 2:
            steps = cfg.n - steps
            direction = -direction
        if walk(layer, direction, steps):
            return GeoRouteResult(tuple(path), path[-1], True, 0)

    # Fallback: greedy descent on true sub-point distance, one sweep.
    fallback = 0
    cur = path[-1]
    best = float(_ranges([cur], ground, t, cfg)[0])
    for layer in range(cfg.k, -1, -1):
        for _ in range(cfg.n - 1):
            up, down = (ring_neighbor(cur, layer, d, cfg.n) for d in (1, -1))
            d_up, d_down = _ranges([up, down], ground, t, cfg).tolist()
            dist, nb = (d_down, down) if d_down <= d_up else (d_up, up)
            if dist >= best:
                break
            best, cur = dist, nb
            path.append(cur)
            fallback += 1
            if dist <= radius:
                return GeoRouteResult(tuple(path), cur, True, fallback)

    snapshot = orbit_state(cfg).unit_positions(t)
    violation = not bool(np.any(central_angles(snapshot, ground) <= radius))
    return GeoRouteResult(tuple(path), cur, False, fallback, coverage_violation=violation)
