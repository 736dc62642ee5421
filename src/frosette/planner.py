"""Constellation sizing from a latency budget and elevation mask.

Works backwards from a ground-to-satellite round-trip target: the altitude a
radio wave can cover in that time, the footprint at that altitude, the
satellite count whose footprints tile the sphere, and finally the smallest
recursion depth k whose N^(k+1) satellites reach that count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_CONSTANTS, PhysicalConstants, _json_number
from .constellation import MAX_SATELLITES
from .errors import ConfigError, DomainError, _shown
from .geom import coverage_range, min_satellites


@dataclass(frozen=True)
class SizeRequest:
    rtt_target_s: float
    min_elevation_rad: float
    base_n: int

    def __post_init__(self) -> None:
        if not 0 < _json_number("rtt_target_s", self.rtt_target_s):
            raise ConfigError(f"rtt_target_s must be positive and finite, got {self.rtt_target_s}")
        if not (0 <= _json_number("min_elevation_rad", self.min_elevation_rad) < math.pi / 2):
            raise ConfigError("min_elevation_rad must be in [0, pi/2), "
                              f"got {self.min_elevation_rad}")
        if _json_number("base_n", self.base_n, int) < 3:
            raise ConfigError(f"base_n must be >= 3, got {_shown(self.base_n)}")


@dataclass(frozen=True)
class SizeResult:
    altitude_km: float
    coverage_rad: float
    n_min: int
    k: int
    n_sats: int


def select_size(req: SizeRequest, consts: PhysicalConstants = DEFAULT_CONSTANTS) -> SizeResult:
    """Smallest recursion depth meeting the RTT budget at the elevation mask;
    DomainError when that needs more than MAX_SATELLITES satellites."""
    altitude_km = consts.light_speed_km_s * req.rtt_target_s / 2.0
    radius = coverage_range(altitude_km, req.min_elevation_rad, consts)
    n_min = min_satellites(radius)
    depth = 1
    n_sats = req.base_n
    while n_sats < n_min:
        depth += 1
        n_sats *= req.base_n
    if n_sats > MAX_SATELLITES:
        raise DomainError(f"{_shown(n_sats)} satellites (N={_shown(req.base_n)}, k={depth - 1}) "
                          f"exceed the limit of {MAX_SATELLITES}")
    return SizeResult(
        altitude_km=altitude_km,
        coverage_rad=radius,
        n_min=n_min,
        k=depth - 1,
        n_sats=n_sats,
    )
