"""Spherical and orbital geometry primitives.

Circular Keplerian orbits around a spherical earth. The epoch convention used
everywhere: at t=0 the prime meridian coincides with the inertial x-axis.

Every satellite position comes from one array kernel, :func:`orbit_positions`
(fed by ``constellation.OrbitState``), every range between positions from
:func:`central_angles`, every link range in closed form from :func:`range_terms`
and every serving satellite from :func:`nearest`. The scalar :func:`sat_position_eci`
and :func:`subpoint` are the references that tests and ``verify`` compare against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig, PhysicalConstants, _json_number
from .errors import ConfigError, DomainError, InfeasibleError, RangeError


@dataclass(frozen=True)
class OrbitalElements:
    """One circular orbit; ConfigError unless its fields are finite, period and radius > 0."""

    raan_rad: float
    inclination_rad: float
    phase0_rad: float
    period_s: float
    orbit_radius_km: float

    def __post_init__(self) -> None:
        for key, val in vars(self).items():
            val = _json_number(key, val)
            if key in ("period_s", "orbit_radius_km") and not val > 0.0:
                raise ConfigError(f"{key} must be positive, got {val}")


@dataclass(frozen=True)
class LatLon:
    """A ground point; RangeError unless finite with |latitude| <= 90 deg (longitudes wrap)."""

    lat_rad: float
    lon_rad: float

    def __post_init__(self) -> None:
        _json_number("lat_rad", self.lat_rad, error=RangeError)
        _json_number("lon_rad", self.lon_rad, error=RangeError)
        if abs(self.lat_rad) > math.pi / 2:
            raise RangeError(f"latitude {math.degrees(self.lat_rad)} deg is outside [-90, 90]")

    def unit_vector(self) -> np.ndarray:
        return _unit_vector(self.lat_rad, self.lon_rad)


def _unit_vector(lat: float, lon) -> np.ndarray:
    cl, sl = math.cos(lat), math.sin(lat)
    if isinstance(lon, np.ndarray):
        return np.hstack([cl * np.cos(lon), cl * np.sin(lon), np.full_like(lon, sl)])
    return np.array([cl * math.cos(lon), cl * math.sin(lon), sl])


def wrap_lon(lon: float) -> float:
    """Normalize a longitude into [-pi, pi)."""
    return wrap_angle(lon + math.pi) - math.pi


def check_times(orbit: ConstellationConfig | OrbitalElements, *times: float) -> None:
    """RangeError unless each time is a number whose orbital phase 2*pi*t/T is finite."""
    for t in times:
        _json_number("time", t, error=RangeError)
        _json_number("orbital phase 2*pi*t/T", TWO_PI * t / orbit.period_s, error=RangeError)


def wrap_angle(a: float) -> float:
    """Normalize any angle into [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # adding 2*pi to a tiny negative can round back up to 2*pi
        a = 0.0
    return a


def sat_position_eci(elements: OrbitalElements, t: float) -> np.ndarray:
    """Unit direction of the satellite in the inertial frame at time t.

    Argument of latitude u(t) = 2*pi*t/T + phase0, ascending node at the RAAN,
    orbit plane tilted by the inclination. The scalar, first-principles
    reference for :func:`orbit_positions`, with the same angle-sum rotation.
    """
    check_times(elements, t)
    w = TWO_PI * t / elements.period_s
    cp, sp = math.cos(elements.phase0_rad), math.sin(elements.phase0_rad)
    cw, sw = math.cos(w), math.sin(w)
    cu, su = cp * cw - sp * sw, sp * cw + cp * sw
    cb, sb = math.cos(elements.inclination_rad), math.sin(elements.inclination_rad)
    ca, sa = math.cos(elements.raan_rad), math.sin(elements.raan_rad)
    return np.array([ca * cu - sa * su * cb, sa * cu + ca * su * cb, su * sb])


def orbit_positions(cos_phase, sin_phase, cos_raan, sin_raan, inclination_rad, w):
    """Inertial unit vectors of satellites advanced by the angle w = 2*pi*t/T.

    The one position kernel. Each satellite's epoch phase (cos, sin) is
    rotated by w rather than added to it: the sum would be rounded at the
    scale of the phase (or of w, for large t), which moves a 2*pi/N^3 arc by
    ~1e-12 relative from step to step; the rotation keeps it within ~4e-13.
    Arguments broadcast: per-satellite arrays with a scalar w give (R, 3),
    with w of shape (T, 1) they give (T, R, 3).
    """
    cw, sw = np.cos(w), np.sin(w)
    cu, su = cos_phase * cw - sin_phase * sw, sin_phase * cw + cos_phase * sw
    cb, sb = math.cos(inclination_rad), math.sin(inclination_rad)
    return np.stack(
        [cos_raan * cu - sin_raan * su * cb, sin_raan * cu + cos_raan * su * cb, su * sb],
        axis=-1,
    )


def ground_unit(p: LatLon, t, cfg: ConstellationConfig) -> np.ndarray:
    """Inertial unit vector of a checked ground point at checked t; (T, 3) for t of shape (T, 1)."""
    return _unit_vector(p.lat_rad, p.lon_rad + cfg.omega_earth_rad_s * t)


def nearest(pos: np.ndarray, ground: np.ndarray):
    """The one association rule: the row of pos (M, 3) nearest ground (3,), or (T,) rows
    of (T, M, 3) nearest (T, 3); the largest dot product, ties to the smallest row."""
    return (pos @ ground[..., None]).argmax(axis=-2)[..., 0]


def subpoint(elements: OrbitalElements, t: float, consts: PhysicalConstants) -> LatLon:
    """Earth-fixed sub-point at time t (geocentric latitude)."""
    p = sat_position_eci(elements, t)
    theta = TWO_PI * t / consts.sidereal_day_s
    lat = math.asin(max(-1.0, min(1.0, p[2])))
    if abs(p[0]) < 1e-15 and abs(p[1]) < 1e-15:
        return LatLon(lat, 0.0)  # pole: longitude undefined, 0 by convention
    lon = math.atan2(p[1], p[0]) - theta
    return LatLon(lat, wrap_lon(lon))


def _as_unit(p) -> np.ndarray:
    if isinstance(p, LatLon):
        return p.unit_vector()
    return np.asarray(p, dtype=float)


def great_circle_range(a, b) -> float:
    """Central angle between two points (LatLon or unit vectors), in [0, pi]."""
    return float(central_angles(_as_unit(a), _as_unit(b)))


def central_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Central angle in [0, pi] between unit vectors along the last axis.

    The one range formula. The arctangent form keeps full precision for
    nearly-identical and nearly-antipodal vectors, where acos of the dot
    product loses digits.
    """
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    return np.arctan2(
        np.sqrt(cx * cx + cy * cy + cz * cz), ax * bx + ay * by + az * bz
    )


def range_terms(du, draan, units: int, inclination_rad: float):
    """(K, D) of sin^2(r/2) = K + D*cos(4*pi*t/T + phi): the range r of two
    satellites of one inclination and period, whose epoch phases differ by du
    and RAANs by draan (ints or int arrays, in units of 2*pi/units) and sum to
    phi. The one closed-form range expression."""
    b2 = inclination_rad / 2.0
    c2, s2 = math.cos(b2) ** 2, math.sin(b2) ** 2
    sq = np.sin(np.array([du + draan, du, du - draan, draan]) * (math.pi / units)) ** 2
    return c2 * c2 * sq[0] + 2.0 * s2 * c2 * sq[1] + s2 * s2 * sq[2], 2.0 * s2 * c2 * sq[3]


def closed_form_range(cfg: ConstellationConfig, d: int, coupling: float) -> float:
    """Range r between base-ring satellites d apart: :func:`range_terms` with
    the time coupling (at most 1, where the range peaks) in place of the cosine."""
    k, amplitude = range_terms(cfg.m * d, d, cfg.n, cfg.inclination_rad)
    s = k + amplitude * coupling
    if s < -1e-9 or s > 1.0 + 1e-9:
        raise DomainError(f"closed form out of range: sin^2(r/2) = {s}")
    return 2.0 * math.asin(math.sqrt(max(0.0, min(1.0, s))))


def link_range_closed_form(i: int, j: int, t: float, cfg: ConstellationConfig) -> float:
    """Great-circle range between base-ring satellites i and j at time t:
    :func:`closed_form_range` with the coupling cos(4*pi*t/T + 2*m*(i+j)*pi/N)."""
    check_times(cfg, t)
    if i == j:
        raise DomainError("closed-form range requires i != j")
    n, m = cfg.n, cfg.m
    if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
        raise DomainError(f"satellite indices must be in [0, {n})")
    coupling = math.cos(2.0 * TWO_PI * t / cfg.period_s + 2.0 * m * (j + i) * (math.pi / n))
    return closed_form_range(cfg, j - i, coupling)


def link_length_delay(r, altitude_km: float, consts: PhysicalConstants):
    """Chord length (km) and one-way delay (s) of links spanning ranges r
    (a float or an array)."""
    length = 2.0 * (consts.earth_radius_km + altitude_km) * np.sin(r / 2.0)
    return length, length / consts.light_speed_km_s


def slant_range_km(r, altitude_km: float, consts: PhysicalConstants):
    """Ground-to-satellite distances across central angles r (law of cosines)."""
    re = consts.earth_radius_km
    rs = re + altitude_km
    return np.sqrt(np.maximum(0.0, re * re + rs * rs - 2.0 * re * rs * np.cos(r)))


def coverage_range(
    altitude_km: float, elev: float, consts: PhysicalConstants
) -> float:
    """Coverage radius R (central angle) at altitude H and elevation limit:
    R = acos(R_E/(R_E+H) * cos(elev)) - elev, the root of
    tan(elev) = (cos R - R_E/(R_E+H)) / sin R.

    Kept inside (0, pi/2): rounding puts R at 0 for H near 0 and at pi/2 for
    H near infinity, and the nearest floats inside keep ``min_satellites``'
    answers there (infeasible, and the floor of 4).
    """
    if not 0 < _json_number("altitude_km", altitude_km, error=InfeasibleError):
        raise InfeasibleError(f"coverage_range requires a finite altitude > 0, got {altitude_km}")
    if not (0.0 <= _json_number("elevation", elev, error=DomainError) < math.pi / 2):
        raise DomainError("elevation must be in [0, pi/2)")
    ratio = consts.earth_radius_km / (consts.earth_radius_km + altitude_km)
    r = math.acos(ratio * math.cos(elev)) - elev
    return min(max(r, math.ulp(0.0)), math.nextafter(math.pi / 2, 0.0))


def min_satellites(coverage_rad: float) -> int:
    """Minimum ring size N whose per-satellite coverage demand fits within R.

    The per-satellite requirement sqrt(3)*tan(pi/6 * N/(N-2)) decreases in N;
    the result is the smallest N meeting it. The relation has no solution at
    N=3 (the demand diverges), so the floor of the result is 4.
    """
    if not (0.0 < _json_number("coverage range", coverage_rad, error=DomainError) < math.pi / 2):
        raise DomainError("coverage range must be in (0, pi/2)")
    theta = math.atan(1.0 / (math.cos(coverage_rad) * math.sqrt(3.0)))
    q = 6.0 * theta / math.pi
    if q <= 1.0 + 1e-15:
        raise InfeasibleError("coverage range too small for any finite ring")
    x = 2.0 + 2.0 / (q - 1.0)
    return max(4, math.ceil(x - 1e-12))

