"""Physical constants and constellation configuration.

All internal units are radians, seconds, and kilometers. Degrees appear only
in JSON documents and CLI flags.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError, ParseError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    earth_radius_km: float = 6371.0
    sidereal_day_s: float = 86164.0905
    light_speed_km_s: float = 299792.458
    atmosphere_margin_km: float = 0.0


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ConstellationConfig:
    """An F-Rosette_k defined by (N, m, k) plus altitude and elevation limits."""

    n: int
    m: int
    k: int
    altitude_km: float
    inclination_rad: float
    min_elevation_rad: float = 0.0
    consts: PhysicalConstants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"n must be >= 3, got {self.n}")
        if not (0 <= self.m <= self.n - 1):
            raise ConfigError(f"m must be in [0, n-1], got m={self.m} for n={self.n}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {self.k}")
        if not (0 < self.altitude_km < math.inf):
            raise ConfigError(
                f"altitude_km must be positive and finite, got {self.altitude_km}"
            )
        if not (0.0 < self.inclination_rad < math.pi):
            raise ConfigError(
                f"inclination_rad must be in (0, pi), got {self.inclination_rad}"
            )
        if not (0.0 <= self.min_elevation_rad < math.pi / 2):
            raise ConfigError(
                f"min_elevation_rad must be in [0, pi/2), got {self.min_elevation_rad}"
            )
        for name in ("period_s", "omega_earth_rad_s", "orbit_radius_km"):
            try:
                value = getattr(self, name)
            except OverflowError:  # an N - m beyond the float range
                raise ConfigError(f"derived {name} overflows a float") from None
            if not 0.0 < value < math.inf:  # a period can underflow to 0
                what = "zero" if value == 0 else "not finite"
                raise ConfigError(f"derived {name} is {what}: {value}")

    @property
    def rho(self) -> int:
        """Ground-track repeat count N - m (orbit periods per sidereal day)."""
        return self.n - self.m

    @property
    def period_s(self) -> float:
        return self.consts.sidereal_day_s / self.rho

    @property
    def omega_earth_rad_s(self) -> float:
        return TWO_PI / self.consts.sidereal_day_s

    @property
    def n_sats(self) -> int:
        return self.n ** (self.k + 1)

    @property
    def orbit_radius_km(self) -> float:
        return self.consts.earth_radius_km + self.altitude_km


def _json_number(key: str, val, kind: type = float, error: type = ConfigError):
    """val as kind, else an ``error``. An int field takes a JSON integer only
    (8.0 is not one), a float field any JSON number; a bool or a string is neither."""
    if isinstance(val, bool) or not isinstance(val, int if kind is int else (int, float)):
        what = "integer" if kind is int else "number"
        raise error(f"{key} must be a JSON {what}, got {val!r}")
    return kind(val)


def config_from_dict(doc: dict) -> ConstellationConfig:
    """Build a config from a JSON-style document (angles in degrees)."""
    try:
        n, m, k = [_json_number(key, doc[key], int) for key in ("n", "m", "k")]
        altitude_km = _json_number("altitude_km", doc["altitude_km"])
        inclination_deg = _json_number("inclination_deg", doc["inclination_deg"])
        min_elevation_deg = _json_number("min_elevation_deg", doc.get("min_elevation_deg", 0.0))
        constants = doc.get("constants") or {}
        overrides = {key: _json_number(f"constant {key}", val) for key, val in constants.items()}
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc.args[0]}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    consts = DEFAULT_CONSTANTS
    if overrides:
        bad = set(overrides) - set(PhysicalConstants.__dataclass_fields__)
        if bad:
            raise ConfigError(f"unknown constants override(s): {sorted(bad)}")
        for key, val in overrides.items():
            # a zero margin is the default, and config_to_dict writes it back
            if key == "atmosphere_margin_km":
                ok, rule = val >= 0.0, "non-negative"
            else:
                ok, rule = val > 0.0, "positive"
            if not (ok and math.isfinite(val)):
                raise ConfigError(f"constant {key} must be finite and {rule}, got {val}")
        consts = replace(consts, **overrides)
    return ConstellationConfig(
        n=n,
        m=m,
        k=k,
        altitude_km=altitude_km,
        inclination_rad=math.radians(inclination_deg),
        min_elevation_rad=math.radians(min_elevation_deg),
        consts=consts,
    )


def config_to_dict(cfg: ConstellationConfig) -> dict:
    doc = {
        "n": cfg.n,
        "m": cfg.m,
        "k": cfg.k,
        "altitude_km": cfg.altitude_km,
        "inclination_deg": math.degrees(cfg.inclination_rad),
        "min_elevation_deg": math.degrees(cfg.min_elevation_rad),
    }
    if cfg.consts != DEFAULT_CONSTANTS:
        doc["constants"] = asdict(cfg.consts)
    return doc


def load_json(path: str):
    """Parse a JSON file; text that is not JSON (or not UTF-8) is a ParseError.

    The bytes are decoded explicitly rather than through a text-mode file,
    which costs more than the parse for a config-sized document.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_config(path: str) -> ConstellationConfig:
    return config_from_dict(load_json(path))
