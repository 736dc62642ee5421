"""Physical constants and constellation configuration.

All internal units are radians, seconds, and kilometers. Degrees appear only
in JSON documents and CLI flags.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError, ParseError, _shown

TWO_PI = 2.0 * math.pi


def _json_number(key: str, val, kind: type = float, error: type = ConfigError):
    """The one rule for a number at a boundary: val as kind, else an ``error``. An int field
    takes an int only (8.0 is not one), a float field an int or a float that converts to a
    finite float, which it returns; a bool or a string is neither."""
    if type(val) is kind and (kind is int or val - val == 0.0):
        return val  # a plain int, or a finite float
    if isinstance(val, bool) or not isinstance(val, int if kind is int else (int, float)):
        raise error(f"{key} must be a JSON {'integer' if kind is int else 'number'}, got {val!r}")
    try:
        val = kind(val)
    except OverflowError:  # an int beyond the float range
        val = math.inf if val > 0 else -math.inf
    if kind is float and not math.isfinite(val):
        raise error(f"{key} is not finite: {val}")
    return val


@dataclass(frozen=True)
class PhysicalConstants:
    earth_radius_km: float = 6371.0
    sidereal_day_s: float = 86164.0905
    light_speed_km_s: float = 299792.458
    atmosphere_margin_km: float = 0.0

    def __post_init__(self) -> None:
        for key, given in list(vars(self).items()):
            if (val := _json_number(f"constant {key}", given)) is not given:  # an int as its float
                object.__setattr__(self, key, val)
            # a zero margin is the default, and config_to_dict writes it back
            if key == "atmosphere_margin_km":
                ok, rule = val >= 0.0, "non-negative"
            else:
                ok, rule = val > 0.0, "positive"
            if not ok:
                raise ConfigError(f"constant {key} must be finite and {rule}, got {val}")


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
        for key in ("n", "m", "k", "altitude_km", "inclination_rad", "min_elevation_rad"):
            kind = int if key in ("n", "m", "k") else float
            if (val := _json_number(key, given := getattr(self, key), kind)) is not given:
                object.__setattr__(self, key, val)  # an int as its float
        if self.n < 3:
            raise ConfigError(f"n must be >= 3, got {_shown(self.n)}")
        if not (0 <= self.m <= self.n - 1):
            raise ConfigError(
                f"m must be in [0, n-1], got m={_shown(self.m)} for n={_shown(self.n)}")
        if self.k < 0:
            raise ConfigError(f"k must be >= 0, got {_shown(self.k)}")
        if not 0 < self.altitude_km:
            raise ConfigError(f"altitude_km must be positive and finite, got {self.altitude_km}")
        if not (0.0 < self.inclination_rad < math.pi):
            raise ConfigError(f"inclination_rad must be in (0, pi), got {self.inclination_rad}")
        if not (0.0 <= self.min_elevation_rad < math.pi / 2):
            raise ConfigError(f"min_elevation_rad must be in [0, pi/2), got {self.min_elevation_rad}")
        for name in ("period_s", "omega_earth_rad_s", "orbit_radius_km"):
            try:
                value = _json_number(f"derived {name}", getattr(self, name))
            except OverflowError:  # an N - m beyond the float range
                raise ConfigError(f"derived {name} overflows a float") from None
            if value == 0.0:  # a period can underflow to 0
                raise ConfigError(f"derived {name} is zero: {value}")

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


def config_from_dict(doc: dict) -> ConstellationConfig:
    """Build a config from a JSON-style document (angles in degrees)."""
    try:
        n, m, k, altitude_km = [doc[key] for key in ("n", "m", "k", "altitude_km")]
        inclination_deg = _json_number("inclination_deg", doc["inclination_deg"])
        min_elevation_deg = _json_number("min_elevation_deg", doc.get("min_elevation_deg", 0.0))
        overrides = dict((doc.get("constants") or {}).items())
    except KeyError as exc:
        raise ConfigError(f"missing config field: {exc.args[0]}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    bad = set(overrides) - set(PhysicalConstants.__dataclass_fields__)
    if bad:
        raise ConfigError(f"unknown constants override(s): {sorted(bad)}")
    consts = replace(DEFAULT_CONSTANTS, **overrides) if overrides else DEFAULT_CONSTANTS
    # the constructors check n, m, k, the altitude and the constants by the same rule
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
