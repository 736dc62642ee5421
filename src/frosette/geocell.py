"""Hierarchical geographical cells bounded by sub-point trajectories.

Ground tracks of a ground-track-repeat constellation form two families of
curves (ascending and descending passes). Both families are level sets of
linear functions of the cell coordinates:

    u = gamma + rho * alpha          (constant along an ascending pass)
    w = u + f(gamma)                 (constant along a descending pass)

with rho = N - m and f(gamma) = 2*rho*A(gamma) - 2*gamma, where A is the
in-orbit longitude offset atan2(cos(beta)*sin(gamma), cos(gamma)). f is odd
and strictly increasing precisely when rho*cos(beta) > 1, which this module
requires. Cells are the integer boxes of (u, w) at step 2*pi/N^level. The row
of a cell is the floor difference floor(w/h) - floor(u/h); at the coarsest
level that difference is reduced to its centered residue mod rho, because the
descending strips wrap the torus (the strip reached northward over the band
edge is the same strip that returns from the south). One consequence is
honest and documented: digit combinations whose implied row falls outside the
band's reach name empty border slivers; they resolve to the nearest border
row rather than erroring. The alpha0 tables store the alpha of each row's
first cell corner, found by bisecting the sub-point longitude of satellite 0
along its track; every row bisects in lockstep over numpy arrays, and each
row stops under the same per-row tolerance rule as a scalar bisection would.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig
from .constellation import address_to_elements, check_size
from .errors import ConfigError, ParseError, RangeError
from .geom import LatLon, check_latlon, subpoint_lons, wrap_angle, wrap_lon

ALPHA0_BISECT_TOL_RAD = 1e-10
FRA0_MAGIC = b"FRA0"
FRA0_VERSION = 1


@dataclass(frozen=True)
class GeoCoord:
    """Ground coordinate (alpha, gamma), both in [0, 2*pi)."""

    alpha_rad: float
    gamma_rad: float


@dataclass(frozen=True)
class CellId:
    """Hierarchical cell digits: one (row, col) pair per level."""

    digits: tuple[tuple[int, int], ...]

    @property
    def level(self) -> int:
        return len(self.digits) - 1

    def parent(self) -> "CellId":
        if self.level == 0:
            raise RangeError("level-0 cell has no parent")
        return CellId(self.digits[:-1])


def capacity(row: int, n: int) -> int:
    """Column capacity of a sub-cell row: triangular, 1..N..1 over 2N-1 rows."""
    return n - abs(row - (n - 1))


def _validate_digits(cell: CellId, n: int, rho: int, k: int) -> None:
    if not cell.digits:
        raise RangeError("cell has no digits")
    if cell.level > k:
        raise RangeError(f"cell level {cell.level} exceeds config depth {k}")
    r0, c0 = cell.digits[0]
    if not (0 <= r0 < rho and 0 <= c0 < rho):
        raise RangeError(f"level-0 digit {cell.digits[0]} out of range [0, {rho})")
    for lvl in range(1, cell.level + 1):
        row, col = cell.digits[lvl]
        if not (0 <= row < 2 * n - 1):
            raise RangeError(f"level-{lvl} row {row} out of range [0, {2 * n - 1})")
        if not (0 <= col < capacity(row, n)):
            raise RangeError(
                f"level-{lvl} col {col} exceeds capacity {capacity(row, n)} of row {row}"
            )


def validate_cell(cell: CellId, cfg: ConstellationConfig) -> None:
    _validate_digits(cell, cfg.n, cfg.rho, cfg.k)


def _require_lattice(cfg: ConstellationConfig) -> None:
    if cfg.rho * math.cos(cfg.inclination_rad) <= 1.0:
        raise ConfigError(
            "geocell lattice requires (N-m)*cos(inclination) > 1; "
            f"got (N-m)={cfg.rho}, inclination={cfg.inclination_rad:.4f} rad"
        )


def cell_count(cfg: ConstellationConfig) -> int:
    return cfg.rho**2 * cfg.n ** (2 * cfg.k)


def subdivide(parent: CellId, cfg: ConstellationConfig) -> list[CellId]:
    """The N^2 children of a cell, enumerated row-major over the triangle."""
    validate_cell(parent, cfg)
    if parent.level >= cfg.k:
        raise RangeError(f"cell already at maximum depth {cfg.k}")
    out = []
    for row in range(2 * cfg.n - 1):
        for col in range(capacity(row, cfg.n)):
            out.append(CellId(parent.digits + ((row, col),)))
    return out


def iter_cells(cfg: ConstellationConfig, level: int | None = None):
    """Yield every cell id at the given level (default: deepest)."""
    if level is None:
        level = cfg.k
    if not (0 <= level <= cfg.k):
        raise RangeError(f"level must be in [0, {cfg.k}]")
    rho = cfg.rho
    frontier = [CellId(((r, c),)) for r in range(rho) for c in range(rho)]
    for _ in range(level):
        frontier = [child for cell in frontier for child in subdivide(cell, cfg)]
    yield from frontier


# --- coordinate geometry -------------------------------------------------


def _node_offset(gamma: float, beta: float) -> float:
    # longitude offset A(gamma) from the ascending node along the track
    return math.atan2(math.cos(beta) * math.sin(gamma), math.cos(gamma))


def _row_function(gamma: float, rho: int, beta: float) -> float:
    # f(gamma) = 2*rho*A(gamma) - 2*gamma; odd, increasing when rho*cos(beta) > 1
    return 2.0 * rho * _node_offset(gamma, beta) - 2.0 * gamma


def geocoord_to_latlon(coord: GeoCoord, cfg: ConstellationConfig) -> LatLon:
    """Forward map of a ground coordinate to geodetic position."""
    beta = cfg.inclination_rad
    lat = math.asin(math.sin(beta) * math.sin(coord.gamma_rad))
    lon = wrap_lon(coord.alpha_rad + _node_offset(coord.gamma_rad, beta))
    return LatLon(lat, lon)


@dataclass(frozen=True)
class GeoCoordSolutions:
    """Branch solutions of the inverse map, with clamp metadata."""

    coords: tuple[GeoCoord, ...]
    clamped: bool

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, idx):
        return self.coords[idx]


def _ascending_branch(p: LatLon, cfg: ConstellationConfig) -> tuple[float, float, bool]:
    """(gamma, alpha, clamped) of the ascending-pass representation of p."""
    beta = cfg.inclination_rad
    ratio = math.sin(p.lat_rad) / math.sin(beta)
    clamped = abs(ratio) > 1.0
    gamma = math.asin(max(-1.0, min(1.0, ratio)))
    alpha = wrap_angle(p.lon_rad - _node_offset(gamma, beta))
    return gamma, alpha, clamped


def latlon_to_geocoord(p: LatLon, cfg: ConstellationConfig) -> GeoCoordSolutions:
    """Both (alpha, gamma) representations of a point; poleward inputs clamp."""
    _require_lattice(cfg)
    gamma_a, alpha_a, clamped = _ascending_branch(p, cfg)
    asc = GeoCoord(alpha_a, wrap_angle(gamma_a))
    if abs(gamma_a) >= math.pi / 2 - 1e-15:
        return GeoCoordSolutions((asc,), clamped)
    offset = _node_offset(gamma_a, cfg.inclination_rad)
    desc = GeoCoord(
        wrap_angle(alpha_a + 2.0 * offset - math.pi),
        wrap_angle(math.pi - gamma_a),
    )
    return GeoCoordSolutions((asc, desc), clamped)


# --- alpha0 tables --------------------------------------------------------


@dataclass(frozen=True)
class Alpha0Table:
    """Row-anchor alphas for the deepest level; coarser levels are strides.

    values[d] is the alpha of the first cell of global northern row d at
    level k (signed radians, slightly negative by the epoch convention).
    Southern rows mirror: alpha0(-d) = -alpha0(d).
    """

    n: int
    m: int
    k: int
    inclination_rad: float
    values: np.ndarray

    @property
    def rho(self) -> int:
        return self.n - self.m

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def alpha0_signed(self, global_row: int) -> float:
        if abs(global_row) >= self.n_rows:
            raise RangeError(
                f"row {global_row} outside table (+/-{self.n_rows - 1})"
            )
        if global_row >= 0:
            return float(self.values[global_row])
        return -float(self.values[-global_row])

    def level_rows(self, level: int) -> np.ndarray:
        """Northern-row anchors visible at a coarser level (strided view)."""
        if not (0 <= level <= self.k):
            raise RangeError(f"level must be in [0, {self.k}]")
        return self.values[:: self.n ** (self.k - level)]

    def tables_by_level(self) -> list[np.ndarray]:
        return [self.level_rows(level) for level in range(self.k + 1)]


def _row_representative(d: int, level: int, n: int, rho: int) -> int:
    """Centered residue of a decoded row index, clamped into the band's reach.

    Row indices are cyclic in the descending-strip winding, so the physical
    row of a digit chain is the residue nearest zero. Residues beyond the row
    function's range name empty border slivers; they clamp to the nearest
    border row.
    """
    modulus = rho * n**level
    x_ceil = ((rho - 1) * n**level + 1) // 2
    rep = (d + x_ceil) % modulus - x_ceil
    if rep > x_ceil:
        north_excess = rep - x_ceil
        south_excess = modulus - rep - x_ceil
        rep = x_ceil if north_excess <= south_excess else -x_ceil
    return rep


def build_alpha0_tables(cfg: ConstellationConfig) -> Alpha0Table:
    """Precompute row anchors by tracking satellite 0's sub-point.

    Row d's anchor sits where the track's longitude reaches d * half the cell
    longitude pitch; the time of that crossing is found by bisection on the
    first-principles sub-point longitude (monotone on [0, T/4] under the
    lattice condition), then alpha0 = -omega_E * t. All rows bisect in
    lockstep, one array of longitudes per step; each row stops on its own
    once its bracket is narrower than ALPHA0_BISECT_TOL_RAD in alpha
    ((hi - lo) * omega_E * rho), and a stopped row keeps its bracket.
    """
    check_size(cfg)  # about N^(k+1)/2 rows
    _require_lattice(cfg)
    rho, span = cfg.rho, cfg.n**cfg.k
    num = (rho - 1) * span
    n_rows = (num + 1) // 2 + 1
    half_pitch = math.pi / (rho * span)
    lam_max = (rho - 1) * math.pi / (2.0 * rho)
    el0 = address_to_elements((0,) * (cfg.k + 1), cfg)
    omega_e = cfg.omega_earth_rad_s

    target = np.minimum(np.arange(1, n_rows) * half_pitch, lam_max)
    lo = np.zeros(n_rows - 1)
    hi = np.full(n_rows - 1, cfg.period_s / 4.0)
    active = np.arange(n_rows - 1)
    for _ in range(200):
        if not active.size:
            break
        lo_a, hi_a = lo[active], hi[active]
        mid = 0.5 * (lo_a + hi_a)
        below = subpoint_lons(el0, mid, cfg.consts) < target[active]
        lo_a = np.where(below, mid, lo_a)
        hi_a = np.where(below, hi_a, mid)
        lo[active], hi[active] = lo_a, hi_a
        active = active[(hi_a - lo_a) * omega_e * rho >= ALPHA0_BISECT_TOL_RAD]
    values = np.empty(n_rows, dtype=np.float64)
    values[0] = 0.0
    values[1:] = -omega_e * (0.5 * (lo + hi))
    return Alpha0Table(
        n=cfg.n, m=cfg.m, k=cfg.k, inclination_rad=cfg.inclination_rad, values=values
    )


def save_tables(path: str, table: Alpha0Table) -> int:
    """Write the FRA0 binary; returns the byte count."""
    header = struct.pack(
        "<4sHHHHId",
        FRA0_MAGIC,
        FRA0_VERSION,
        table.n,
        table.m,
        table.k,
        table.n_rows,
        table.inclination_rad,
    )
    payload = table.values.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return len(header) + len(payload)


def load_tables(path: str) -> Alpha0Table:
    with open(path, "rb") as fh:
        raw = fh.read()
    head_size = struct.calcsize("<4sHHHHId")
    if len(raw) < head_size:
        raise ParseError(f"table file truncated: {len(raw)} bytes")
    magic, version, n, m, k, count, incl = struct.unpack("<4sHHHHId", raw[:head_size])
    if magic != FRA0_MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {FRA0_MAGIC!r}")
    if version != FRA0_VERSION:
        raise ParseError(f"unsupported table version {version}")
    expected = head_size + 8 * count
    if len(raw) != expected:
        raise ParseError(f"table file size {len(raw)} != expected {expected}")
    values = np.frombuffer(raw[head_size:], dtype="<f8").copy()
    return Alpha0Table(n=n, m=m, k=k, inclination_rad=incl, values=values)


def tables_to_dict(table: Alpha0Table) -> dict:
    return {
        "n": table.n,
        "m": table.m,
        "k": table.k,
        "inclination_deg": math.degrees(table.inclination_rad),
        "levels": [
            {"level": lvl, "alpha0_rad": [float(v) for v in rows]}
            for lvl, rows in enumerate(table.tables_by_level())
        ],
    }


# --- cell <-> location ----------------------------------------------------


def _digits_to_lattice(cell: CellId, n: int, rho: int, target_level: int):
    """Reconstruct (column index a, signed global row d) at target_level."""
    d0_max = (rho - 1) // 2
    row0, col0 = cell.digits[0]
    d = d0_max - row0
    a = col0
    for lvl in range(1, target_level + 1):
        row, col = cell.digits[lvl]
        doff = (n - 1) - row
        i = col + max(0, -doff)
        d = n * d + doff
        a = n * a + i
    return a, d


def cell_to_location(cell: CellId, target_level: int, tables: Alpha0Table) -> GeoCoord:
    """Anchor coordinate of (the target_level prefix of) a cell.

    alpha accumulates alpha0 of the row plus col * 2*pi/((N-m)*N^level) per
    level; gamma is the row anchor's phase, tied to alpha0 by the track slope.
    """
    n, rho = tables.n, tables.rho
    _validate_digits(cell, n, rho, tables.k)
    if not (0 <= target_level <= cell.level):
        raise RangeError(f"target level {target_level} not in [0, {cell.level}]")
    a, d = _digits_to_lattice(cell, n, rho, target_level)
    rep = _row_representative(d, target_level, n, rho)
    fine = rep * n ** (tables.k - target_level)
    limit = tables.n_rows - 1
    # Rows past the track's turning point saturate at the border anchor.
    if fine >= 0:
        alpha0 = float(tables.values[min(fine, limit)])
    else:
        alpha0 = -float(tables.values[min(-fine, limit)])
    h = TWO_PI / n**target_level
    alpha = a * h / rho + alpha0
    gamma = -rho * alpha0
    return GeoCoord(wrap_angle(alpha), wrap_angle(gamma))


def _inverse_row_function(target: float, rho: int, beta: float) -> float:
    # f is strictly increasing on [-pi/2, pi/2] under the lattice condition
    lo, hi = -math.pi / 2.0, math.pi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _row_function(mid, rho, beta) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cell_center(cell: CellId, tables: Alpha0Table) -> GeoCoord:
    """An interior representative point of a cell.

    For rows well inside the band this is the diamond midpoint. Border rows
    only partially overlap the band, so the row's phase interval is clipped
    to the band before taking midpoints; the returned point then still lies
    strictly inside the cell's claimed region.
    """
    n, rho = tables.n, tables.rho
    _validate_digits(cell, n, rho, tables.k)
    level = cell.level
    a, d = _digits_to_lattice(cell, n, rho, level)
    rep = _row_representative(d, level, n, rho)
    h = TWO_PI / n**level
    f_edge = (rho - 1) * math.pi
    f_lo = max(-f_edge, (rep - 1) * h)
    f_hi = min(f_edge, (rep + 1) * h)
    f_mid = 0.5 * (f_lo + f_hi)
    gamma = _inverse_row_function(f_mid, rho, tables.inclination_rad)
    shift = f_mid - rep * h
    u_mid = a * h + 0.5 * (h - shift)
    return GeoCoord(wrap_angle((u_mid - gamma) / rho), wrap_angle(gamma))


GRID_SNAP_RAD = 1e-6


def _snap_floor(x_rad: float, h: float) -> int:
    """floor(x/h), except values within GRID_SNAP_RAD of a boundary round.

    The snap keeps lattice-exact inputs deterministically lower-inclusive at
    every level: coarse lattice lines are a subset of fine ones and the
    window is fixed in radians, so all levels agree on which side such a
    point falls. The window must comfortably exceed the anchor-table
    tolerance after amplification by the row function's slope (~2*rho^2 x),
    hence microradians rather than the table's 1e-10.
    """
    q = x_rad / h
    r = round(q)
    if abs(x_rad - r * h) < GRID_SNAP_RAD:
        return int(r)
    return math.floor(q)


def locate_point(
    p: LatLon, cfg: ConstellationConfig, tables: Alpha0Table | None = None
) -> CellId:
    """Deepest cell containing p; boundaries are half-open, lower-inclusive.

    Poleward points (|lat| > inclination) clamp into the adjacent border row.
    The tables argument is accepted for call-site symmetry but the quantizer
    needs only the lattice arithmetic.
    """
    check_latlon(p)
    _require_lattice(cfg)
    rho, n, k = cfg.rho, cfg.n, cfg.k
    span = n**k
    gamma, alpha, _ = _ascending_branch(p, cfg)
    u = math.fmod(gamma + rho * alpha, TWO_PI * rho)
    if u < 0.0:
        u += TWO_PI * rho
    w = u + _row_function(gamma, rho, cfg.inclination_rad)
    h = TWO_PI / span
    a_idx = _snap_floor(u, h) % (rho * span)
    b_idx = _snap_floor(w, h)

    d0_max = (rho - 1) // 2
    half = rho // 2
    div = span
    a_prev, b_prev = a_idx // div, b_idx // div
    d0 = (b_prev - a_prev + half) % rho - half
    digits = [(d0_max - d0, a_prev)]
    for _lvl in range(1, k + 1):
        div //= n
        a_cur, b_cur = a_idx // div, b_idx // div
        i = a_cur - n * a_prev
        j = b_cur - n * b_prev
        digits.append(((n - 1) - (j - i), min(i, j)))
        a_prev, b_prev = a_cur, b_cur
    return CellId(tuple(digits))
