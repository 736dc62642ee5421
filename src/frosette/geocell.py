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
first cell corner: the row's phase gamma = f^-1(min(d*h, (rho-1)*pi)) at the
deepest pitch h, which is where satellite 0's track reaches the row, and
alpha0 = -gamma/rho.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig, _json_number
from .constellation import MAX_SATELLITES, check_size
from .errors import ConfigError, DomainError, ParseError, RangeError, _shown
from .geom import LatLon, wrap_angle, wrap_lon

FRA0_MAGIC = b"FRA0"
FRA0_VERSION = 1
# magic, version, N, m, k, row count, inclination (rad); the little-endian f8 rows follow
_FRA0_HEADER = struct.Struct("<4sHHHHId")


@dataclass(frozen=True)
class GeoCoord:
    """Ground coordinate (alpha, gamma), both in [0, 2*pi); RangeError unless finite."""

    alpha_rad: float
    gamma_rad: float

    def __post_init__(self) -> None:
        _json_number("alpha_rad", self.alpha_rad, error=RangeError)
        _json_number("gamma_rad", self.gamma_rad, error=RangeError)


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
    if not (type(r0) is int and type(c0) is int and 0 <= r0 < rho and 0 <= c0 < rho):
        raise RangeError(f"level-0 digit {_shown(cell.digits[0])} out of range [0, {rho})")
    for lvl in range(1, cell.level + 1):
        row, col = cell.digits[lvl]
        if not (type(row) is int and 0 <= row < 2 * n - 1):
            raise RangeError(f"level-{lvl} row {_shown(row)} out of range [0, {2 * n - 1})")
        if not (type(col) is int and 0 <= col < capacity(row, n)):
            raise RangeError(f"level-{lvl} col {_shown(col)} exceeds capacity "
                             f"{capacity(row, n)} of row {row}")


def validate_cell(cell: CellId, cfg: ConstellationConfig) -> None:
    _validate_digits(cell, cfg.n, cfg.rho, cfg.k)


def _require_lattice(rho: int, inclination_rad: float) -> None:
    if rho * math.cos(inclination_rad) <= 1.0:
        raise ConfigError(
            "geocell lattice requires (N-m)*cos(inclination) > 1; "
            f"got (N-m)={rho}, inclination={inclination_rad:.4f} rad"
        )


def _span(cfg: ConstellationConfig) -> int:
    """N^k, the deepest level's cells per level-0 cell side; DomainError past
    2^1000, where the cell pitch 2*pi/N^k leaves the float range."""
    if cfg.k * (cfg.n.bit_length() - 1) > 1000 or (span := cfg.n**cfg.k).bit_length() > 1000:
        raise DomainError(f"N^k with N={_shown(cfg.n)}, k={_shown(cfg.k)} exceeds 2^1000")
    return span


def cell_count(cfg: ConstellationConfig) -> int:
    return cfg.rho**2 * _span(cfg) ** 2


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
    if not (type(level) is int and 0 <= level <= cfg.k):
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
    _require_lattice(cfg.rho, cfg.inclination_rad)
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
    Southern rows mirror: alpha0(-d) = -alpha0(d). ConfigError unless a config
    build_alpha0_tables takes has this shape; values become a read-only copy.
    """

    n: int
    m: int
    k: int
    inclination_rad: float
    values: np.ndarray

    def __post_init__(self) -> None:
        n, m, k = (_json_number(key, getattr(self, key), int) for key in ("n", "m", "k"))
        if n < 3 or not 0 <= m < n or not 0 <= k < MAX_SATELLITES.bit_length() \
                or n ** (k + 1) > MAX_SATELLITES:
            raise ConfigError(f"no config of at most {MAX_SATELLITES} satellites has "
                              f"N={_shown(n)}, m={_shown(m)}, k={_shown(k)}")
        if not 0.0 < _json_number("inclination_rad", self.inclination_rad) < math.pi:
            raise ConfigError(f"table inclination {self.inclination_rad} rad is not in (0, pi)")
        _require_lattice(n - m, self.inclination_rad)
        values = np.array(self.values, dtype=np.float64)
        if values.shape != ((rows := _row_count(n - m, n**k)),):
            raise ConfigError(f"table holds {len(values)} rows; N={n}, m={m}, k={k} has {rows}")
        if not np.isfinite(values).all():
            raise ConfigError("table holds a value that is not finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def rho(self) -> int:
        return self.n - self.m

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def alpha0_signed(self, global_row: int) -> float:
        if abs(global_row) >= self.n_rows:
            raise RangeError(f"row {_shown(global_row)} outside table (+/-{self.n_rows - 1})")
        if global_row >= 0:
            return float(self.values[global_row])
        return -float(self.values[-global_row])


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


def _row_count(rho: int, span: int) -> int:
    """Rows of an alpha0 table: the northern rows of the deepest level, row 0 included."""
    return ((rho - 1) * span + 1) // 2 + 1


def build_alpha0_tables(cfg: ConstellationConfig) -> Alpha0Table:
    """Precompute row anchors from the row equation.

    Row d's anchor phase is gamma = f^-1(min(d*h, (rho-1)*pi)) at the deepest
    pitch h = 2*pi/N^k, and alpha0 = -gamma/rho: satellite 0's track meets
    the row there. All rows run, in lockstep, the guarded Newton iteration of
    cell_center's scalar inverse; a row that stops keeps its value. numpy's trig
    is not math's: at N=16, m=8, k=3 and 70 degrees, 463 of 14,337 values differ,
    by <= 2.8e-17 rad; over 50-80 degrees, 263-982 of them, by <= 5.6e-17 rad.
    """
    check_size(cfg)  # about N^(k+1)/2 rows
    _require_lattice(cfg.rho, cfg.inclination_rad)
    rho, cb, span = cfg.rho, math.cos(cfg.inclination_rad), cfg.n**cfg.k
    n_rows = _row_count(rho, span)
    target = np.minimum(np.arange(n_rows) * (TWO_PI / span), (rho - 1) * math.pi)
    gamma = np.clip(target / (2.0 * rho * cb - 2.0), -math.pi / 2.0, math.pi / 2.0)
    # the live rows' ids, values, brackets and targets, compacted as rows stop
    rows, g = np.arange(n_rows), gamma.copy()
    lo, hi = np.full(n_rows, -math.pi / 2.0), np.full(n_rows, math.pi / 2.0)
    for _ in range(60):
        c, s = np.cos(g), np.sin(g)
        r = 2.0 * rho * np.arctan2(cb * s, c) - 2.0 * g - target
        lo, hi = np.where(r < 0.0, g, lo), np.where(r < 0.0, hi, g)
        step = r / (2.0 * rho * cb / (c * c + cb * cb * s * s) - 2.0)
        g, done = g - step, (np.abs(step) <= 1e-15) | (hi - lo <= np.spacing(np.abs(g)))
        gamma[rows[done]] = np.clip(g[done], lo[done], hi[done])
        live = ~done
        rows, g, lo, hi, target = rows[live], g[live], lo[live], hi[live], target[live]
        g = np.where((lo <= g) & (g <= hi), g, 0.5 * (lo + hi))
        if rows.size == 0:
            break
    gamma[rows] = g  # rows still bisecting after 60 steps keep their last value
    values = -gamma / rho
    values[0] = 0.0
    return Alpha0Table(
        n=cfg.n, m=cfg.m, k=cfg.k, inclination_rad=cfg.inclination_rad, values=values
    )


def save_tables(path: str, table: Alpha0Table) -> int:
    """Write the FRA0 binary; returns the byte count."""
    header = _FRA0_HEADER.pack(
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
    """Read an FRA0 file; ParseError unless :func:`build_alpha0_tables` could have written it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_size = _FRA0_HEADER.size
    if len(raw) < head_size:
        raise ParseError(f"table file truncated: {len(raw)} bytes")
    magic, version, n, m, k, count, incl = _FRA0_HEADER.unpack_from(raw)
    if magic != FRA0_MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {FRA0_MAGIC!r}")
    if version != FRA0_VERSION:
        raise ParseError(f"unsupported table version {version}")
    expected = head_size + 8 * count
    if len(raw) != expected:
        raise ParseError(f"table file size {len(raw)} != expected {expected}")
    try:
        return Alpha0Table(n=n, m=m, k=k, inclination_rad=incl,
                           values=np.frombuffer(raw, dtype="<f8", offset=head_size))
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


# --- cell <-> location ----------------------------------------------------


def _cell_lattice(cell: CellId, level: int, tables: Alpha0Table) -> tuple[int, int, float]:
    """(column index a, row representative, pitch 2*pi/N^level) of the cell's
    prefix at `level`, its digits checked against the table: one walk of the digits."""
    n, rho = tables.n, tables.rho
    _validate_digits(cell, n, rho, tables.k)
    if not (type(level) is int and 0 <= level <= cell.level):
        raise RangeError(f"target level {_shown(level)} not in [0, {cell.level}]")
    row0, a = cell.digits[0]
    d = (rho - 1) // 2 - row0
    for row, col in cell.digits[1 : level + 1]:
        doff = (n - 1) - row
        d = n * d + doff
        a = n * a + col + max(0, -doff)
    return a, _row_representative(d, level, n, rho), TWO_PI / n**level


def cell_to_location(cell: CellId, target_level: int, tables: Alpha0Table) -> GeoCoord:
    """Anchor coordinate of (the target_level prefix of) a cell.

    alpha accumulates alpha0 of the row plus col * 2*pi/((N-m)*N^level) per
    level; gamma is the row anchor's phase, tied to alpha0 by the track slope.
    """
    a, rep, h = _cell_lattice(cell, target_level, tables)
    fine = rep * tables.n ** (tables.k - target_level)
    limit = tables.n_rows - 1
    # Rows past the track's turning point saturate at the border anchor.
    alpha0 = tables.alpha0_signed(min(max(fine, -limit), limit))
    alpha = a * h / tables.rho + alpha0
    gamma = -tables.rho * alpha0
    return GeoCoord(wrap_angle(alpha), wrap_angle(gamma))


def _inverse_row_function(target: float, rho: int, beta: float) -> float:
    """f^-1(target) on [-pi/2, pi/2] by guarded Newton. Under the lattice condition
    f' = 2*rho*cos(beta)/(cos^2 g + cos^2(beta) sin^2 g) - 2 > 0, so the sign of
    f - target keeps a bracket; a Newton point outside it bisects. A step below 1e-15,
    or a bracket within an ulp of g (f is flat near the lattice limit), stops it; that
    test comes first (a last step may land just outside) and clamps into the bracket."""
    cb, lo, hi = math.cos(beta), -math.pi / 2.0, math.pi / 2.0
    g = min(max(target / (2.0 * rho * cb - 2.0), lo), hi)
    for _ in range(60):
        c, s = math.cos(g), math.sin(g)
        r = 2.0 * rho * math.atan2(cb * s, c) - 2.0 * g - target
        lo, hi = (g, hi) if r < 0.0 else (lo, g)
        step = r / (2.0 * rho * cb / (c * c + cb * cb * s * s) - 2.0)
        if abs(step) <= 1e-15 or hi - lo <= math.ulp(g):
            return min(max(g - step, lo), hi)
        g = g - step if lo <= g - step <= hi else 0.5 * (lo + hi)
    return g


def cell_center(cell: CellId, tables: Alpha0Table) -> GeoCoord:
    """An interior representative point of a cell.

    For rows well inside the band this is the diamond midpoint. Border rows
    only partially overlap the band, so the row's phase interval is clipped
    to the band before taking midpoints; the returned point then still lies
    strictly inside the cell's claimed region.
    """
    rho = tables.rho
    a, rep, h = _cell_lattice(cell, cell.level, tables)
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
    point falls. The window must comfortably exceed the anchors' error
    after amplification by the row function's slope (~2*rho^2 x), hence
    microradians.
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
    _require_lattice(cfg.rho, cfg.inclination_rad)
    rho, n, k, span = cfg.rho, cfg.n, cfg.k, _span(cfg)
    gamma, alpha, _ = _ascending_branch(p, cfg)
    u = math.fmod(gamma + rho * alpha, TWO_PI * rho)
    if u < 0.0:
        u += TWO_PI * rho
    w = u + _row_function(gamma, rho, cfg.inclination_rad)
    h = TWO_PI / span
    a_idx = _snap_floor(u, h) % (rho * span)
    b_idx = _snap_floor(w, h)

    d0_max = (rho - 1) // 2
    div = span
    a_prev, b_prev = a_idx // div, b_idx // div
    digits = [(d0_max - _row_representative(b_prev - a_prev, 0, n, rho), a_prev)]
    for _lvl in range(1, k + 1):
        div //= n
        a_cur, b_cur = a_idx // div, b_idx // div
        i = a_cur - n * a_prev
        j = b_cur - n * b_prev
        digits.append(((n - 1) - (j - i), min(i, j)))
        a_prev, b_prev = a_cur, b_cur
    return CellId(tuple(digits))
