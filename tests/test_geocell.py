"""Ground-cell algebra: enumeration, point location, anchors, binary tables.

Round-trip checks sample occupied cells (ids actually claimed by ground
points) — for k >= 1 most of the rho^2*N^2k id space names empty border
slivers, which decode to border anchors but are never returned by
locate_point.
"""
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frosette.geocell as geocell_module
from frosette.config import TWO_PI
from frosette.constellation import address_to_elements
from frosette.errors import ConfigError, ParseError, RangeError
from frosette.geocell import (
    Alpha0Table,
    CellId,
    GeoCoord,
    _inverse_row_function,
    _node_offset,
    _row_function,
    _row_representative,
    build_alpha0_tables,
    capacity,
    cell_center,
    cell_count,
    cell_to_location,
    geocoord_to_latlon,
    iter_cells,
    latlon_to_geocoord,
    load_tables,
    locate_point,
    save_tables,
    subdivide,
    validate_cell,
)
from frosette.geom import LatLon, great_circle_range, subpoint
from conftest import make_config

CELLS_CFG = make_config(8, 6, 1, incl_deg=45.0)


# --- combinatorics -------------------------------------------------------------


def test_capacity_triangle():
    n = 8
    rows = [capacity(r, n) for r in range(2 * n - 1)]
    assert rows == [1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1]
    assert sum(rows) == n * n


@pytest.mark.parametrize("n,m,k,want", [(8, 6, 0, 4), (8, 6, 1, 256), (16, 8, 1, 16384)])
def test_cell_count_formula(n, m, k, want):
    cfg = make_config(n, m, k, incl_deg=45.0)
    assert cell_count(cfg) == want


def test_iter_cells_enumerates_formula():
    assert sum(1 for _ in iter_cells(CELLS_CFG)) == 256
    assert sum(1 for _ in iter_cells(CELLS_CFG, level=0)) == 4
    ids = list(iter_cells(CELLS_CFG))
    assert len(set(ids)) == len(ids)
    for cell in ids[:32]:
        validate_cell(cell, CELLS_CFG)


def test_subdivide_and_parent():
    parent = CellId(((1, 0),))
    kids = subdivide(parent, CELLS_CFG)
    assert len(kids) == 64
    assert all(kid.parent() == parent for kid in kids)
    assert len(set(kids)) == 64
    with pytest.raises(RangeError):
        subdivide(kids[0], CELLS_CFG)  # already at max depth
    with pytest.raises(RangeError):
        parent.parent()


def test_validate_cell_errors():
    with pytest.raises(RangeError):
        validate_cell(CellId(((2, 0), (0, 0))), CELLS_CFG)  # level-0 row >= rho
    with pytest.raises(RangeError):
        validate_cell(CellId(((0, 0), (15, 0))), CELLS_CFG)  # row >= 2N-1
    with pytest.raises(RangeError):
        validate_cell(CellId(((0, 0), (0, 1))), CELLS_CFG)  # col >= capacity
    with pytest.raises(RangeError):
        validate_cell(CellId(((0, 0), (0, 0), (0, 0))), CELLS_CFG)  # too deep
    with pytest.raises(RangeError):
        validate_cell(CellId(()), CELLS_CFG)


def test_lattice_requirement():
    steep = make_config(8, 6, 1, incl_deg=70.0)  # rho*cos(70) = 0.68 < 1
    with pytest.raises(ConfigError):
        locate_point(LatLon(0.0, 0.0), steep)
    with pytest.raises(ConfigError):
        build_alpha0_tables(steep)
    with pytest.raises(ConfigError):
        latlon_to_geocoord(LatLon(0.0, 0.0), steep)


# --- coordinate maps -------------------------------------------------------------


@settings(max_examples=150)
@given(
    st.floats(min_value=-math.pi / 2 + 1e-6, max_value=math.pi / 2 - 1e-6),
    st.floats(min_value=0.0, max_value=TWO_PI - 1e-9),
)
def test_forward_inverse_coordinate_round_trip(gamma, alpha):
    p = geocoord_to_latlon(GeoCoord(alpha, gamma % TWO_PI), CELLS_CFG)
    sols = latlon_to_geocoord(p, CELLS_CFG)
    assert not sols.clamped
    assert 1 <= len(sols) <= 2
    # every branch solution maps forward to the same ground point
    for coord in sols:
        q = geocoord_to_latlon(coord, CELLS_CFG)
        assert great_circle_range(p, q) < 1e-9


def test_inverse_branches_are_ascending_and_descending():
    p = LatLon(math.radians(20.0), math.radians(55.0))
    asc, desc = latlon_to_geocoord(p, CELLS_CFG)
    assert math.cos(asc.gamma_rad) > 0  # ascending: gamma in (-pi/2, pi/2)
    assert math.cos(desc.gamma_rad) < 0  # descending: gamma in (pi/2, 3pi/2)


def test_polar_clamp():
    p = LatLon(math.radians(80.0), 1.0)  # above the 45-degree band
    sols = latlon_to_geocoord(p, CELLS_CFG)
    assert sols.clamped
    assert len(sols) == 1
    cell = locate_point(p, CELLS_CFG)
    validate_cell(cell, CELLS_CFG)


# --- row representative (centered residue + border clamp) ------------------------


def test_row_representative_cases():
    # rho=2, N=8, level 1: modulus 16, window ceiling 4
    assert _row_representative(0, 1, 8, 2) == 0
    assert _row_representative(3, 1, 8, 2) == 3
    assert _row_representative(-15, 1, 8, 2) == 1  # wraps to the north side
    assert _row_representative(6, 1, 8, 2) == 4  # empty sliver -> north border
    assert _row_representative(-6, 1, 8, 2) == -4  # empty sliver -> south border
    assert _row_representative(8, 1, 8, 2) == 4  # antipodal tie goes north
    # level 0 is the centered residue mod rho; the rho=2 half-way tie lands south
    assert _row_representative(1, 0, 8, 2) == -1
    assert _row_representative(-1, 0, 8, 2) == -1
    assert _row_representative(2, 0, 8, 2) == 0


# --- alpha0 tables ----------------------------------------------------------------


def test_alpha0_values_shape(tables_cells):
    t = tables_cells
    assert t.n_rows == ((t.rho - 1) * 8) // 2 + 1  # == 5
    assert t.values[0] == 0.0
    assert all(a >= b for a, b in zip(t.values, t.values[1:])), "anchors not non-increasing"
    assert t.alpha0_signed(2) == -t.alpha0_signed(-2)
    with pytest.raises(RangeError):
        t.alpha0_signed(t.n_rows)


def test_alpha0_analytic_residual(tables_geo, cfg_geo):
    # anchors satisfy the analytic row equation f(gamma_d) = d * 2pi/N^k
    # with gamma_d = -rho * alpha0(d), to rounding
    t = tables_geo
    rho, beta = t.rho, t.inclination_rad
    h = TWO_PI / t.n**t.k
    worst = 0.0
    for d in range(t.n_rows):
        alpha0 = t.alpha0_signed(d)
        gamma = -rho * alpha0
        f_hat = 2 * rho * math.atan2(math.cos(beta) * math.sin(gamma), math.cos(gamma)) - 2 * gamma
        target = min(d * h, (rho - 1) * math.pi)
        worst = max(worst, abs(f_hat - target))
    assert worst < 1e-12, f"row-equation residual {worst:.2e} rad"


# bracket width in alpha at which the first-principles oracle stops
ORACLE_TOL_RAD = 1e-10


def _scalar_alpha0_rows(cfg, rows):
    """Row-at-a-time bisection of time on the scalar sub-point of satellite 0,
    the first-principles oracle for build_alpha0_tables; anchors of the given
    rows only, so large tables can be sampled."""
    rho, span = cfg.rho, cfg.n**cfg.k
    half_pitch = math.pi / (rho * span)
    lam_max = (rho - 1) * math.pi / (2.0 * rho)
    el0 = address_to_elements((0,) * (cfg.k + 1), cfg)
    quarter = cfg.period_s / 4.0
    omega_e = cfg.omega_earth_rad_s

    def lon_at(t: float) -> float:
        return subpoint(el0, t, cfg.consts).lon_rad

    values = {}
    for d in rows:
        target = min(d * half_pitch, lam_max)
        lo_t, hi_t = 0.0, quarter
        for _ in range(200):
            mid = 0.5 * (lo_t + hi_t)
            if lon_at(mid) < target:
                lo_t = mid
            else:
                hi_t = mid
            if (hi_t - lo_t) * omega_e * rho < ORACLE_TOL_RAD:
                break
        t_star = 0.5 * (lo_t + hi_t)
        values[d] = -omega_e * t_star
    return values


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_alpha0_lockstep_matches_scalar_bisection(k):
    ms = (lambda n: 1, lambda n: n // 2, lambda n: n - 2)
    inclinations = (35.0, 50.0, 65.0, 80.0)
    for i, n in enumerate(range(5, 17)):
        m, incl = ms[i % 3](n), inclinations[(i + k) % 4]
        if (n - m) * math.cos(math.radians(incl)) <= 1.0:
            incl = 35.0
        cfg = make_config(n, m, k, incl_deg=incl)
        table = build_alpha0_tables(cfg)
        assert table.values[0] == 0.0
        rows = sorted(set(np.linspace(1, table.n_rows - 1, 48).round().astype(int).tolist()))
        want = _scalar_alpha0_rows(cfg, rows)
        for d in rows:
            assert abs(table.values[d] - want[d]) <= ORACLE_TOL_RAD, (n, m, k, incl, d)


def _bisected_row_inverse(target, rho, beta):
    """The former row inverse, 60 bisection steps of f on [-pi/2, pi/2]: the
    reference for the guarded Newton of _inverse_row_function."""
    lo, hi = -math.pi / 2.0, math.pi / 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _row_function(mid, rho, beta) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _row_cases(seed, beta_of):
    """Seeded (target, rho, beta) for N in {5, 8, 12, 16}, rho = N - m over
    m in [0, N-2], with the targets 0 and +/-(rho-1)*pi in every group."""
    rng = random.Random(seed)
    for n in (5, 8, 12, 16):
        for _ in range(150):
            rho = rng.randrange(2, n + 1)
            beta, edge = beta_of(rng, rho), (rho - 1) * math.pi
            for target in (0.0, edge, -edge, rng.uniform(-edge, edge), rng.uniform(-1e-3, 1e-3)):
                yield target, rho, beta


def test_row_inverse_newton_matches_the_bisection():
    worst = 0.0
    for target, rho, beta in _row_cases(31, lambda rng, rho: rng.uniform(0.0, math.acos(1.1 / rho))):
        got = _inverse_row_function(target, rho, beta)
        assert -math.pi / 2.0 <= got <= math.pi / 2.0
        worst = max(worst, abs(got - _bisected_row_inverse(target, rho, beta)))
    assert worst <= 1e-14, f"Newton and bisection differ by {worst:.2e} rad"


def test_row_inverse_newton_near_the_lattice_limit():
    # rho*cos(beta) = 1 + 1e-9: f is flat at 0, so gamma is known only to the
    # rounding of f over its slope and the two inverses differ by up to ~1e-12
    # rad. Compare residuals instead: no larger at 0 and the band edges, and
    # elsewhere larger by no more than the rounding of two evaluations of f
    # (each within 3 ulps of 2*rho*A(gamma)).
    for target, rho, beta in _row_cases(32, lambda rng, rho: math.acos((1.0 + 1e-9) / rho)):
        got, ref = _inverse_row_function(target, rho, beta), _bisected_row_inverse(target, rho, beta)
        assert -math.pi / 2.0 <= got <= math.pi / 2.0
        r_got = abs(_row_function(got, rho, beta) - target)
        r_ref = abs(_row_function(ref, rho, beta) - target)
        exact = target == 0.0 or abs(target) == (rho - 1) * math.pi
        slack = 0.0 if exact else 6 * math.ulp(2 * rho * abs(_node_offset(got, beta)))
        assert r_got <= r_ref + slack, (target, rho, r_got, r_ref)


class _CountingMath:
    """The math module, counting atan2 calls: one per row-inverse iteration."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def atan2(self, y, x):
        self.calls += 1
        return math.atan2(y, x)


def test_row_inverse_stops_on_a_collapsed_bracket_near_the_lattice_limit(monkeypatch):
    # rho*cos(beta) = 1 + 1e-9 and targets within 1e-6 of 0, where f is flat:
    # steps stay far above 1e-15 on rounding noise, and 9 in 10 of these
    # targets used to run to the 60-iteration cap
    counting = _CountingMath()
    monkeypatch.setattr(geocell_module, "math", counting)
    rng, capped = random.Random(33), 0
    for scale in (1e-15, 1e-12, 1e-9, 1e-6):
        for _ in range(100):
            rho = rng.randrange(2, 17)
            beta, target = math.acos((1.0 + 1e-9) / rho), rng.uniform(-scale, scale)
            counting.calls = 0
            got = _inverse_row_function(target, rho, beta)
            capped += counting.calls == 60
            ref = _bisected_row_inverse(target, rho, beta)
            assert abs(_row_function(got, rho, beta) - target) <= (
                abs(_row_function(ref, rho, beta) - target) + 1e-15), (target, rho)
    assert capped <= 8, f"{capped} of 400 targets ran to the iteration cap"


@pytest.mark.parametrize("n,m,k,incl", [(8, 6, 1, 45.0), (16, 8, 3, 70.0), (13, 1, 2, 35.0)])
def test_alpha0_rows_match_the_scalar_row_inverse(n, m, k, incl):
    # the lockstep Newton and cell_center's scalar one agree to rounding:
    # numpy's trig may round a last digit, and so a stop or a step, otherwise
    cfg = make_config(n, m, k, incl_deg=incl)
    table = build_alpha0_tables(cfg)
    rho, h = cfg.rho, TWO_PI / cfg.n**cfg.k
    for d in range(1, table.n_rows):
        want = _inverse_row_function(min(d * h, (rho - 1) * math.pi), rho, cfg.inclination_rad)
        assert abs(-rho * table.values[d] - want) <= 1e-14, (n, m, k, d)


def test_fra0_round_trip(tmp_path, tables_cells):
    path = str(tmp_path / "tables.fra0")
    n_bytes = save_tables(path, tables_cells)
    assert n_bytes == 24 + 8 * tables_cells.n_rows
    loaded = load_tables(path)
    assert (loaded.n, loaded.m, loaded.k) == (8, 6, 1)
    assert loaded.inclination_rad == tables_cells.inclination_rad
    assert np.array_equal(loaded.values, tables_cells.values)


def test_fra0_header_bytes_are_pinned(tmp_path, tables_cells):
    # "FRA0", version 1, N=8, m=6, k=1, 5 rows, inclination pi/4: little-endian
    # u16 fields, a u32 count and an f8, as save_tables has always written them
    path = str(tmp_path / "tables.fra0")
    assert save_tables(path, tables_cells) == 64
    with open(path, "rb") as fh:
        assert fh.read(24).hex() == "46524130010008000600010005000000182d4454fb21e93f"


def test_fra0_rejects_corruption(tmp_path, tables_cells):
    path = str(tmp_path / "tables.fra0")
    save_tables(path, tables_cells)
    with open(path, "rb") as fh:
        raw = fh.read()
    corruptions = [
        raw[:10],  # truncated
        b"XXXX" + raw[4:],  # bad magic
        raw[:4] + b"\x63\x00" + raw[6:],  # bad version
        raw + b"\x00" * 8,  # trailing garbage
    ]
    for blob in corruptions:
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ParseError):
            load_tables(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"values": lambda v: v[:2]},  # cell 0,1/14,0 would move from 0.39 to 6.25 rad
        {"values": lambda v: np.append(v, v[-1])},
        {"n": 2, "m": 0},  # N < 3
        {"m": 8},  # m = N
        {"m": 9},  # m > N
        {"k": 7},  # 8^8 satellites exceed MAX_SATELLITES
        {"inclination_rad": math.nan},
        {"inclination_rad": math.inf},
        {"inclination_rad": 0.0},
        {"inclination_rad": math.pi},
        {"inclination_rad": math.radians(89.0)},  # (N-m)*cos(inclination) <= 1
        {"values": lambda v: np.append(v[:-1], math.nan)},  # the last row not finite
        {"values": lambda v: np.append(v[:-1], -math.inf)},
    ],
)
def test_fra0_rejects_headers_and_values_no_config_writes(tmp_path, tables_cells, fields):
    values = fields.get("values", lambda v: v)(tables_cells.values)
    table = dataclasses.replace(tables_cells, **{**fields, "values": values})
    path = str(tmp_path / "tables.fra0")
    save_tables(path, table)
    with pytest.raises(ParseError):
        load_tables(path)


# --- point location ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
    st.floats(min_value=-math.pi, max_value=math.pi - 1e-12),
)
def test_locate_point_total_and_valid(lat, lon):
    p = LatLon(lat, lon)
    cell = locate_point(p, CELLS_CFG)
    validate_cell(cell, CELLS_CFG)
    assert cell == locate_point(p, CELLS_CFG)  # deterministic


def test_locate_point_hierarchy_every_level():
    deep = make_config(8, 6, 2, incl_deg=45.0)
    mid = make_config(8, 6, 1, incl_deg=45.0)
    flat = make_config(8, 6, 0, incl_deg=45.0)
    import random

    rng = random.Random(99)
    for _ in range(400):
        lat = math.asin(math.sin(deep.inclination_rad) * (2 * rng.random() - 1))
        p = LatLon(lat, rng.uniform(-math.pi, math.pi))
        c2 = locate_point(p, deep)
        c1 = locate_point(p, mid)
        c0 = locate_point(p, flat)
        assert c2.digits[:2] == c1.digits
        assert c1.digits[:1] == c0.digits


def test_locate_point_snap_stability(tables_cells):
    # anchors sit exactly on lattice lines; nanoradian jitter must not move
    # them (occupied cells only: take ids claimed by actual ground points)
    for probe in (LatLon(0.2, 0.3), LatLon(-0.5, 2.0), LatLon(0.55, -2.4)):
        cell = locate_point(probe, CELLS_CFG, tables_cells)
        anchor = geocoord_to_latlon(cell_to_location(cell, 1, tables_cells), CELLS_CFG)
        for dlon in (-1e-9, 0.0, 1e-9):
            p = LatLon(anchor.lat_rad, anchor.lon_rad + dlon)
            assert locate_point(p, CELLS_CFG) == cell


def test_occupied_cell_round_trips(tables_cells):
    import random

    rng = random.Random(4242)
    band = CELLS_CFG.inclination_rad
    seen = set()
    for _ in range(1500):
        p = LatLon(
            math.asin(math.sin(band) * (2 * rng.random() - 1)),
            rng.uniform(-math.pi, math.pi),
        )
        cell = locate_point(p, CELLS_CFG, tables_cells)
        if cell in seen:
            continue
        seen.add(cell)
        center = geocoord_to_latlon(cell_center(cell, tables_cells), CELLS_CFG)
        anchor = geocoord_to_latlon(cell_to_location(cell, 1, tables_cells), CELLS_CFG)
        assert locate_point(center, CELLS_CFG, tables_cells) == cell
        assert locate_point(anchor, CELLS_CFG, tables_cells) == cell
    assert len(seen) >= 100


def test_distinct_cells_have_distinct_centers(tables_cells):
    import random

    rng = random.Random(77)
    band = CELLS_CFG.inclination_rad
    centers = {}
    for _ in range(600):
        p = LatLon(
            math.asin(math.sin(band) * (2 * rng.random() - 1)),
            rng.uniform(-math.pi, math.pi),
        )
        cell = locate_point(p, CELLS_CFG, tables_cells)
        c = cell_center(cell, tables_cells)
        key = (round(c.alpha_rad, 9), round(c.gamma_rad, 9))
        assert centers.setdefault(key, cell) == cell, "two cells share a center"


def test_cell_to_location_trivial_anchors():
    # rho=2, k=0: northern row anchors at the equatorial ascending node
    cfg = make_config(8, 6, 0, incl_deg=45.0)
    tables = build_alpha0_tables(cfg)
    origin = cell_to_location(CellId(((0, 0),)), 0, tables)
    assert origin.alpha_rad == pytest.approx(0.0, abs=1e-12)
    assert origin.gamma_rad == pytest.approx(0.0, abs=1e-12)
    shifted = cell_to_location(CellId(((0, 1),)), 0, tables)
    assert shifted.alpha_rad == pytest.approx(math.pi, abs=1e-12)
    southern = geocoord_to_latlon(cell_to_location(CellId(((1, 0),)), 0, tables), cfg)
    assert southern.lat_rad < 0.0
    with pytest.raises(RangeError):
        cell_to_location(CellId(((0, 0),)), 1, tables)


def test_cell_to_location_prefix_matches_parent(tables_cells):
    cell = CellId(((1, 0), (9, 4)))
    at_parent = cell_to_location(cell, 0, tables_cells)
    direct = cell_to_location(cell.parent(), 0, tables_cells)
    assert at_parent.alpha_rad == pytest.approx(direct.alpha_rad, abs=1e-12)
    assert at_parent.gamma_rad == pytest.approx(direct.gamma_rad, abs=1e-12)
