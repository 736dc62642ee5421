"""Geometry primitives against independent oracles.

The closed-form link range is checked against first-principles positions
(acos of the dot product), never against itself; coverage_range against its
defining equation; min_satellites against the coverage demand it inverts.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from frosette.config import DEFAULT_CONSTANTS, TWO_PI
from frosette.constellation import address_to_elements, orbit_state, sat_id
from frosette.errors import DomainError, InfeasibleError, RangeError
from frosette.geom import (
    LatLon,
    OrbitalElements,
    central_angles,
    closed_form_range,
    coverage_range,
    great_circle_range,
    ground_unit,
    link_length_delay,
    link_range_closed_form,
    min_satellites,
    nearest,
    sat_position_eci,
    slant_range_km,
    subpoint,
    wrap_angle,
    wrap_lon,
)
from conftest import make_config

C = DEFAULT_CONSTANTS


# --- angle wrapping ----------------------------------------------------------


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_wrap_angle_range_and_congruence(x):
    w = wrap_angle(x)
    assert 0.0 <= w < TWO_PI
    # congruent mod 2*pi
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-6)
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-6)


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_wrap_lon_range(x):
    w = wrap_lon(x)
    assert -math.pi <= w < math.pi


def test_wrap_values():
    assert wrap_angle(-0.1) == pytest.approx(TWO_PI - 0.1)
    assert wrap_lon(math.pi) == pytest.approx(-math.pi)
    assert wrap_lon(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


# --- great-circle range -------------------------------------------------------


def _haversine(a: LatLon, b: LatLon) -> float:
    # independent oracle; past a quarter circle it measures from b's antipode,
    # since asin of a half-angle sine near 1 loses half the digits
    def hav(lat, lon):
        s1 = math.sin((lat - a.lat_rad) / 2) ** 2
        s2 = math.cos(a.lat_rad) * math.cos(lat) * math.sin((lon - a.lon_rad) / 2) ** 2
        return 2 * math.asin(min(1.0, math.sqrt(s1 + s2)))

    r = hav(b.lat_rad, b.lon_rad)
    return math.pi - hav(-b.lat_rad, b.lon_rad + math.pi) if r > math.pi / 2 else r


@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_great_circle_matches_haversine(lat1, lon1, lat2, lon2):
    a, b = LatLon(lat1, lon1), LatLon(lat2, lon2)
    r = great_circle_range(a, b)
    assert r == pytest.approx(_haversine(a, b), abs=1e-9)
    assert r == pytest.approx(great_circle_range(b, a), abs=0)


def test_great_circle_extremes():
    p = LatLon(0.3, -1.2)
    assert great_circle_range(p, p) == 0.0
    anti = LatLon(-0.3, -1.2 + math.pi)
    assert great_circle_range(p, anti) == pytest.approx(math.pi, abs=1e-12)
    # accepts raw unit vectors too
    assert great_circle_range(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) == pytest.approx(
        math.pi / 2
    )


# --- orbital positions --------------------------------------------------------


def test_sat_position_basics():
    cfg = make_config(8, 6, 1)
    el = address_to_elements((0, 0), cfg)
    p0 = sat_position_eci(el, 0.0)
    assert np.allclose(p0, [1.0, 0.0, 0.0], atol=1e-15)
    # quarter period: argument of latitude pi/2 -> top of the inclined plane
    p = sat_position_eci(el, el.period_s / 4.0)
    beta = cfg.inclination_rad
    assert np.allclose(p, [0.0, math.cos(beta), math.sin(beta)], atol=1e-12)
    # always a unit vector
    for t in (123.0, 4567.8, 1e5):
        assert np.linalg.norm(sat_position_eci(el, t)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("addr,cfg", [
    ((0, 0), make_config(8, 6, 1)),
    ((5, 3, 1), make_config(7, 2, 2, incl_deg=53.0)),
    ((15, 9, 2, 11), make_config(16, 8, 3, incl_deg=80.0)),
])
def test_array_positions_match_scalar(addr, cfg):
    el = address_to_elements(addr, cfg)
    times = np.concatenate([
        np.linspace(-el.period_s, 3.0 * el.period_s, 997),
        [0.0, el.period_s / 4.0, 1e7 + 0.123],
    ])
    got = orbit_state(cfg).unit_positions(times[:, None], [sat_id(addr, cfg.n)])[:, 0]
    want = np.array([sat_position_eci(el, float(t)) for t in times])
    assert got.shape == (len(times), 3)
    assert np.max(np.abs(got - want)) <= 1e-15
    # central_angles is great_circle_range row by row
    ranges = central_angles(want[:-1], want[1:])
    assert np.allclose(
        ranges, [great_circle_range(a, b) for a, b in zip(want[:-1], want[1:])],
        rtol=0.0, atol=1e-15,
    )


# LatLon(0, 0) and LatLon(1, -3) hold ints, as a LatLon built in Python may
@pytest.mark.parametrize("p", [
    LatLon(0.7, -2.1), LatLon(-1.2, 3.0), LatLon(math.pi / 2, 0.5), LatLon(0, 0), LatLon(1, -3),
])
def test_ground_unit_at_a_time_column_equals_scalar_calls_bit_for_bit(p):
    # sim.run takes numpy's trig over a column of times and associate takes
    # math's at one time; they serve the same satellite only if these agree
    cfg = make_config(8, 6, 1)
    rng = random.Random(4242)
    times = [0.0, -0.5, -86164.1, 1e7, 1e7 + 0.123] + [rng.uniform(-1e7, 1e7) for _ in range(400)]
    got = ground_unit(p, np.array(times)[:, None], cfg)
    want = np.array([ground_unit(p, t, cfg) for t in times])
    assert got.shape == want.shape == (len(times), 3)
    assert got.tobytes() == want.tobytes()


def test_nearest_breaks_exact_ties_to_the_smallest_row():
    rng = np.random.default_rng(31)
    pos = rng.normal(size=(5, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    ground = pos[3].copy()
    tied = pos[[0, 3, 1, 3, 2, 3, 4]]  # rows 1, 3 and 5 are the nearest, exactly tied
    assert int(nearest(tied, ground)) == 1
    assert int(nearest(pos, ground)) == int(np.argmax(pos @ ground)) == 3
    stacked = np.stack([tied, tied[::-1], tied])  # reversed, the tied rows are 1, 3 and 5 again
    grounds = np.stack([ground, ground, pos[0]])
    got = nearest(stacked, grounds)
    assert got.shape == (3,) and got.tolist() == [1, 1, 0]
    stacked[1, 1:] = stacked[1, 0]  # every row of step 1 ties: the first one wins
    assert nearest(stacked, grounds).tolist() == [1, 0, 0]


def test_subpoint_lons_pole_and_wrap_rules():
    # a polar orbit over the pole: the longitude takes the 0 convention
    el = OrbitalElements(0.0, math.pi / 2, 0.0, 6000.0, 7571.0)
    assert subpoint(el, 1500.0, C).lon_rad == 0.0


def test_subpoint_epoch_and_band():
    cfg = make_config(8, 6, 1)
    el = address_to_elements((0, 0), cfg)
    sp = subpoint(el, 0.0, cfg.consts)
    assert sp.lat_rad == pytest.approx(0.0, abs=1e-15)
    assert sp.lon_rad == pytest.approx(0.0, abs=1e-15)
    # latitude never exceeds the inclination
    for t in np.linspace(0.0, cfg.rho * cfg.period_s, 173):
        assert abs(subpoint(el, float(t), cfg.consts).lat_rad) <= cfg.inclination_rad + 1e-12
    # peak latitude reached at quarter period
    peak = subpoint(el, el.period_s / 4.0, cfg.consts)
    assert peak.lat_rad == pytest.approx(cfg.inclination_rad, abs=1e-12)


def test_subpoint_repeats_after_ground_track_period():
    cfg = make_config(8, 5, 0)
    el = address_to_elements((2,), cfg)
    for frac in (0.0, 0.21, 0.5, 0.93):
        t = frac * cfg.period_s
        a = subpoint(el, t, cfg.consts)
        b = subpoint(el, t + cfg.rho * cfg.period_s, cfg.consts)
        assert a.lat_rad == pytest.approx(b.lat_rad, abs=1e-9)
        dlon = (a.lon_rad - b.lon_rad + math.pi) % TWO_PI - math.pi
        assert dlon == pytest.approx(0.0, abs=1e-9)


# --- closed-form link range ----------------------------------------------------


@pytest.mark.parametrize("n,m", [(8, 3), (8, 6), (16, 2), (16, 8), (5, 2)])
def test_link_closed_form_vs_first_principles(n, m):
    # Angle agreement is checked tightly away from the antipodal passages;
    # within ~sqrt(eps) of pi no sin^2(r/2)-based formula can resolve the
    # angle, so there the comparison switches to the chord factor sin(r/2),
    # which is what delays are made of and stays fully conditioned.
    cfg = make_config(n, m, 0)
    worst_angle = 0.0
    worst_chord = 0.0
    times = np.linspace(0.0, cfg.rho * cfg.period_s, 37)
    for i in range(n):
        for j in range(i + 1, n):
            ei = address_to_elements((i,), cfg)
            ej = address_to_elements((j,), cfg)
            for t in times:
                pi_, pj = sat_position_eci(ei, float(t)), sat_position_eci(ej, float(t))
                # atan2 of cross/dot stays well-conditioned near 0 and pi,
                # where acos of the dot product alone loses ~8 digits
                oracle = math.atan2(float(np.linalg.norm(np.cross(pi_, pj))), float(pi_ @ pj))
                got = link_range_closed_form(i, j, float(t), cfg)
                worst_chord = max(worst_chord, abs(math.sin(got / 2) - math.sin(oracle / 2)))
                if oracle < math.pi - 1e-3:
                    worst_angle = max(worst_angle, abs(got - oracle))
    assert worst_angle < 1e-9, f"closed form deviates by {worst_angle:.3e} rad"
    assert worst_chord < 1e-12, f"chord factor deviates by {worst_chord:.3e}"


def test_link_closed_form_symmetry_and_errors():
    cfg = make_config(8, 6, 0)
    assert link_range_closed_form(1, 4, 100.0, cfg) == pytest.approx(
        link_range_closed_form(4, 1, 100.0, cfg), abs=1e-12
    )
    with pytest.raises(DomainError):
        link_range_closed_form(2, 2, 0.0, cfg)
    with pytest.raises(DomainError):
        link_range_closed_form(0, 8, 0.0, cfg)
    with pytest.raises(DomainError, match="closed form out of range"):
        closed_form_range(make_config(8, 3, 0), 1, 2.0)  # a time coupling is a cosine, at most 1
    for t in (math.nan, math.inf, 1e308):  # 2*pi*t/T overflows at 1e308
        with pytest.raises(RangeError):
            link_range_closed_form(1, 4, t, cfg)


# --- chords, slant ranges, coverage --------------------------------------------


def test_link_length_delay():
    length, delay = link_length_delay(math.pi, 1000.0, C)
    assert length == pytest.approx(2 * (C.earth_radius_km + 1000.0))
    assert delay == pytest.approx(length / C.light_speed_km_s)
    assert link_length_delay(0.0, 1000.0, C) == (0.0, 0.0)


def test_slant_range():
    assert slant_range_km(0.0, 550.0, C) == pytest.approx(550.0, abs=1e-9)
    # across a quarter circle: pythagoras
    want = math.sqrt(C.earth_radius_km**2 + (C.earth_radius_km + 550.0) ** 2)
    assert slant_range_km(math.pi / 2, 550.0, C) == pytest.approx(want)


def elevation_angle(r: float, altitude_km: float, consts) -> float:
    """Elevation of a satellite seen across central angle r from the ground:
    the oracle for coverage_range, which inverts it."""
    ratio = consts.earth_radius_km / (consts.earth_radius_km + altitude_km)
    return math.atan2(math.cos(r) - ratio, math.sin(r))


@pytest.mark.parametrize("h,elev_deg", [(550.0, 0.0), (550.0, 25.0), (1200.0, 40.0), (35786.0, 5.0)])
def test_coverage_range_defining_equation(h, elev_deg):
    elev = math.radians(elev_deg)
    r = coverage_range(h, elev, C)
    ratio = C.earth_radius_km / (C.earth_radius_km + h)
    # the returned R solves tan(elev) = (cos R - ratio)/sin R
    assert math.tan(elev) * math.sin(r) == pytest.approx(math.cos(r) - ratio, abs=1e-10)
    # and a satellite at exactly that range is seen at exactly that elevation
    assert elevation_angle(r, h, C) == pytest.approx(elev, abs=1e-9)


def test_coverage_range_monotone_and_errors():
    rs = [coverage_range(h, math.radians(10.0), C) for h in (300, 600, 1200, 2400)]
    assert rs == sorted(rs)
    with pytest.raises(InfeasibleError):
        coverage_range(0.0, 0.0, C)
    for altitude_km in (math.nan, math.inf):
        with pytest.raises(InfeasibleError, match="altitude_km is not finite"):
            coverage_range(altitude_km, 0.0, C)
    with pytest.raises(DomainError):
        coverage_range(500.0, math.pi / 2, C)


def test_elevation_angle_limits():
    h = 800.0
    assert elevation_angle(0.0, h, C) == pytest.approx(math.pi / 2)
    horizon = math.acos(C.earth_radius_km / (C.earth_radius_km + h))
    assert elevation_angle(horizon, h, C) == pytest.approx(0.0, abs=1e-12)


# --- minimum ring size ----------------------------------------------------------


def test_min_satellites_inverts_coverage_altitude():
    # Dual route: min_altitude_coverage(M sats) gives the altitude whose
    # footprint makes exactly M satellites sufficient; min_satellites applied
    # to that footprint must return M, and any smaller footprint must not.
    from frosette.constellation import min_altitude_coverage

    for n, k in ((8, 0), (8, 1), (16, 0), (16, 1)):
        cfg = make_config(n, 1, k, incl_deg=70.0, elev_deg=25.0)
        h_star = min_altitude_coverage(cfg)
        r_star = coverage_range(h_star, cfg.min_elevation_rad, C)
        # exact boundary is knife-edged under rounding; probe both sides
        assert min_satellites(r_star + 1e-6) == cfg.n_sats
        assert min_satellites(r_star * 0.999) > cfg.n_sats


def test_min_satellites_monotone_floor_infeasible():
    grid = np.linspace(0.05, 1.4, 300)
    vals = [min_satellites(float(r)) for r in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:])), "not non-increasing in R"
    assert min(vals) >= 4
    assert min_satellites(1.5) == 4  # wide footprints floor out
    with pytest.raises(InfeasibleError):
        min_satellites(1e-12)
    with pytest.raises(DomainError):
        min_satellites(2.0)
