"""One rule for every number at a boundary (``config._json_number``).

A field that takes an int takes an int only; a float field takes an int or a
float that converts to a finite float; a bool or a string is neither. Each
boundary raises its own ``FrosetteError`` subclass. The fuzz below calls every
public name with extreme values in its number slots and valid objects
everywhere else: each call returns a value or raises a ``FrosetteError``.
"""
import dataclasses
import itertools
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import frosette
from frosette import (
    Alpha0Table, CellId, ConstellationConfig, FrosetteError, GeoCoord, LatLon, OrbitalElements,
    PhysicalConstants, RangeError, Scenario, SizeRequest, address_to_elements, associate,
    bit_widths, build, build_alpha0_tables, build_fib, cell_center, cell_count, cell_to_location,
    config_from_dict, coverage_check, coverage_range, decode, disjoint_paths, encode,
    format_address, format_cell_id, format_sat_address, from_colon_hex, geo_route,
    geocoord_to_latlon, great_circle_range, ground_to_space_rtt, iter_cells, latlon_to_geocoord,
    link_delay_trace, link_range_closed_form, locate_point, min_satellites, parse_cell_id,
    parse_sat_address, select_size, serving_coord, shortest_path, subdivide, subpoint,
    to_colon_hex, validate_cell,
)
from frosette.config import DEFAULT_CONSTANTS as C
from frosette.geocell import _validate_digits
from frosette.sim import delay_oracle
from conftest import make_config
from test_cli_fuzz import EXTREMES

CFG = make_config(8, 6, 1, incl_deg=45.0)  # rho = 2, the geocell lattice holds
TOPO, TABLES, LAYOUT = build(CFG), build_alpha0_tables(CFG), bit_widths(CFG)
POINT = LatLon(0.5, 0.3)

# --- calls each boundary refused badly before the gate ---------------------------------

REFUSED = {
    # an int beyond the float range (raised OverflowError)
    "constant-int-beyond-float": lambda: PhysicalConstants(earth_radius_km=10**400),
    "latlon-int-beyond-float": lambda: LatLon(10**400, 0),
    "geocoord-int-beyond-float": lambda: GeoCoord(10**400, 0),
    "coverage-altitude-int-beyond-float": lambda: coverage_range(10**400, 0, C),
    "delay-oracle-time-int": lambda: delay_oracle(TOPO, 10**400, (0, 0), (1, 1)),
    "associate-time-int": lambda: associate(POINT, 10**400, TOPO),
    "closed-form-time-int": lambda: link_range_closed_form(0, 1, 10**400, CFG),
    # not a number (raised TypeError)
    "latlon-string": lambda: LatLon("x", 0),
    "latlon-none": lambda: LatLon(None, 0),
    "geocoord-string": lambda: GeoCoord("x", 0),
    "config-n-string": lambda: dataclasses.replace(CFG, n="8"),
    "config-altitude-string": lambda: dataclasses.replace(CFG, altitude_km="x"),
    "delay-oracle-time-string": lambda: delay_oracle(TOPO, "x", (0, 0), (1, 1)),
    "associate-time-none": lambda: associate(POINT, None, TOPO),
    "size-rtt-string": lambda: SizeRequest("x", 0.1, 8),
    # a zero period (raised ZeroDivisionError)
    "subpoint-zero-period": lambda: subpoint(OrbitalElements(0.0, 1.0, 0.0, 0.0, 7571.0), 0.0, C),
    # accepted
    "build-integral-float-n": lambda: build(dataclasses.replace(CFG, n=8.0)),
    "config-bool-inclination": lambda: dataclasses.replace(CFG, inclination_rad=True),
    "size-rtt-int-beyond-float": lambda: SizeRequest(10**400, 0.1, 8),
    "size-float-base-n": lambda: SizeRequest(0.01, 0.1, 8.5),
    "shortest-path-bool-digit": lambda: shortest_path((True, 0), (1, 1), TOPO),
    # integers are ints: digits and 128-bit fields
    "fib-float-digit": lambda: build_fib((0.0, 0), CFG),
    "encode-bool-prefix": lambda: encode((0, 0), LAYOUT, prefix=True),
    "colon-hex-bool": lambda: to_colon_hex(True),
    "cell-bool-digit": lambda: _validate_digits(CellId(((True, 0),)), 8, 2, 1),
    "cell-float-digit": lambda: _validate_digits(CellId(((0, 0), (1.0, 0))), 8, 2, 1),
    # an int too long to print in decimal (its message raised ValueError)
    "shortest-path-int-beyond-str": lambda: shortest_path((10**5000, 0), (1, 1), TOPO),
    "colon-hex-int-beyond-str": lambda: to_colon_hex(10**5000),
    "encode-prefix-int-beyond-str": lambda: encode((0, 0), LAYOUT, prefix=10**5000),
    "cell-int-beyond-str": lambda: _validate_digits(CellId(((0, 0), (1, 10**5000))), 8, 2, 1),
    "config-k-int-beyond-str": lambda: dataclasses.replace(CFG, k=-(10**5000)),
    "build-k-int-beyond-str": lambda: build(dataclasses.replace(CFG, k=10**5000)),
    "cell-count-n-int-beyond-str": lambda: cell_count(
        dataclasses.replace(CFG, n=2**20000, m=2**20000 - 3)),  # rho = 3 keeps the config valid
    "alpha0-table-int-beyond-str": lambda: Alpha0Table(8, 6, 10**5000, 0.8, TABLES.values),
    "alpha0-row-int-beyond-str": lambda: TABLES.alpha0_signed(10**5000),
    "size-base-n-int-beyond-str": lambda: SizeRequest(0.01, 0.1, -(10**5000)),
    "select-size-int-beyond-str": lambda: select_size(SizeRequest(0.01, 0.1, 10**5000), C),
    "format-address-int-beyond-str": lambda: format_address((10**5000, 0)),
    "format-sat-address-int-beyond-str": lambda: format_sat_address((0, 10**5000)),
    "format-cell-id-int-beyond-str": lambda: format_cell_id(CellId(((0, 0), (1, 10**5000)))),
    # bare-number helpers off the benchmark paths (raised TypeError)
    "min-satellites-string": lambda: min_satellites("x"),
    "ground-rtt-string": lambda: ground_to_space_rtt("x", C),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_boundaries_refuse_values_that_are_not_their_numbers(call):
    with pytest.raises(FrosetteError):
        call()


@pytest.mark.parametrize("name", ["format-address", "format-sat-address", "format-cell-id"])
def test_formatters_name_a_digit_too_long_to_print(name):
    with pytest.raises(RangeError, match="<int of 16610 bits>.* has a digit too long to print"):
        REFUSED[f"{name}-int-beyond-str"]()


def test_float_fields_keep_the_float_an_int_converts_to():
    cfg = dataclasses.replace(CFG, altitude_km=1200, consts=PhysicalConstants(earth_radius_km=6400))
    assert type(cfg.altitude_km) is float and type(cfg.consts.earth_radius_km) is float
    assert cfg == dataclasses.replace(CFG, altitude_km=1200.0,
                                      consts=PhysicalConstants(earth_radius_km=6400.0))


def test_alpha0_table_values_are_a_read_only_copy():
    values = TABLES.values.copy()
    table = dataclasses.replace(TABLES, values=values)
    values[1] = 9.0  # the caller's array stays its own
    assert table.values[1] == TABLES.values[1]
    with pytest.raises(ValueError):
        table.values[1] = 9.0


# --- every public name: fuzzed, or exempt for a reason ---------------------------------

X = st.sampled_from(EXTREMES)


def num(lo, hi):
    return st.one_of(X, st.floats(lo, hi))


def integer(lo, hi):
    return st.one_of(X, st.integers(lo, hi))


DIGIT = integer(0, 7)
ADDRESS = st.tuples(DIGIT, DIGIT)
CELL = st.one_of(
    st.tuples(st.tuples(integer(0, 1), integer(0, 1))),
    st.tuples(st.tuples(integer(0, 1), integer(0, 1)), st.tuples(integer(0, 14), integer(0, 7))),
).map(CellId)
TIME = num(0.0, 1e5)
ANGLE = num(-1.5, 1.5)


def _latlon(d):
    return LatLon(d(ANGLE), d(num(-3.1, 3.1)))


def _elements(d):
    return OrbitalElements(d(num(0.0, 6.2)), d(num(0.1, 3.0)), d(num(0.0, 6.2)),
                           d(num(100.0, 1e5)), d(num(6400.0, 1e5)))


def _window(d):
    start, step = d(TIME), d(num(1.0, 600.0))
    end = start + step * d(st.integers(0, 9)) if type(start) is type(step) is float else d(X)
    return start, d(st.one_of(st.just(end), X)), step


def _size_request(d):
    return SizeRequest(d(num(0.001, 0.5)), d(ANGLE), d(integer(3, 16)))


def _config_doc(d):
    return {"n": d(integer(3, 8)), "m": d(integer(0, 7)), "k": d(integer(0, 2)),
            "altitude_km": d(num(300.0, 3000.0)), "inclination_deg": d(num(20.0, 89.0)),
            "min_elevation_deg": d(num(0.0, 40.0)),
            "constants": {"earth_radius_km": d(num(1.0, 1e6))}}


def _distinct(d):
    src, dst = d(ADDRESS), d(ADDRESS)
    assume(src != dst)  # equal endpoints are a ValueError by design
    return src, dst


FUZZED = {
    "Alpha0Table": lambda d: Alpha0Table(d(integer(3, 9)), d(integer(0, 8)), d(integer(0, 2)),
                                         d(num(0.1, 1.5)), TABLES.values),
    "CellId": lambda d: d(CELL).level,
    "ConstellationConfig": lambda d: ConstellationConfig(
        d(integer(3, 9)), d(integer(0, 8)), d(integer(0, 2)), d(num(300.0, 3000.0)),
        d(num(0.1, 3.0)), d(num(0.0, 1.5))),
    "GeoCoord": lambda d: GeoCoord(d(num(0.0, 6.2)), d(num(0.0, 6.2))),
    "LatLon": _latlon,
    "OrbitalElements": _elements,
    "PhysicalConstants": lambda d: PhysicalConstants(*(d(num(1.0, 1e6)) for _ in range(4))),
    "Scenario": lambda d: Scenario(CFG, *_window(d), {"a": POINT}, (("a", "a"),), d(integer(0, 9))),
    "SizeRequest": _size_request,
    "address_to_elements": lambda d: address_to_elements(d(ADDRESS), CFG),
    "associate": lambda d: associate(_latlon(d), d(TIME), TOPO),
    "build_fib": lambda d: build_fib(d(ADDRESS), CFG),
    "cell_center": lambda d: cell_center(d(CELL), TABLES),
    "cell_to_location": lambda d: cell_to_location(d(CELL), d(integer(0, 1)), TABLES),
    "config_from_dict": lambda d: config_from_dict(_config_doc(d)),
    "coverage_check": lambda d: coverage_check(d(ADDRESS), _latlon(d), d(TIME), CFG),
    "coverage_range": lambda d: coverage_range(d(num(100.0, 1e5)), d(ANGLE), C),
    "decode": lambda d: decode(d(integer(0, (1 << 128) - 1)), LAYOUT, CFG),
    "disjoint_paths": lambda d: disjoint_paths(*_distinct(d), TOPO),
    "encode": lambda d: encode(d(st.one_of(ADDRESS, CELL)), LAYOUT,
                               prefix=d(integer(0, (1 << 64) - 1)), suffix=d(integer(0, 9))),
    "format_address": lambda d: format_address(d(ADDRESS)),
    "format_cell_id": lambda d: format_cell_id(d(CELL)),
    "format_sat_address": lambda d: format_sat_address(d(ADDRESS)),
    "from_colon_hex": lambda d: from_colon_hex(d(st.text("0123456789abcdefxX: ", max_size=40))),
    "geo_route": lambda d: geo_route(d(ADDRESS), d(CELL), d(TIME), CFG, TABLES),
    "geocoord_to_latlon": lambda d: geocoord_to_latlon(GeoCoord(d(ANGLE), d(ANGLE)), CFG),
    "great_circle_range": lambda d: great_circle_range(_latlon(d), _latlon(d)),
    "ground_to_space_rtt": lambda d: ground_to_space_rtt(d(num(100.0, 1e5)), C),
    "iter_cells": lambda d: list(itertools.islice(iter_cells(CFG, d(integer(0, 1))), 3)),
    "latlon_to_geocoord": lambda d: latlon_to_geocoord(_latlon(d), CFG),
    "link_delay_trace": lambda d: link_delay_trace((d(ADDRESS), d(ADDRESS)), _window(d), TOPO),
    "link_range_closed_form": lambda d: link_range_closed_form(
        d(integer(0, 7)), d(integer(0, 7)), d(TIME), CFG),
    "locate_point": lambda d: locate_point(_latlon(d), CFG),
    "min_satellites": lambda d: min_satellites(d(num(0.01, 1.5))),
    "parse_cell_id": lambda d: parse_cell_id(d(st.text("0123456789,/ ", max_size=12)), CFG),
    "parse_sat_address": lambda d: parse_sat_address(d(st.text("0123456789. ", max_size=8)), CFG),
    "select_size": lambda d: select_size(_size_request(d), C),
    "serving_coord": lambda d: serving_coord(d(ADDRESS), d(TIME), CFG),
    "shortest_path": lambda d: shortest_path(d(ADDRESS), d(ADDRESS), TOPO),
    "subdivide": lambda d: subdivide(d(CELL), CFG),
    "subpoint": lambda d: subpoint(_elements(d), d(TIME), C),
    "to_colon_hex": lambda d: to_colon_hex(d(integer(0, (1 << 128) - 1))),
    "validate_cell": lambda d: validate_cell(d(CELL), CFG),
}

_RECORD = "a record the library builds and reads back; it checks nothing itself"
_CONFIG_ONLY = "takes a checked config or topology only: no number to fuzz"
_FILE = "reads or writes a file; the CLI fuzz and the FRA0 tests cover its bytes"
_BARE = "a bare-number helper: floats or arrays in, no gate (ROADMAP item 7)"
EXEMPT = {
    **dict.fromkeys(["ConfigError", "DomainError", "FrosetteError", "InfeasibleError",
                     "LayoutError", "ParseError", "RangeError"], "an exception class"),
    "DEFAULT_CONSTANTS": "a value, not a callable",
    **dict.fromkeys(["BitLayout", "Fib", "FibEntry", "GeoRouteResult", "GroundAddress",
                     "HopMotion", "MultipathResult", "SatAddress128", "SizeResult",
                     "TraceRecord"], _RECORD),
    **dict.fromkeys(["Topology", "bit_widths", "build", "build_alpha0_tables", "cell_count",
                     "config_to_dict", "hop_bound", "measure_hop_motions",
                     "min_altitude_coverage", "min_altitude_stability", "stability_report",
                     "topology_to_dict", "topology_to_json"], _CONFIG_ONLY),
    **dict.fromkeys(["load_config", "load_scenario", "load_tables", "save_tables"], _FILE),
    **dict.fromkeys(["link_length_delay", "ring_step"], _BARE),
    "fib_lookup": "the per-hop lookup: its caller validated the destination, and a check per "
                  "hop would cost ring-routing (ROADMAP item 7)",
    "path_hops": "a path that is not a chain of hops is a ValueError by design",
}


def test_every_public_name_is_fuzzed_or_exempt_for_a_reason():
    assert not set(FUZZED) & set(EXEMPT)
    assert sorted(FUZZED.keys() | EXEMPT.keys()) == sorted(frosette.__all__)


@pytest.mark.parametrize("name", sorted(FUZZED))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_public_calls_return_or_raise_a_frosette_error(name, data):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            FUZZED[name](data.draw)
        except FrosetteError:
            pass
    assert [str(w.message) for w in caught] == []
