"""Sizing pipeline: RTT budget -> altitude -> footprint -> count -> depth.

The published design points sit knife-edge on their own rounded RTT figures
(8.40 ms buys 1259.13 km but 64 satellites need 1259.52 km), so the frozen
examples use budgets a hair above the threshold and separately pin the honest
behavior just below it.
"""
import math

import pytest

from frosette.config import DEFAULT_CONSTANTS
from frosette.constellation import min_altitude_coverage
from frosette.errors import ConfigError, InfeasibleError
from frosette.geom import coverage_range, min_satellites
from frosette.planner import SizeRequest, select_size
from conftest import make_config


def _req(rtt_ms, elev_deg, base_n):
    return SizeRequest(
        rtt_target_s=rtt_ms / 1000.0,
        min_elevation_rad=math.radians(elev_deg),
        base_n=base_n,
    )


def test_request_validation():
    with pytest.raises(ConfigError):
        _req(-1.0, 25, 8)
    with pytest.raises(ConfigError):
        _req(8.4, 95, 8)
    with pytest.raises(ConfigError):
        _req(8.4, 25, 2)
    for rtt_ms in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            _req(rtt_ms, 25, 8)


def test_reference_design_points():
    res = select_size(_req(8.41, 25, 8))
    assert (res.k, res.n_sats, res.n_min) == (1, 64, 64)
    assert res.altitude_km == pytest.approx(0.00841 * DEFAULT_CONSTANTS.light_speed_km_s / 2)
    res = select_size(_req(79.05, 25, 8))
    assert (res.k, res.n_sats) == (0, 8)
    res = select_size(_req(2.24, 25, 8))
    assert (res.k, res.n_sats) == (2, 512)
    res = select_size(_req(28.5, 25, 16))
    assert (res.k, res.n_sats) == (0, 16)
    res = select_size(_req(3.37, 25, 16))
    assert (res.k, res.n_sats) == (1, 256)


def test_knife_edge_budgets_round_up():
    # exactly at the published rounded figures, the altitude bought is below
    # the coverage minimum of the smaller design, so sizing honestly steps up
    at_840 = select_size(_req(8.40, 25, 8))
    assert (at_840.k, at_840.n_sats) == (2, 512)
    at_790 = select_size(_req(79.0, 25, 8))
    assert (at_790.k, at_790.n_sats) == (1, 64)


def test_result_internal_consistency():
    res = select_size(_req(8.41, 25, 8))
    assert res.coverage_rad == pytest.approx(
        coverage_range(res.altitude_km, math.radians(25), DEFAULT_CONSTANTS)
    )
    assert res.n_min == min_satellites(res.coverage_rad)
    assert res.n_sats == 8 ** (res.k + 1)
    assert res.n_sats >= res.n_min
    assert res.k == 0 or 8**res.k < res.n_min  # smallest sufficient depth


@pytest.mark.parametrize("rtt_ms", [2.5, 3.4, 8.41, 12.0, 30.0, 79.05])
def test_sufficiency_invariant(rtt_ms):
    # the returned altitude must actually cover the ground with the returned
    # satellite count at the requested elevation mask
    res = select_size(_req(rtt_ms, 25, 8))
    cfg = make_config(8, 1, res.k, elev_deg=25.0, altitude_km=res.altitude_km)
    assert min_altitude_coverage(cfg) <= res.altitude_km


def test_monotone_in_budget():
    sizes = [select_size(_req(ms, 25, 8)).n_sats for ms in (80.0, 30.0, 10.0, 8.41, 5.0, 2.3, 1.0)]
    assert sizes == sorted(sizes)


def test_tighter_elevation_needs_more():
    lo = select_size(_req(8.41, 10, 8))
    hi = select_size(_req(8.41, 40, 8))
    assert hi.n_min >= lo.n_min
    assert hi.coverage_rad < lo.coverage_rad


def test_infeasible_budget():
    # a 0.1-nanosecond budget buys centimetres of altitude: the footprint
    # degenerates and no finite ring can tile the sphere
    with pytest.raises(InfeasibleError):
        select_size(_req(1e-7, 25, 8))
