"""Shared configurations and expensively-built fixtures.

The geocell lattice demands (N-m)*cos(inclination) > 1, which is why the
N=8, m=6 demo runs at 45 degrees while pure-routing demos run at 70.
"""
import math

import pytest

from frosette.config import ConstellationConfig
from frosette.constellation import build
from frosette.geocell import build_alpha0_tables


def make_config(n, m, k, incl_deg=70.0, altitude_km=1200.0, elev_deg=25.0):
    return ConstellationConfig(
        n=n,
        m=m,
        k=k,
        altitude_km=altitude_km,
        inclination_rad=math.radians(incl_deg),
        min_elevation_rad=math.radians(elev_deg),
    )


def ring_graph(topo):
    """node -> neighbour addresses, read from ``topo.edges``: the graph that
    BFS and networkx oracles search."""
    adj = {node: [] for node in topo.nodes}
    for a, b, _layer in topo.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


@pytest.fixture(scope="session")
def cfg_8_1():
    """64-satellite workhorse for routing tests."""
    return make_config(8, 6, 1)


@pytest.fixture(scope="session")
def topo_8_1(cfg_8_1):
    return build(cfg_8_1)


@pytest.fixture(scope="session")
def cfg_cells():
    """Geocell workhorse: rho=2 at 45 degrees."""
    return make_config(8, 6, 1, incl_deg=45.0)


@pytest.fixture(scope="session")
def tables_cells(cfg_cells):
    return build_alpha0_tables(cfg_cells)


@pytest.fixture(scope="session")
def cfg_geo():
    """Geographic-routing workhorse: rho=8 at 70 degrees."""
    return make_config(16, 8, 1, altitude_km=1100.0, elev_deg=0.0)


@pytest.fixture(scope="session")
def tables_geo(cfg_geo):
    return build_alpha0_tables(cfg_geo)


@pytest.fixture(scope="session")
def topo_geo(cfg_geo):
    return build(cfg_geo)
