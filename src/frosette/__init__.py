"""F-Rosette constellations: geometry, addressing, routing, and simulation.

The package is organized by concern:

- :mod:`frosette.config` — configuration and physical constants
- :mod:`frosette.geom` — orbits, sub-points, ranges, coverage
- :mod:`frosette.constellation` — recursive structure and inter-satellite links
- :mod:`frosette.addressing` — 128-bit satellite/ground address embedding
- :mod:`frosette.geocell` — trajectory-bounded hierarchical ground cells
- :mod:`frosette.routing` — digit-ring shortest paths, FIBs, disjoint paths
- :mod:`frosette.georouting` — coordinate-based greedy geographic routing
- :mod:`frosette.planner` — constellation sizing from latency targets
- :mod:`frosette.sim` — time-driven delay/handoff simulator
- :mod:`frosette.verify` — self-contained invariant and oracle checks
"""
from types import ModuleType as _ModuleType

from .addressing import (
    BitLayout,
    GroundAddress,
    SatAddress128,
    bit_widths,
    decode,
    encode,
    format_cell_id,
    format_sat_address,
    from_colon_hex,
    parse_cell_id,
    parse_sat_address,
    to_colon_hex,
)
from .config import (
    DEFAULT_CONSTANTS,
    ConstellationConfig,
    PhysicalConstants,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .constellation import (
    Topology,
    address_to_elements,
    build,
    format_address,
    ground_to_space_rtt,
    min_altitude_coverage,
    min_altitude_stability,
    stability_report,
    topology_to_dict,
    topology_to_json,
)
from .errors import (
    ConfigError,
    DomainError,
    FrosetteError,
    InfeasibleError,
    LayoutError,
    ParseError,
    RangeError,
)
from .geocell import (
    Alpha0Table,
    CellId,
    GeoCoord,
    build_alpha0_tables,
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
from .geom import (
    LatLon,
    OrbitalElements,
    coverage_range,
    great_circle_range,
    link_length_delay,
    link_range_closed_form,
    min_satellites,
    subpoint,
)
from .georouting import (
    GeoRouteResult,
    HopMotion,
    coverage_check,
    geo_route,
    measure_hop_motions,
    serving_coord,
)
from .planner import SizeRequest, SizeResult, select_size
from .routing import (
    Fib,
    FibEntry,
    MultipathResult,
    build_fib,
    disjoint_paths,
    fib_lookup,
    hop_bound,
    path_hops,
    ring_step,
    shortest_path,
)
from .sim import Scenario, TraceRecord, associate, link_delay_trace, load_scenario

__version__ = "1.0.0"

# the public names are the ones imported above; test_public_surface_is_pinned pins them
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
