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

__all__ = [
    "Alpha0Table",
    "BitLayout",
    "CellId",
    "ConfigError",
    "ConstellationConfig",
    "DEFAULT_CONSTANTS",
    "DomainError",
    "Fib",
    "FibEntry",
    "FrosetteError",
    "GeoCoord",
    "GeoRouteResult",
    "GroundAddress",
    "HopMotion",
    "InfeasibleError",
    "LatLon",
    "LayoutError",
    "MultipathResult",
    "OrbitalElements",
    "ParseError",
    "PhysicalConstants",
    "RangeError",
    "SatAddress128",
    "Scenario",
    "SizeRequest",
    "SizeResult",
    "Topology",
    "TraceRecord",
    "address_to_elements",
    "associate",
    "bit_widths",
    "build",
    "build_alpha0_tables",
    "build_fib",
    "cell_center",
    "cell_count",
    "cell_to_location",
    "config_from_dict",
    "config_to_dict",
    "coverage_check",
    "coverage_range",
    "decode",
    "disjoint_paths",
    "encode",
    "fib_lookup",
    "format_address",
    "format_cell_id",
    "format_sat_address",
    "from_colon_hex",
    "geo_route",
    "geocoord_to_latlon",
    "great_circle_range",
    "ground_to_space_rtt",
    "hop_bound",
    "iter_cells",
    "latlon_to_geocoord",
    "link_delay_trace",
    "link_length_delay",
    "link_range_closed_form",
    "load_config",
    "load_scenario",
    "load_tables",
    "locate_point",
    "measure_hop_motions",
    "min_altitude_coverage",
    "min_altitude_stability",
    "min_satellites",
    "parse_cell_id",
    "parse_sat_address",
    "path_hops",
    "ring_step",
    "save_tables",
    "select_size",
    "serving_coord",
    "shortest_path",
    "stability_report",
    "subdivide",
    "subpoint",
    "to_colon_hex",
    "topology_to_dict",
    "topology_to_json",
    "validate_cell",
]
