"""Command-line surface.

Angles cross this boundary in degrees and are converted to radians
immediately; everything below works in radians, seconds, and kilometres.
Errors leave as JSON on stderr: exit 1 for usage problems (bad flags, bad
addresses, malformed input files), exit 2 for domain errors (infeasible or
inconsistent configurations) and for a failed `verify` run.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import verify as verify_checks
from .addressing import format_cell_id, parse_cell_id, parse_sat_address
from .config import load_config
from .constellation import _stream_topology, build, format_address
from .errors import DomainError, FrosetteError, ParseError, RangeError
from .geocell import (
    build_alpha0_tables,
    cell_count,
    cell_to_location,
    geocoord_to_latlon,
    locate_point,
    save_tables,
)
from .geom import LatLon
from .georouting import geo_route
from .planner import SizeRequest, select_size
from .routing import build_fib, path_hops, shortest_path
from .sim import associate, load_scenario, run, write_trace_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


def _error(kind: str, detail, code: int) -> int:
    """Write the one JSON error object to stderr; return the exit code."""
    sys.stderr.write(json.dumps({"error": kind, "detail": str(detail)}) + "\n")
    return code


def _usage_error(message: str) -> None:
    raise SystemExit(_error("usage", message, EXIT_USAGE))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        _usage_error(message)


def _emit(doc: dict) -> None:
    """Write doc to stdout as strict JSON; a NaN or infinity is a DomainError
    and writes nothing."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite JSON: {exc}") from None
    sys.stdout.write(text + "\n")


def _cmd_generate(args) -> int:
    cfg = load_config(args.config)
    topo = build(cfg)
    tables_bytes = None
    if args.tables:
        tables_bytes = save_tables(args.tables, build_alpha0_tables(cfg))
    if args.output:
        with open(args.output, "wb") as fh:
            _stream_topology(topo, fh.write)
        summary = {"nodes": cfg.n_sats, "edges": (cfg.k + 1) * cfg.n_sats, "output": args.output}
        if args.tables:
            summary.update(tables=args.tables, tables_bytes=tables_bytes)
        _emit(summary)
    else:
        _stream_topology(topo, lambda text: sys.stdout.write(text.decode("ascii")))
    return EXIT_OK


def _cmd_route(args) -> int:
    cfg = load_config(args.config)
    if args.geo:
        flags = ("from_lat", "from_lon", "to_lat", "to_lon")
        missing = ["--" + flag.replace("_", "-") for flag in flags if getattr(args, flag) is None]
        if missing:
            _usage_error(f"--geo requires {' '.join(missing)}")
        topo = build(cfg)
        tables = build_alpha0_tables(cfg)
        src = LatLon(math.radians(args.from_lat), math.radians(args.from_lon))
        dst = LatLon(math.radians(args.to_lat), math.radians(args.to_lon))
        serving = associate(src, args.time, topo)
        dst_cell = locate_point(dst, cfg, tables)
        result = geo_route(serving, dst_cell, args.time, cfg, tables)
        _emit(
            {
                "serving": format_address(serving),
                "dst_cell": format_cell_id(dst_cell),
                "path": [format_address(a) for a in result.path],
                "terminal": format_address(result.terminal),
                "hop_count": len(result.path) - 1,
                "delivered": result.delivered,
                "fallback_hops": result.fallback_hops,
                "coverage_violation": result.coverage_violation,
            }
        )
        return EXIT_OK
    if args.src is None or args.dst is None:
        _usage_error("route requires --from and --to (or --geo with lat/lon)")
    topo = build(cfg)
    src = parse_sat_address(args.src, cfg)
    dst = parse_sat_address(args.dst, cfg)
    path = shortest_path(src, dst, topo)
    hops = path_hops(path, cfg)
    _emit(
        {
            "path": [format_address(a) for a in path],
            "hops": [{"layer": layer, "direction": d} for layer, d in hops],
            "hop_count": len(hops),
        }
    )
    return EXIT_OK


def _cmd_fib(args) -> int:
    cfg = load_config(args.config)
    owner = parse_sat_address(args.owner, cfg)
    fib = build_fib(owner, cfg)
    _emit(
        {
            "owner": format_address(owner),
            "entries": [
                {"layer": e.layer, "pattern": e.pattern, "direction": e.direction}
                for e in fib.entries
            ],
            "entry_count": len(fib.entries),
        }
    )
    return EXIT_OK


def _cmd_cells(args) -> int:
    cfg = load_config(args.config)
    if args.count:
        _emit({"cell_count": cell_count(cfg)})
        return EXIT_OK
    if args.locate:
        lat, lon = args.locate
        p = LatLon(math.radians(lat), math.radians(lon))
        cell = locate_point(p, cfg)
        _emit({"cell": format_cell_id(cell), "level": cell.level})
        return EXIT_OK
    cell = parse_cell_id(args.to_location, cfg)
    tables = build_alpha0_tables(cfg)
    level = cell.level if args.level is None else args.level
    coord = cell_to_location(cell, level, tables)
    p = geocoord_to_latlon(coord, cfg)
    _emit(
        {
            "cell": format_cell_id(cell),
            "level": level,
            "alpha_deg": math.degrees(coord.alpha_rad),
            "gamma_deg": math.degrees(coord.gamma_rad),
            "lat_deg": math.degrees(p.lat_rad),
            "lon_deg": math.degrees(p.lon_rad),
        }
    )
    return EXIT_OK


def _cmd_size(args) -> int:
    request = SizeRequest(
        rtt_target_s=args.rtt_ms / 1000.0,
        min_elevation_rad=math.radians(args.elevation_deg),
        base_n=args.base_n,
    )
    result = select_size(request)
    _emit(
        {
            "altitude_km": result.altitude_km,
            "coverage_deg": math.degrees(result.coverage_rad),
            "n_min": result.n_min,
            "k": result.k,
            "n_sats": result.n_sats,
        }
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    records, summary = run(scenario)
    with open(args.trace, "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(records, fh)
    _emit(summary)
    return EXIT_OK


def _cmd_verify(args) -> int:
    failures = verify_checks.run_all(report=print)
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


def _build_parser() -> _Parser:
    parser = _Parser(prog="frosette", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(name="generate", help="config JSON -> topology JSON (+ tables)")
    p.add_argument("--config", required=True, help="constellation config JSON path")
    p.add_argument("--output", help="topology JSON path (default: stdout)")
    p.add_argument("--tables", help="also write binary alpha0 tables here")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser(name="route", help="topological or geographic route")
    p.add_argument("--config", required=True)
    p.add_argument("--from", dest="src", help="source satellite address, e.g. 0.3")
    p.add_argument("--to", dest="dst", help="destination satellite address")
    p.add_argument("--geo", action="store_true", help="route by ground coordinates")
    p.add_argument("--from-lat", type=float, help="source latitude, degrees")
    p.add_argument("--from-lon", type=float, help="source longitude, degrees")
    p.add_argument("--to-lat", type=float, help="destination latitude, degrees")
    p.add_argument("--to-lon", type=float, help="destination longitude, degrees")
    p.add_argument("--time", type=float, default=0.0, help="epoch-relative seconds")
    p.set_defaults(handler=_cmd_route)

    p = sub.add_parser(name="fib", help="forwarding table of one satellite")
    p.add_argument("--config", required=True)
    p.add_argument("--owner", required=True, help="satellite address, e.g. 0.3")
    p.set_defaults(handler=_cmd_fib)

    p = sub.add_parser(name="cells", help="ground cell queries")
    p.add_argument("--config", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true", help="print total cell count")
    mode.add_argument("--locate", nargs=2, type=float, metavar=("LAT", "LON"), help="degrees")
    mode.add_argument("--to-location", metavar="CELLID", help="e.g. 1,0/7,3")
    p.add_argument("--level", type=int, help="target level for --to-location")
    p.set_defaults(handler=_cmd_cells)

    p = sub.add_parser(name="size", help="pick altitude and size for an RTT target")
    p.add_argument("--rtt-ms", type=float, required=True)
    p.add_argument("--elevation-deg", type=float, required=True)
    p.add_argument("--base-n", type=int, required=True)
    p.set_defaults(handler=_cmd_size)

    p = sub.add_parser(name="simulate", help="scenario JSON -> trace CSV + summary")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--trace", required=True, help="trace CSV output path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(name="verify", help="run the invariant and oracle suite")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, RangeError) as exc:
        return _error(type(exc).__name__, exc, EXIT_USAGE)
    except FrosetteError as exc:
        return _error(type(exc).__name__, exc, EXIT_DOMAIN)
    except OSError as exc:
        return _error("io", exc, EXIT_USAGE)


_PARSER = _build_parser()  # built once per process: building costs ~20 parses
if __name__ == "__main__":
    raise SystemExit(main())
