"""Time-driven emulation: association, delay-optimal oracle, stretch traces.

Every delay is computed from satellite geometry at the query instant; the
oracle runs an exact minimum-delay search over the same snapshot, so the
stretch column measures only the routing scheme's detour, never modeling
slack. Ground legs are charged identically to both routes.

A snapshot is one call to the config's ``constellation.OrbitState``; ground
points enter as inertial vectors (``geom.ground_unit``), and every range,
coverage test and link delay is ``geom.central_angles`` of the two.
"""
from __future__ import annotations

import csv
import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import ConstellationConfig, config_from_dict, config_to_dict, load_json
from .constellation import (
    SatAddress, Topology, build, format_address, orbit_state, ring_table, sat_id,
    validate_address,
)
from .errors import ConfigError, ParseError, RangeError
from .geom import LatLon, central_angles, check_finite, check_latlon, ground_unit
from .geom import link_length_delay, slant_range_km
from .georouting import _coverage_radius
from .routing import shortest_path

TRACE_COLUMNS = (
    "t",
    "experiment",
    "frosette_hops",
    "frosette_delay_s",
    "oracle_hops",
    "oracle_delay_s",
    "stretch",
    "src_sat",
    "dst_sat",
    "handoff",
    "flag",
)


@dataclass(frozen=True)
class Scenario:
    config: ConstellationConfig
    start_s: float
    end_s: float
    step_s: float
    endpoints: dict[str, LatLon]
    experiments: tuple[tuple[str, str], ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.step_s <= 0:
            raise ConfigError(f"step_s must be positive, got {self.step_s}")
        if self.end_s < self.start_s:
            raise ConfigError("window is empty: end_s < start_s")
        for src, dst in self.experiments:
            for name in (src, dst):
                if name not in self.endpoints:
                    raise ConfigError(f"experiment endpoint {name!r} is not defined")


@dataclass(frozen=True)
class TraceRecord:
    t: float
    experiment: str
    frosette_hops: int
    frosette_delay_s: float
    oracle_hops: int
    oracle_delay_s: float
    stretch: float
    src_sat: SatAddress
    dst_sat: SatAddress
    handoff: bool
    flag: str = ""

    def to_row(self) -> list:
        return [
            repr(self.t),
            self.experiment,
            self.frosette_hops,
            repr(self.frosette_delay_s),
            self.oracle_hops,
            repr(self.oracle_delay_s),
            repr(self.stretch),
            format_address(self.src_sat),
            format_address(self.dst_sat),
            int(self.handoff),
            self.flag,
        ]


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario from a JSON-style document; malformed or non-finite values
    raise ParseError, inconsistent ones ConfigError."""
    try:
        cfg = config_from_dict(data["config"])
        window = data["window"]
        endpoints = {
            name: LatLon(math.radians(ep["lat_deg"]), math.radians(ep["lon_deg"]))
            for name, ep in data["endpoints"].items()
        }
        experiments = tuple((e["src"], e["dst"]) for e in data["experiments"])
        seed = int(os.environ.get("FROSETTE_SEED", data.get("seed", 0)))
        start_s = float(window["start_s"])
        end_s = float(window["end_s"])
        step_s = float(window["step_s"])
    except KeyError as exc:
        raise ParseError(f"scenario is missing key {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scenario value: {exc}") from None
    for name, value in (("start_s", start_s), ("end_s", end_s), ("step_s", step_s)):
        if not math.isfinite(value):
            raise ParseError(f"window {name} must be finite, got {value}")
    for name, p in endpoints.items():
        try:
            check_latlon(p)
        except RangeError as exc:
            raise ParseError(f"endpoint {name!r}: {exc}") from None
    return Scenario(
        config=cfg,
        start_s=start_s,
        end_s=end_s,
        step_s=step_s,
        endpoints=endpoints,
        experiments=experiments,
        seed=seed,
    )


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(load_json(path))


# --- geometry snapshots -----------------------------------------------------


def _link_delays(a: np.ndarray, b: np.ndarray, cfg: ConstellationConfig) -> np.ndarray:
    """One-way delays of the links between unit vectors a and b."""
    return link_length_delay(central_angles(a, b), cfg.altitude_km, cfg.consts)[1]


def _edge_delays(topo: Topology, pos: np.ndarray) -> list[float]:
    """Per-edge one-way delay at one snapshot, indexed by ``ring_table`` edge id:
    edge i*(k+1)+L joins satellite i to its +1 neighbour on layer L."""
    cfg = topo.config
    tails = pos.repeat(cfg.k + 1, axis=0)
    return _link_delays(tails, pos[ring_table(cfg)[0][:, 0::2].ravel()], cfg).tolist()


def _ground_leg_delay(r: float, cfg: ConstellationConfig) -> float:
    """Ground-to-satellite delay across central angle r."""
    return slant_range_km(r, cfg.altitude_km, cfg.consts) / cfg.consts.light_speed_km_s


def _path_delay(pos: np.ndarray, rows: list[int], cfg: ConstellationConfig) -> float:
    if len(rows) < 2:
        return 0.0
    hops = _link_delays(pos[rows[:-1]], pos[rows[1:]], cfg)
    total = 0.0
    for d in hops.tolist():  # in path order, as the oracle accumulates
        total += d
    return total


def _min_delay_path(
    adj: list, delays: list[float], src: int, dst: int
) -> tuple[list[int], float]:
    """Dijkstra over node indices; ties break to the smaller index."""
    dist = [math.inf] * len(adj)
    prev = [-1] * len(adj)
    done = [False] * len(adj)
    dist[src] = 0.0
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, node = pop(heap)
        if done[node]:
            continue
        if node == dst:
            break
        done[node] = True
        for nb, e in adj[node]:
            nd = d + delays[e]
            if nd < dist[nb]:
                dist[nb] = nd
                prev[nb] = node
                push(heap, (nd, nb))
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path, dist[dst]


def _step_times(start: float, end: float, step: float) -> list[float]:
    """Sample instants start + i*step through end (no accumulated rounding)."""
    steps = int(math.floor((end - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(steps)]


def _ids(addrs: list[SatAddress], cfg: ConstellationConfig) -> list[int]:
    """Satellite ids of addresses, each validated first."""
    for a in addrs:
        validate_address(a, cfg)
    return [sat_id(a, cfg.n) for a in addrs]


def associate(p: LatLon, t: float, topo: Topology) -> SatAddress:
    """Physically nearest satellite; ties break to the smallest address."""
    check_latlon(p, t)
    cfg = topo.config
    dots = orbit_state(cfg).unit_positions(t) @ ground_unit(p, t, cfg)
    return topo.nodes[int(np.argmax(dots))]


def delay_oracle(
    topo: Topology, t: float, src: SatAddress, dst: SatAddress
) -> tuple[list[SatAddress], float]:
    """Exact minimum-propagation-delay satellite path at the time-t snapshot."""
    check_finite(t)  # NaN delays would leave dst unreached
    if src == dst:
        return [src], 0.0
    delays = _edge_delays(topo, orbit_state(topo.config).unit_positions(t))
    adj = topo.adjacency(ids=True)
    path, delay = _min_delay_path(adj, delays, *_ids([src, dst], topo.config))
    return [topo.nodes[i] for i in path], delay


def path_delay(path: list[SatAddress], t: float, topo: Topology) -> float:
    """In-space propagation delay of a node sequence at the time-t snapshot."""
    check_finite(t)
    cfg = topo.config
    return _path_delay(orbit_state(cfg).unit_positions(t), _ids(path, cfg), cfg)


def link_delay_trace(
    edge: tuple[SatAddress, SatAddress],
    window: tuple[float, float, float],
    topo: Topology,
) -> list[tuple[float, float]]:
    """First-principles delay series for one inter-satellite link.

    Samples fall at start + i*step, the same instants :func:`run` uses.
    """
    a, b = edge
    if not topo.has_edge(a, b):
        raise RangeError(f"{a} -- {b} is not a topology edge")
    start, end, step = window
    check_finite(start, end, step)
    if step <= 0 or end < start:
        raise ConfigError("window must be non-empty with positive step")
    cfg = topo.config
    times = _step_times(start, end, step)
    pos = orbit_state(cfg).unit_positions(np.array(times)[:, None], _ids([a, b], cfg))
    return list(zip(times, _link_delays(pos[:, 0], pos[:, 1], cfg).tolist()))


# --- the experiment loop ----------------------------------------------------


def run(scenario: Scenario) -> tuple[list[TraceRecord], dict]:
    """Per step and experiment: associate, route, price both paths, record.

    Each step takes one position snapshot; association, coverage flags,
    ground legs, the F-Rosette path and the oracle all read from it.
    """
    cfg = scenario.config
    topo = build(cfg)
    state = orbit_state(cfg)
    adj = topo.adjacency(ids=True)
    radius = _coverage_radius(cfg)
    records: list[TraceRecord] = []
    last_pair: dict[str, tuple[SatAddress, SatAddress]] = {}

    for t in _step_times(scenario.start_s, scenario.end_s, scenario.step_s):
        pos = state.unit_positions(t)
        delays = _edge_delays(topo, pos)
        for src_name, dst_name in scenario.experiments:
            exp = f"{src_name}->{dst_name}"
            src_g = ground_unit(scenario.endpoints[src_name], t, cfg)
            dst_g = ground_unit(scenario.endpoints[dst_name], t, cfg)
            si, di = int(np.argmax(pos @ src_g)), int(np.argmax(pos @ dst_g))
            src_sat, dst_sat = topo.nodes[si], topo.nodes[di]
            src_r, dst_r = central_angles(pos[[si, di]], np.stack([src_g, dst_g])).tolist()
            flag = "coverage_violation" if src_r > radius or dst_r > radius else ""

            fro_path = shortest_path(src_sat, dst_sat, topo)
            legs = _ground_leg_delay(src_r, cfg) + _ground_leg_delay(dst_r, cfg)
            fro_delay = legs + _path_delay(pos, [sat_id(a, cfg.n) for a in fro_path], cfg)
            oracle_path, oracle_space = _min_delay_path(adj, delays, si, di)
            oracle_delay = legs + oracle_space

            pair = (src_sat, dst_sat)
            handoff = exp in last_pair and last_pair[exp] != pair
            last_pair[exp] = pair
            records.append(
                TraceRecord(
                    t=t,
                    experiment=exp,
                    frosette_hops=len(fro_path) - 1,
                    frosette_delay_s=fro_delay,
                    oracle_hops=len(oracle_path) - 1,
                    oracle_delay_s=oracle_delay,
                    stretch=fro_delay / oracle_delay,
                    src_sat=src_sat,
                    dst_sat=dst_sat,
                    handoff=handoff,
                    flag=flag,
                )
            )
    return records, summarize(records, scenario)


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return math.nan
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def summarize(records: list[TraceRecord], scenario: Scenario) -> dict:
    by_exp: dict[str, list[TraceRecord]] = {}
    for rec in records:
        by_exp.setdefault(rec.experiment, []).append(rec)
    out_exp = {}
    for exp, recs in by_exp.items():
        stretches = sorted(r.stretch for r in recs)
        out_exp[exp] = {
            "records": len(recs),
            "stretch_median": _percentile(stretches, 0.5),
            "stretch_p95": _percentile(stretches, 0.95),
            "stretch_max": stretches[-1] if stretches else math.nan,
            "handoffs": sum(r.handoff for r in recs),
            "mean_frosette_hops": (
                sum(r.frosette_hops for r in recs) / len(recs) if recs else math.nan
            ),
            "coverage_violations": sum(1 for r in recs if r.flag),
        }
    all_stretch = sorted(r.stretch for r in records)
    return {
        "seed": scenario.seed,
        "config": config_to_dict(scenario.config),
        "window": {
            "start_s": scenario.start_s,
            "end_s": scenario.end_s,
            "step_s": scenario.step_s,
        },
        "records": len(records),
        "stretch_median": _percentile(all_stretch, 0.5),
        "stretch_p95": _percentile(all_stretch, 0.95),
        "stretch_max": all_stretch[-1] if all_stretch else math.nan,
        "experiments": out_exp,
    }


def write_trace_csv(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for rec in records:
        writer.writerow(rec.to_row())
