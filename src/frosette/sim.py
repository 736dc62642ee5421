"""Time-driven emulation: association, delay-optimal oracle, stretch traces.

Every delay is computed from satellite geometry at the query instant; the
oracle runs an exact minimum-delay search over the same snapshot, so the
stretch column measures only the routing scheme's detour, never modeling
slack. Ground legs are charged identically to both routes.
"""
from __future__ import annotations

import csv
import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import (
    TWO_PI,
    ConstellationConfig,
    config_from_dict,
    config_to_dict,
    load_json,
)
from .constellation import SatAddress, Topology, build, format_address
from .errors import ConfigError, ParseError, RangeError
from .geom import LatLon, central_angles, slant_range_km
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
        if not (math.isfinite(p.lat_rad) and math.isfinite(p.lon_rad)):
            raise ParseError(f"endpoint {name!r} has a non-finite coordinate")
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


class _Field:
    """Vectorized orbital state for every node of a topology.

    Built once per Topology instance (see :func:`_field`). The integer link
    index the delay oracle searches is built on first use only, so callers
    that just associate never pay for it.
    """

    def __init__(self, topo: Topology) -> None:
        cfg = topo.config
        self.cfg = cfg
        n, k = cfg.n, cfg.k
        addr = np.array(topo.nodes)  # (M, k+1)
        raan = TWO_PI * addr[:, 0] / n
        # Phase in units of 2*pi/N^(k+1), reduced exactly in integers.
        steps = cfg.m * addr[:, 0] * n**k
        for j in range(1, k + 1):
            steps = steps + addr[:, j] * n ** (k + 1 - j)
        phase0 = TWO_PI * (steps % n ** (k + 1)) / n ** (k + 1)
        self.cp, self.sp = np.cos(phase0), np.sin(phase0)
        self.ca, self.sa = np.cos(raan), np.sin(raan)
        self.index = {a: i for i, a in enumerate(topo.nodes)}
        self._links: tuple[np.ndarray, np.ndarray, list] | None = None

    def unit_positions(self, t, rows=slice(None)) -> np.ndarray:
        """Inertial unit vectors of the given rows: (M, 3) at a scalar t,
        (T, R, 3) for times of shape (T, 1) and R rows.

        Each in-plane direction is its fixed phase rotated by the common
        angle 2*pi*t/T. Adding the angles first would round every satellite
        at the scale of its phase, which moves a 2*pi/N^3 arc by ~1e-12
        relative from step to step; the rotation keeps it within ~4e-13.
        """
        cfg = self.cfg
        w = TWO_PI * t / cfg.period_s
        cw, sw = np.cos(w), np.sin(w)
        cp, sp = self.cp[rows], self.sp[rows]
        cu, su = cp * cw - sp * sw, sp * cw + cp * sw
        cb, sb = math.cos(cfg.inclination_rad), math.sin(cfg.inclination_rad)
        ca, sa = self.ca[rows], self.sa[rows]
        return np.stack(
            [ca * cu - sa * su * cb, sa * cu + ca * su * cb, su * sb], axis=-1
        )

    def links(self, topo: Topology) -> tuple[np.ndarray, np.ndarray, list]:
        """(edge_a, edge_b, adjacency) over node indices.

        edge_a/edge_b index the endpoints of ``topo.edges`` in order; the
        adjacency lists (neighbor index, edge id) per node in ``neighbors()``
        order, so searches over it break ties as searches over addresses do.
        """
        if self._links is None:
            index = self.index
            ends = [(index[a], index[b]) for a, b, _layer in topo.edges]
            edge_id = {pair: e for e, pair in enumerate(ends)}
            adjacency = topo.adjacency()
            adj = []
            for i, addr in enumerate(topo.nodes):
                row = []
                for _layer, _direction, nb in adjacency[addr]:
                    j = index[nb]
                    e = edge_id.get((i, j))
                    row.append((j, edge_id[(j, i)] if e is None else e))
                adj.append(row)
            edge_a, edge_b = np.array(ends, dtype=np.intp).reshape(-1, 2).T
            self._links = (edge_a, edge_b, adj)
        return self._links


def _field(topo: Topology) -> _Field:
    """The topology's snapshot state, built on first use and kept on the instance."""
    fld = topo.__dict__.get("_sim_field")
    if fld is None:
        fld = _Field(topo)
        object.__setattr__(topo, "_sim_field", fld)  # Topology is frozen
    return fld


def _ground_unit(p: LatLon, t: float, cfg: ConstellationConfig) -> np.ndarray:
    """Inertial unit vector of a ground point (earth-fixed frame rotates)."""
    lon_inertial = p.lon_rad + cfg.omega_earth_rad_s * t
    cl = math.cos(p.lat_rad)
    return np.array(
        [cl * math.cos(lon_inertial), cl * math.sin(lon_inertial), math.sin(p.lat_rad)]
    )


def _link_delay_s(r: np.ndarray, cfg: ConstellationConfig) -> np.ndarray:
    """One-way chord delay of links spanning central angles r (``link_length_delay``)."""
    rs = cfg.consts.earth_radius_km + cfg.altitude_km
    return 2.0 * rs * np.sin(r / 2.0) / cfg.consts.light_speed_km_s


def _edge_delays(fld: _Field, pos: np.ndarray, topo: Topology) -> list[float]:
    """Per-edge one-way delay at one snapshot, in ``topo.edges`` order."""
    edge_a, edge_b, _adj = fld.links(topo)
    return _link_delay_s(central_angles(pos[edge_a], pos[edge_b]), fld.cfg).tolist()


def _ground_leg_delay(r: float, cfg: ConstellationConfig) -> float:
    """Ground-to-satellite delay across central angle r."""
    return slant_range_km(r, cfg.altitude_km, cfg.consts) / cfg.consts.light_speed_km_s


def _path_delay(pos: np.ndarray, rows: list[int], cfg: ConstellationConfig) -> float:
    if len(rows) < 2:
        return 0.0
    hops = _link_delay_s(central_angles(pos[rows[:-1]], pos[rows[1:]]), cfg)
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


def associate(p: LatLon, t: float, topo: Topology) -> SatAddress:
    """Physically nearest satellite; ties break to the smallest address."""
    dots = _field(topo).unit_positions(t) @ _ground_unit(p, t, topo.config)
    return topo.nodes[int(np.argmax(dots))]


def delay_oracle(
    topo: Topology, t: float, src: SatAddress, dst: SatAddress
) -> tuple[list[SatAddress], float]:
    """Exact minimum-propagation-delay satellite path at the time-t snapshot."""
    if src == dst:
        return [src], 0.0
    fld = _field(topo)
    delays = _edge_delays(fld, fld.unit_positions(t), topo)
    _edge_a, _edge_b, adj = fld.links(topo)
    path, delay = _min_delay_path(adj, delays, fld.index[src], fld.index[dst])
    return [topo.nodes[i] for i in path], delay


def path_delay(path: list[SatAddress], t: float, topo: Topology) -> float:
    """In-space propagation delay of a node sequence at the time-t snapshot."""
    fld = _field(topo)
    return _path_delay(fld.unit_positions(t), [fld.index[a] for a in path], topo.config)


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
    if step <= 0 or end < start:
        raise ConfigError("window must be non-empty with positive step")
    fld = _field(topo)
    times = _step_times(start, end, step)
    pos = fld.unit_positions(np.array(times)[:, None], [fld.index[a], fld.index[b]])
    delays = _link_delay_s(central_angles(pos[:, 0], pos[:, 1]), topo.config)
    return list(zip(times, delays.tolist()))


# --- the experiment loop ----------------------------------------------------


def run(scenario: Scenario) -> tuple[list[TraceRecord], dict]:
    """Per step and experiment: associate, route, price both paths, record.

    Each step takes one position snapshot; association, coverage flags,
    ground legs, the F-Rosette path and the oracle all read from it.
    """
    cfg = scenario.config
    topo = build(cfg)
    fld = _field(topo)
    _edge_a, _edge_b, adj = fld.links(topo)
    radius = _coverage_radius(cfg)
    edge_count = len(topo.edges)
    records: list[TraceRecord] = []
    last_pair: dict[str, tuple[SatAddress, SatAddress]] = {}

    for t in _step_times(scenario.start_s, scenario.end_s, scenario.step_s):
        if len(topo.edges) != edge_count:
            raise AssertionError("topology changed mid-simulation")
        pos = fld.unit_positions(t)
        delays = _edge_delays(fld, pos, topo)
        for src_name, dst_name in scenario.experiments:
            exp = f"{src_name}->{dst_name}"
            src_g = _ground_unit(scenario.endpoints[src_name], t, cfg)
            dst_g = _ground_unit(scenario.endpoints[dst_name], t, cfg)
            si, di = int(np.argmax(pos @ src_g)), int(np.argmax(pos @ dst_g))
            src_sat, dst_sat = topo.nodes[si], topo.nodes[di]
            src_r, dst_r = central_angles(pos[[si, di]], np.stack([src_g, dst_g])).tolist()
            flag = "coverage_violation" if src_r > radius or dst_r > radius else ""

            fro_path = shortest_path(src_sat, dst_sat, topo)
            legs = _ground_leg_delay(src_r, cfg) + _ground_leg_delay(dst_r, cfg)
            fro_delay = legs + _path_delay(pos, [fld.index[a] for a in fro_path], cfg)
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
