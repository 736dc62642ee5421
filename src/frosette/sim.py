"""Time-driven emulation: association, delay-optimal oracle, stretch traces.

Every delay is computed from satellite geometry at the query instant; the
oracle finds the exact minimum-delay path over the same snapshot, so the
stretch column measures only the routing scheme's detour, never modeling
slack. Ground legs are charged identically to both routes.

Link delays in :func:`run` and :func:`delay_oracle` come from the paper's
closed form, once per class of links (``OrbitState.link_terms``). Serving
satellites (:func:`associate`, :func:`run`) are ``geom.nearest`` of ``OrbitState``
positions and ``geom.ground_unit`` vectors; coverage tests, ground legs,
:func:`path_delay` and :func:`link_delay_trace` take their ``geom.central_angles``.
The oracle is a min-plus fixpoint on the torus of digit tuples
(:func:`_min_delays`), walked back over ``ring_table`` rows by one array walk
(:func:`_walk_back`). Both callers price the F-Rosette route with one function
(:func:`_frosette_prices`) and start each node at that price less a lower bound
on its delay to the destination, from its ring distances (:func:`_goal_start`):
the kernel stays exact on the oracle path and settles the rest in fewer
rounds. :func:`run` takes serving satellites, ground legs, F-Rosette route
prices and oracle hop counts as arrays per oracle group, and names satellites
from their ids (``Topology.nodes`` is never built).
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .config import ConstellationConfig, _json_number, config_from_dict, config_to_dict, load_json
from .constellation import (
    SatAddress, Topology, build, format_address, orbit_state, ring_table, sat_id,
    validate_address,
)
from .errors import ConfigError, DomainError, ParseError, RangeError
from .geom import LatLon, central_angles, check_times, coverage_range
from .geom import ground_unit, link_length_delay, nearest, slant_range_km
from .routing import shortest_path

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
        _check_window(self.config, self.start_s, self.end_s, self.step_s)
        if not self.experiments:
            raise ConfigError("scenario has no experiments")
        for src, dst in self.experiments:
            for name in (src, dst):
                if name not in self.endpoints:
                    raise ConfigError(f"experiment endpoint {name!r} is not defined")


def _check_window(cfg: ConstellationConfig, start: float, end: float, step: float) -> None:
    """The one rule for a sampling window: finite phases, step > 0, end >= start."""
    check_times(cfg, start, end, step)
    if step <= 0:
        raise ConfigError(f"step_s must be positive, got {step}")
    if end < start:
        raise ConfigError("window is empty: end_s < start_s")


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


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))  # the CSV header, in field order


def _number(doc: dict, key: str, kind: type = float):
    """doc[key] by ``config_from_dict``'s rule for JSON numbers, else a ParseError."""
    return _json_number(key, doc[key], kind, ParseError)


def _endpoint(name: str, ep: dict) -> LatLon:
    """The LatLon of an endpoint given in degrees; out of range, a ParseError naming it."""
    try:
        return LatLon(math.radians(_number(ep, "lat_deg")), math.radians(_number(ep, "lon_deg")))
    except RangeError as exc:
        raise ParseError(f"endpoint {name!r}: {exc}") from None


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario from a JSON-style document; malformed or non-finite values (the seed
    a JSON integer, the rest JSON numbers, each window time with a finite orbital
    phase 2*pi*t/T) raise ParseError, inconsistent ones ConfigError."""
    try:
        cfg = config_from_dict(data["config"])
        window = data["window"]
        start_s, end_s, step_s = [_number(window, k) for k in ("start_s", "end_s", "step_s")]
        endpoints = {name: _endpoint(name, ep) for name, ep in data["endpoints"].items()}
        experiments = tuple((e["src"], e["dst"]) for e in data["experiments"])
        seed = _number(data, "seed", int) if "seed" in data else 0
        seed = int(os.environ.get("FROSETTE_SEED", seed))  # the environment overrides it
    except KeyError as exc:
        raise ParseError(f"scenario is missing key {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scenario value: {exc}") from None
    try:
        return Scenario(
            config=cfg,
            start_s=start_s,
            end_s=end_s,
            step_s=step_s,
            endpoints=endpoints,
            experiments=experiments,
            seed=seed,
        )
    except RangeError as exc:  # the only RangeError a Scenario raises is check_times'
        raise ParseError(f"window: {exc}") from None


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(load_json(path))


# --- geometry snapshots -----------------------------------------------------


# run() takes max(1, _GROUP_SAT_STEPS // M) steps at once, to share numpy's
# per-call cost and each oracle round's calls; their (G, M, 3) positions
# (768 KiB) stay in cache, and at 65,536 satellites a group is one step.
_GROUP_SAT_STEPS = 32768


def _link_delays(a: np.ndarray, b: np.ndarray, cfg: ConstellationConfig) -> np.ndarray:
    """One-way delays of the links between unit vectors a and b."""
    return link_length_delay(central_angles(a, b), cfg.altitude_km, cfg.consts)[1]


def _edge_delays(cfg: ConstellationConfig, t) -> np.ndarray:
    """One-way delays of every ``ring_table`` edge, the closed form taken once per class of
    ``OrbitState.link_terms``: (E,) at a scalar t, (T, E) for times of shape (T, 1).
    Clamped at 0 where two satellites meet (a polar m=0 ring)."""
    cls, (k, dc, ds) = orbit_state(cfg).link_terms
    theta, consts = 4.0 * math.pi * t / cfg.period_s, cfg.consts
    scale = 2.0 * (consts.earth_radius_km + cfg.altitude_km) / consts.light_speed_km_s
    return (scale * np.sqrt(np.maximum(k + dc * np.cos(theta) - ds * np.sin(theta), 0.0)))[..., cls]


# The relative slack sigma of the goal start (see _min_delays): twenty times the
# rounding of a sum of M floats, M * 2**-53 <= 4.7e-10 at MAX_SATELLITES (2^22).
_SLACK = 1e-8


def _min_delays(delays: np.ndarray, sources: list[int], cfg: ConstellationConfig,
                start=np.inf) -> np.ndarray:
    """(G, M) minimum delays from satellite sources[g] under the edge delays
    of row g of delays, a (G, E) array indexed by ``ring_table`` edge id.
    Every node but the source starts at start: an (N, ..., N, G) array, one
    value per node and row, a (G,) bound per row, or a scalar for all.

    Ids are digit tuples, so on an (N, ..., N, G) array a layer's ring
    neighbours are a roll along its axis; each layer is relaxed as axis 0,
    where slices are contiguous, by turning the digit axes one place before
    it. Rounds relax every layer's +1 and -1 links; a row that one round
    leaves unchanged is done and leaves the arrays, until none is left or M
    rounds (Bellman-Ford's bound) pass on NaN delays.

    The fixpoint is unique: each node ends at the least of its start, the
    float sums of the paths to it from the source, added in path order (the
    least is Dijkstra's distance D(v) to the bit, since rounding is monotone),
    and those from another node's start. A start B alike for every node thus
    gives min(B, D), to the bit. A consistent start, start[u] + w >= start[v]
    with room to spare on every link (u, v) of delay w, derives no value
    below start[v] less the rounding of a sum of at most M terms. So the
    result is D(v) wherever D(v) lies below start[v] by that slack, and at
    most start[v] elsewhere.

    :func:`_goal_start` gives the start s(v) = P(1 + sigma) - (1 - sigma) h(v)
    for a route to dst priced just below P: h(v) = sum_L r_L(v) wmin_L, r_L
    being v's ring distance to dst on digit L and wmin_L the row's cheapest
    layer-L link. A layer-L hop changes r_L by at most one and costs at least
    wmin_L, so h(v) is at most v's delay to dst, and s(u) + w >= s(v) + sigma w.
    A node v on a min-delay path to dst has D(v) + h(v) <= D(dst) <= P, so
    s(v) - D(v) >= sigma (P + h(v)), and so has each neighbour tight to one
    (D(u) + w == D(v)). So the destination, its min-delay path and their
    tight neighbours end at D, and no value derived from a start is tight
    there: :func:`_walk_back` takes Dijkstra's steps. sigma (``_SLACK``,
    1e-8) bounds, twenty times over, the relative rounding of the sums and
    of s itself, and it raises the start by 1e-8 of the price, far less
    than a real detour. The rest of the nodes settle at or below their
    start in fewer rounds.
    """
    n, width, g = cfg.n, cfg.k + 1, len(sources)
    shape = (n,) * width + (g,)  # steps innermost
    out = np.empty((cfg.n_sats, g))
    dist = np.full(shape, start)  # a (G,) bound broadcasts along the steps axis
    dist.reshape(-1, g)[sources, np.arange(g)] = 0.0
    up = delays.reshape(g, -1, width).T.reshape((width,) + shape)  # up[L]: layer L's +1 links
    turns = [[(axis + j) % width for axis in range(width)] + [width] for j in range(1, width + 1)]
    up = [up[turn[0]].transpose(turn).copy() for turn in turns]
    rows, via = np.arange(g), np.empty_like(dist)  # rows: those still in the arrays
    for _ in range(cfg.n_sats):
        before = dist
        for w in up:
            dist = dist.transpose(turns[0]).copy()
            np.add(dist[:-1], w[:-1], out=via[1:])  # via[i]: reaching i from i - 1
            np.add(dist[-1:], w[-1:], out=via[:1])
            np.minimum(dist, via, out=dist)
            np.add(dist[1:], w[:-1], out=via[:-1])  # via[i]: reaching i from i + 1
            np.add(dist[:1], w[-1:], out=via[-1:])
            np.minimum(dist, via, out=dist)
        live = (dist != before).reshape(-1, len(rows)).any(axis=0)
        if live.all():
            continue
        out[:, rows[~live]] = dist.reshape(-1, len(rows))[:, ~live]
        rows = rows[live]
        if not rows.size:
            return out.T
        # np.compress copies to contiguous arrays; a[..., live] would not
        dist, up = np.compress(live, dist, axis=-1), [np.compress(live, w, axis=-1) for w in up]
        via = np.empty_like(dist)
    out[:, rows] = dist.reshape(-1, len(rows))
    return out.T


def _goal_start(delays: np.ndarray, price: np.ndarray, dst: np.ndarray,
                cfg: ConstellationConfig) -> np.ndarray:
    """(N, ..., N, G) starts of :func:`_min_delays` for a route to satellite
    dst[g] priced price[g] under row g of (G, E) edge delays:
    nextafter(price, inf) (1 + sigma) less (1 - sigma) times each node's lower
    bound on its delay to dst, its ring distance to dst on each digit L times
    the row's cheapest layer-L link, summed over L."""
    n, width, g = cfg.n, cfg.k + 1, len(dst)
    start = np.nextafter(price, np.inf) * (1.0 + _SLACK)
    for layer, digit in enumerate(np.unravel_index(dst, (n,) * width)):
        ring = (np.arange(n)[:, None] - digit) % n  # (N, G), taken on digit L's axis
        wmin = delays[:, layer::width].min(axis=1)  # edge ids are i*(k+1) + L
        below = np.minimum(ring, n - ring) * ((1.0 - _SLACK) * wmin)
        start = start - below.reshape((n,) + (1,) * (width - 1 - layer) + (g,))
    return start


def _walk_back(dist: np.ndarray, delays: np.ndarray, src: np.ndarray, dst: np.ndarray,
               table: tuple[np.ndarray, np.ndarray]):
    """Walk the min-delay paths from dst[g] back to src[g] under row g of
    (G, M) distances of :func:`_min_delays` and (G, E) edge delays, every row
    at once over the (nbr, edge) rows of ``ring_table``: the predecessor of v
    is, of the neighbours u with dist[u] + delay == dist[v], the smallest
    (dist[u], u), the one Dijkstra pops first. Yields, per step, the rows
    still walking and the node each has reached. A path has fewer than M
    hops, so a walk that takes M raises DomainError: it circles where
    zero-delay links (satellites that meet) tie.
    """
    nbr, edge = table
    rows, v = np.arange(len(dst)), np.asarray(dst)
    for _ in range(len(nbr)):
        live = v != src[rows]  # rows still walking, and the node each is at
        rows, v = rows[live], v[live]
        if not rows.size:
            return
        u, at = nbr[v], rows[:, None]
        du = dist[at, u]
        du = np.where(du + delays[at, edge[v]] == dist[rows, v][:, None], du, np.inf)
        v = np.where(du == du.min(axis=1, keepdims=True), u, len(nbr)).min(axis=1)
        yield rows, v
    raise DomainError("ambiguous oracle path: linked satellites meet and zero-delay links tie")


# The most sample instants one window may have. It bounds the window's list of
# Python floats (32 bytes each: 32 MB) and the records a run keeps per experiment.
MAX_STEPS = 1 << 20


def _step_times(start: float, end: float, step: float) -> list[float]:
    """Sample instants start + i*step through end (no accumulated rounding);
    DomainError, before anything is allocated, above MAX_STEPS."""
    steps = (end - start) / step + 1e-9
    if not steps < MAX_STEPS:  # a NaN or infinite count fails too
        raise DomainError(f"a window of ({start}, {end}, {step}) exceeds {MAX_STEPS} steps")
    return [start + i * step for i in range(int(math.floor(steps)) + 1)]


def _ids(addrs: list[SatAddress], cfg: ConstellationConfig) -> list[int]:
    """Satellite ids of addresses, each validated first."""
    for a in addrs:
        validate_address(a, cfg)
    return [sat_id(a, cfg.n) for a in addrs]


def _address(i: int, cfg: ConstellationConfig) -> SatAddress:
    """The address of satellite id i (the inverse of ``sat_id``), in int digits."""
    address = ()
    for _ in range(cfg.k + 1):
        i, digit = divmod(i, cfg.n)
        address = (digit,) + address
    return address


def associate(p: LatLon, t: float, topo: Topology) -> SatAddress:
    """Physically nearest satellite (``geom.nearest``); ties break to the smallest address."""
    cfg = topo.config
    check_times(cfg, t)
    return _address(int(nearest(orbit_state(cfg).unit_positions(t), ground_unit(p, t, cfg))), cfg)


def _frosette_prices(delays: np.ndarray, src, dst, topo: Topology, names, routes: dict):
    """(G,) F-Rosette route delays from satellite id src[g] to dst[g] under row g of
    (G, E) edge delays, summed in path order as :func:`path_delay` and the oracle
    sum, and (G,) hop counts. A pair's ``routing.shortest_path`` from names[s] to
    names[d] is kept in routes, under key s*M + d, as the ``ring_table`` edge ids
    of its hops.

    Every row's route edges are gathered at once into a (G, H) table, padded
    with zero delays, which ``np.add.accumulate`` adds left to right."""
    (nbr, edge), cfg = ring_table(topo.config), topo.config
    pairs, which = np.unique(src * cfg.n_sats + dst, return_inverse=True)
    found = []
    for key in pairs.tolist():
        route = routes.get(key)
        if route is None:
            s, d = divmod(key, cfg.n_sats)
            path = np.array([sat_id(a, cfg.n) for a in shortest_path(names[s], names[d], topo)])
            route = routes[key] = edge[path[:-1]][nbr[path[:-1]] == path[1:, None]]
        found.append(route)
    hops = np.array([len(route) for route in found])
    table = np.zeros((len(found), max(1, hops.max())), dtype=np.intp)
    pad = np.arange(table.shape[1]) >= hops[:, None]
    table[~pad] = np.concatenate(found)  # each route in path order, then padding
    summed = delays[np.arange(len(src))[:, None], table[which]]
    summed[pad[which]] = 0.0
    return np.add.accumulate(summed, axis=1)[:, -1], hops[which]


def delay_oracle(
    topo: Topology, t: float, src: SatAddress, dst: SatAddress
) -> tuple[list[SatAddress], float]:
    """Exact minimum-propagation-delay satellite path at the time-t snapshot;
    DomainError where zero-delay links tie on it (see :func:`_walk_back`).

    The kernel starts, as in :func:`run`, at :func:`_goal_start` for the
    F-Rosette route's delay (:func:`_frosette_prices` on one row)."""
    cfg = topo.config
    check_times(cfg, t)  # NaN delays would leave dst unreached
    si, di = _ids([src, dst], cfg)
    delays, table = _edge_delays(cfg, t)[None], topo.adjacency()
    price, _ = _frosette_prices(delays, np.array([si]), np.array([di]), topo, {si: src, di: dst}, {})
    dist = _min_delays(delays, [si], cfg, _goal_start(delays, price, np.array([di]), cfg))
    walk = _walk_back(dist, delays, np.array([si]), np.array([di]), table)
    path = [di] + [int(v[0]) for _, v in walk]
    return [_address(i, cfg) for i in reversed(path)], float(dist[0, di])


def path_delay(path: list[SatAddress], t: float, topo: Topology) -> float:
    """In-space propagation delay of a node sequence at the time-t snapshot."""
    cfg = topo.config
    check_times(cfg, t)
    pos = orbit_state(cfg).unit_positions(t, _ids(path, cfg))
    total = 0.0
    for d in _link_delays(pos[:-1], pos[1:], cfg).tolist():  # in path order, as the oracle sums
        total += d
    return total


def link_delay_trace(
    edge: tuple[SatAddress, SatAddress],
    window: tuple[float, float, float],
    topo: Topology,
) -> list[tuple[float, float]]:
    """First-principles delay series for one inter-satellite link.

    Samples fall at start + i*step, the same instants :func:`run` uses.
    """
    cfg = topo.config
    a, b = ids = _ids(list(edge), cfg)
    if b not in ring_table(cfg)[0][a]:
        raise RangeError(f"{edge[0]} -- {edge[1]} is not a topology edge")
    _check_window(cfg, *window)
    times = _step_times(*window)
    pos = orbit_state(cfg).unit_positions(np.array(times)[:, None], ids)
    return list(zip(times, _link_delays(pos[:, 0], pos[:, 1], cfg).tolist()))


# --- the experiment loop ----------------------------------------------------


def run(scenario: Scenario) -> tuple[list[TraceRecord], dict]:
    """Per step and experiment: associate, route, price both paths, record.

    Per oracle group of steps (:func:`_snapshots`, shared by every experiment)
    each experiment is priced as arrays by the sequence :func:`delay_oracle`
    runs on one row: :func:`_frosette_prices` (each pair's route found once per
    run), :func:`_min_delays` started at :func:`_goal_start`, and
    :func:`_walk_back` for the oracle hop counts. Per step only the records are
    Python work, kept in one list per experiment position and interleaved step
    by step at the end; satellites are named from their ids, each distinct
    served one once per run.
    """
    cfg = scenario.config
    topo = build(cfg)
    table = ring_table(cfg)
    radius = coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)
    routes: dict[int, np.ndarray] = {}
    addresses: dict[int, SatAddress] = {}
    lists: list[list[TraceRecord]] = [[] for _ in scenario.experiments]  # one per position
    # a handoff is a change from the experiment's previous record; a pair listed
    # again follows its first listing at the same step, so it never hands off
    again = [pair in scenario.experiments[:j] for j, pair in enumerate(scenario.experiments)]

    for steps, delays, served in _snapshots(scenario):
        for ids, _, _ in served.values():
            addresses.update((i, _address(i, cfg)) for i in set(ids.tolist()) - addresses.keys())
        for (src_name, dst_name), recs, repeat in zip(scenario.experiments, lists, again):
            (si, src_r, src_leg), (di, dst_r, dst_leg) = served[src_name], served[dst_name]
            fro_space, fro_hops = _frosette_prices(delays, si, di, topo, addresses, routes)
            dist = _min_delays(delays, si, cfg, _goal_start(delays, fro_space, di, cfg))
            oracle_hops = np.zeros(len(steps), dtype=int)
            for rows, _ in _walk_back(dist, delays, si, di, table):
                oracle_hops[rows] += 1
            legs = src_leg + dst_leg
            fro_delay, oracle_delay = legs + fro_space, legs + dist[np.arange(len(steps)), di]
            violation = (src_r > radius) | (dst_r > radius)
            exp = f"{src_name}->{dst_name}"
            for t, *priced, s, d, bad in zip(steps, *(a.tolist() for a in (  # TraceRecord's order
                    fro_hops, fro_delay, oracle_hops,
                    oracle_delay, fro_delay / oracle_delay, si, di, violation))):
                pair = addresses[s], addresses[d]
                handoff = not repeat and bool(recs) and (recs[-1].src_sat, recs[-1].dst_sat) != pair
                recs.append(TraceRecord(t, exp, *priced, *pair, handoff,
                                        "coverage_violation" if bad else ""))
    records = [rec for step in zip(*lists) for rec in step]
    return records, summarize(records, scenario)


def _snapshots(scenario: Scenario):
    """Per group of max(1, 32768 // M) steps: (their times, (G, E) edge delays,
    {endpoint: (G,) serving satellite ids, their central angles from it and
    the ground-leg delays}).

    One :func:`_edge_delays` call gives every edge delay, and one (G, M, 3)
    position array and each endpoint's (G, 3) ``geom.ground_unit`` vectors
    every association (``geom.nearest``, the rule of :func:`associate`), each
    endpoint once however many experiments name it.
    """
    cfg = scenario.config
    names = dict.fromkeys(name for pair in scenario.experiments for name in pair)
    times = _step_times(scenario.start_s, scenario.end_s, scenario.step_s)
    group = max(1, _GROUP_SAT_STEPS // cfg.n_sats)
    for lo in range(0, len(times), group):
        steps = times[lo:lo + group]
        column = np.array(steps)[:, None]
        delays, pos = _edge_delays(cfg, column), orbit_state(cfg).unit_positions(column)
        served = {}
        for name in names:
            ground = ground_unit(scenario.endpoints[name], column, cfg)
            ids = nearest(pos, ground)
            r = central_angles(pos[np.arange(len(steps)), ids], ground)
            legs = slant_range_km(r, cfg.altitude_km, cfg.consts) / cfg.consts.light_speed_km_s
            served[name] = ids, r, legs
        yield steps, delays, served


def _percentile(sorted_vals: list[float], q: float) -> float:
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def _stretch_fields(recs: list[TraceRecord]) -> dict:
    """The records count and stretch_* fields, for one experiment or the whole run."""
    stretches = sorted(r.stretch for r in recs)
    return {
        "records": len(recs),
        "stretch_median": _percentile(stretches, 0.5),
        "stretch_p95": _percentile(stretches, 0.95),
        "stretch_max": stretches[-1],
    }


def summarize(records: list[TraceRecord], scenario: Scenario) -> dict:
    by_exp: dict[str, list[TraceRecord]] = {}
    for rec in records:
        by_exp.setdefault(rec.experiment, []).append(rec)
    out_exp = {}
    for exp, recs in by_exp.items():
        out_exp[exp] = {
            **_stretch_fields(recs),
            "handoffs": sum(r.handoff for r in recs),
            "mean_frosette_hops": sum(r.frosette_hops for r in recs) / len(recs),
            "coverage_violations": sum(1 for r in recs if r.flag),
        }
    return {
        "seed": scenario.seed,
        "config": config_to_dict(scenario.config),
        "window": {
            "start_s": scenario.start_s,
            "end_s": scenario.end_s,
            "step_s": scenario.step_s,
        },
        **_stretch_fields(records),
        "experiments": out_exp,
    }


def write_trace_csv(records, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for rec in records:
        writer.writerow(rec.to_row())
