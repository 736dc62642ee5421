"""Self-contained invariant and oracle checks behind the `verify` subcommand.

Every check is independent of the test suite: oracles here are hand-rolled
(breadth-first search, dense sweeps, direct enumeration) so a shipped install
can re-validate itself without development dependencies. Each check returns
a pass flag plus a human-readable deviation report.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .addressing import GroundAddress, bit_widths, decode, encode
from .config import TWO_PI, ConstellationConfig
from .constellation import (
    address_to_elements,
    build,
    ground_to_space_rtt,
    min_altitude_coverage,
    ring_neighbor,
    ring_table,
    sat_id,
)
from .geocell import (
    CellId,
    build_alpha0_tables,
    capacity,
    cell_center,
    cell_count,
    cell_to_location,
    geocoord_to_latlon,
    iter_cells,
    locate_point,
)
from .geom import LatLon, great_circle_range, link_length_delay, link_range_closed_form
from .geom import sat_position_eci, subpoint
from .georouting import measure_hop_motions
from .planner import SizeRequest, select_size
from .routing import build_fib, disjoint_paths, fib_lookup, hop_bound, path_hops, shortest_path
from .sim import _edge_delays, link_delay_trace

_SEED = 12345


def _demo(n: int, m: int, k: int, incl_deg: float, altitude_km: float) -> ConstellationConfig:
    return ConstellationConfig(
        n=n,
        m=m,
        k=k,
        altitude_km=altitude_km,
        inclination_rad=math.radians(incl_deg),
        min_elevation_rad=math.radians(25.0),
    )


def _bfs_hops(nbr: np.ndarray, src: int) -> np.ndarray:
    """Hop distance from id src to every id over a ring table, frontier by frontier."""
    dist = np.full(len(nbr), -1)
    dist[src], frontier, hops = 0, np.array([src]), 0
    while frontier.size:
        hops += 1
        frontier = np.unique(nbr[frontier])
        frontier = frontier[dist[frontier] < 0]
        dist[frontier] = hops
    return dist


def check_structure() -> tuple[bool, str]:
    for n, k in ((4, 0), (4, 1), (8, 1)):
        cfg = _demo(n, 1, k, 70.0, 1200.0)
        topo = build(cfg)
        want_nodes, want_edges = n ** (k + 1), (k + 1) * n ** (k + 1)
        if len(topo.nodes) != want_nodes or len(topo.edges) != want_edges:
            return False, (
                f"N={n},k={k}: {len(topo.nodes)} nodes / {len(topo.edges)} edges, "
                f"want {want_nodes}/{want_edges}"
            )
        nbr, edge = ring_table(cfg)
        for e, (a, b, layer) in enumerate(topo.edges):
            i, j, up, down = sat_id(a, n), sat_id(b, n), 2 * layer, 2 * layer + 1
            table = (nbr[i, up], nbr[j, down], edge[i, up], edge[j, down])
            if b != ring_neighbor(a, layer, 1, n) or table != (j, i, e, e):
                return False, f"N={n},k={k}: edge {e} {a}--{b} disagrees with ring_table"
    cfg = _demo(16, 1, 3, 70.0, 1200.0)
    dist = _bfs_hops(ring_table(cfg)[0], 0)
    digits = np.arange(cfg.n_sats)[:, None] // cfg.n ** np.arange(cfg.k, -1, -1) % cfg.n
    if not np.array_equal(dist, np.minimum(digits, cfg.n - digits).sum(axis=1)):
        return False, "N=16,k=3: BFS distances from 0.0.0.0 differ from summed ring arcs"
    if dist.max() != hop_bound(cfg):
        return False, f"N=16,k=3: diameter {dist.max()} != bound {hop_bound(cfg)}"
    return True, (
        "counts and ring_table exact on 3 configs; "
        f"N=16,k=3: {cfg.n_sats} BFS distances = ring arcs, diameter {dist.max()} = bound"
    )


def check_hop_optimality() -> tuple[bool, str]:
    cfg = _demo(8, 6, 1, 70.0, 1200.0)
    topo = build(cfg)
    nbr = ring_table(cfg)[0]
    worst = 0
    for i, src in enumerate(topo.nodes):
        dist = _bfs_hops(nbr, i)
        for j, dst in enumerate(topo.nodes):
            hops = len(shortest_path(src, dst, topo)) - 1
            if hops != dist[j]:
                return False, f"{src}->{dst}: routed {hops}, BFS {dist[j]}"
            worst = max(worst, hops)
    if worst != hop_bound(cfg):
        return False, f"diameter {worst} != bound {hop_bound(cfg)}"
    return True, f"all 4096 pairs optimal; diameter {worst} = bound"


def check_fib() -> tuple[bool, str]:
    cfg = _demo(8, 6, 1, 70.0, 1200.0)
    topo = build(cfg)
    rng = random.Random(_SEED)
    owner = (0, 0)
    fib = build_fib(owner, cfg)
    budget = 2 * (cfg.k + 1) * math.ceil(math.log2(cfg.n / 2))
    if len(fib.entries) > budget:
        return False, f"{len(fib.entries)} entries > budget {budget}"
    for _ in range(300):
        src = tuple(rng.randrange(cfg.n) for _ in range(cfg.k + 1))
        dst = tuple(rng.randrange(cfg.n) for _ in range(cfg.k + 1))
        cur, hops = src, 0
        while True:
            action = fib_lookup(build_fib(cur, cfg), dst)
            if action is None:
                break
            layer, direction = action
            cur = ring_neighbor(cur, layer, direction, cfg.n)
            hops += 1
            if hops > hop_bound(cfg):
                return False, f"walk {src}->{dst} exceeded bound without delivery"
        want = len(shortest_path(src, dst, topo)) - 1
        if hops != want:
            return False, f"walk {src}->{dst}: {hops} hops, shortest {want}"
    return True, f"{len(fib.entries)} entries <= {budget}; 300 walks match shortest paths"


def check_multipath() -> tuple[bool, str]:
    rng = random.Random(_SEED)
    for k, pairs in ((1, 50), (3, 20)):
        cfg = _demo(8, 6, k, 70.0, 1200.0)
        topo = build(cfg)
        for _ in range(pairs):
            src = tuple(rng.randrange(cfg.n) for _ in range(cfg.k + 1))
            dst = tuple((src[j] + rng.randrange(1, cfg.n)) % cfg.n for j in range(cfg.k + 1))
            result = disjoint_paths(src, dst, topo)
            if len(result) != 2 * (cfg.k + 1):
                return False, f"{src}->{dst}: {len(result)} paths"
            interiors = [set(p[1:-1]) for p in result]
            for i in range(len(interiors)):
                for j in range(i + 1, len(interiors)):
                    if interiors[i] & interiors[j]:
                        return False, f"{src}->{dst}: paths {i},{j} share {interiors[i] & interiors[j]}"
            for p in result:
                if p[0] != src or p[-1] != dst:
                    return False, f"{src}->{dst}: endpoint mismatch"
                try:
                    path_hops(list(p), cfg)
                except ValueError as exc:
                    return False, f"{src}->{dst}: {exc}"
    return True, "all-differ pairs, 2(k+1) node-disjoint paths each: 50 at N=8 k=1, 20 at k=3"


def _scalar_range(a, b, t: float, cfg: ConstellationConfig) -> float:
    return great_circle_range(*(sat_position_eci(address_to_elements(x, cfg), t) for x in (a, b)))


def check_link_closed_form() -> tuple[bool, str]:
    """Base-ring ranges, and every edge delay (all layers, wraps too) that
    ``run`` and ``delay_oracle`` use, in closed form against scalar positions."""
    cfg = _demo(8, 3, 0, 70.0, 1200.0)
    rng = random.Random(_SEED)
    worst = worst_rel = 0.0
    for _ in range(200):
        i, j = rng.sample(range(cfg.n), 2)
        t = rng.uniform(0, cfg.rho * cfg.period_s)
        measured = _scalar_range((i,), (j,), t, cfg)
        worst = max(worst, abs(measured - link_range_closed_form(i, j, t, cfg)))
    cfg = _demo(5, 2, 2, 70.0, 1200.0)
    nodes, heads = build(cfg).nodes, ring_table(cfg)[0][:, 0::2].ravel().tolist()
    for t in (rng.uniform(0, cfg.rho * cfg.period_s) for _ in range(4)):
        for e, closed in enumerate(_edge_delays(cfg, t).tolist()):
            r = _scalar_range(nodes[e // (cfg.k + 1)], nodes[heads[e]], t, cfg)
            measured = float(link_length_delay(r, cfg.altitude_km, cfg.consts)[1])
            worst_rel = max(worst_rel, abs(closed - measured) / measured)
    ok = worst < 1e-9 and worst_rel < 1e-12
    return ok, (f"max |closed-form - first-principles| = {worst:.3e} rad over 200 base-ring "
                f"samples, {worst_rel:.3e} relative over 4 x {len(heads)} k=2 edge delays")


def check_subpoint_repeat() -> tuple[bool, str]:
    cfg = _demo(8, 6, 1, 70.0, 1200.0)
    el = address_to_elements((3, 5), cfg)
    worst = 0.0
    for frac in (0.0, 0.13, 0.4, 0.77):
        t = frac * cfg.period_s
        a = subpoint(el, t, cfg.consts)
        b = subpoint(el, t + cfg.rho * cfg.period_s, cfg.consts)
        worst = max(
            worst,
            abs(a.lat_rad - b.lat_rad),
            abs((a.lon_rad - b.lon_rad + math.pi) % TWO_PI - math.pi),
        )
    ok = worst < 1e-6
    return ok, f"sub-point repeats after (N-m)*T; max drift {worst:.3e} rad"


def check_hop_motions() -> tuple[bool, str]:
    cfg = _demo(16, 8, 1, 70.0, 1200.0)
    motions = measure_hop_motions(cfg)
    layer0 = motions[0]
    want_da, want_dg = TWO_PI / cfg.n, (TWO_PI * cfg.m / cfg.n) % TWO_PI
    if abs(layer0.delta_alpha_rad - want_da) > 1e-9 or abs(layer0.delta_gamma_rad - want_dg) > 1e-9:
        return False, f"layer 0 motion {layer0} != ({want_da}, {want_dg})"
    deeper = all(abs(m.delta_alpha_rad) < 1e-9 for m in motions[1:])
    if not deeper:
        return False, "intra-orbit hop shows alpha motion"
    return True, "constant per-hop motion on all layers at 16 sampled times"


def check_geocell_partition() -> tuple[bool, str]:
    cfg = _demo(8, 6, 1, 45.0, 1200.0)
    if sum(capacity(r, cfg.n) for r in range(2 * cfg.n - 1)) != cfg.n**2:
        return False, "capacity rule does not sum to N^2"
    total = sum(1 for _ in iter_cells(cfg))
    if total != cell_count(cfg):
        return False, f"enumerated {total} != formula {cell_count(cfg)}"
    band = math.degrees(cfg.inclination_rad)
    coarse = _demo(8, 6, 0, 45.0, 1200.0)
    checked = 0
    for lat10 in range(int(-band * 10), int(band * 10) + 1, 20):
        for lon in range(-180, 180, 2):
            p = LatLon(math.radians(lat10 / 10.0), math.radians(lon))
            deep = locate_point(p, cfg)
            parent_direct = locate_point(p, coarse)
            if deep.digits[0] != parent_direct.digits[0]:
                return False, f"hierarchy broken at {p}"
            checked += 1
    return True, f"{checked} grid points: single-valued, hierarchy-consistent"


def check_cell_roundtrip() -> tuple[bool, str]:
    cfg = _demo(8, 6, 1, 45.0, 1200.0)
    tables = build_alpha0_tables(cfg)
    rng = random.Random(_SEED)
    band = cfg.inclination_rad
    seen = set()
    for _ in range(4000):
        p = LatLon(
            math.asin(math.sin(band) * (2.0 * rng.random() - 1.0)),
            rng.uniform(-math.pi, math.pi),
        )
        cell = locate_point(p, cfg, tables)
        if cell in seen:
            continue
        seen.add(cell)
        center = geocoord_to_latlon(cell_center(cell, tables), cfg)
        anchor = geocoord_to_latlon(cell_to_location(cell, cfg.k, tables), cfg)
        if locate_point(center, cfg, tables) != cell:
            return False, f"{cell} center relocates to {locate_point(center, cfg, tables)}"
        if locate_point(anchor, cfg, tables) != cell:
            return False, f"{cell} anchor relocates to {locate_point(anchor, cfg, tables)}"
    if len(seen) < 100:
        return False, f"sampling found only {len(seen)} distinct cells"
    return True, f"{len(seen)} occupied cells: center and anchor relocate to the same id"


def check_alpha0_consistency() -> tuple[bool, str]:
    # first principles: at t = -alpha0/omega_E satellite 0's sub-point sits on the row's longitude
    cfg = _demo(16, 8, 1, 70.0, 1200.0)
    tables = build_alpha0_tables(cfg)
    rho, span = cfg.rho, cfg.n**cfg.k
    el0 = address_to_elements((0,) * (cfg.k + 1), cfg)
    worst = 0.0
    for d in range(tables.n_rows):
        t = -tables.values[d] / cfg.omega_earth_rad_s
        target = min(d * math.pi / (rho * span), (rho - 1) * math.pi / (2.0 * rho))
        worst = max(worst, abs(subpoint(el0, t, cfg.consts).lon_rad - target))
    ok = worst < 1e-12
    return ok, f"satellite 0 sub-point longitude error max {worst:.3e} rad over {tables.n_rows} rows"


def check_encode_roundtrip() -> tuple[bool, str]:
    cfg = _demo(16, 8, 1, 70.0, 1200.0)
    layout = bit_widths(cfg)
    rng = random.Random(_SEED)
    for _ in range(500):
        sat = tuple(rng.randrange(cfg.n) for _ in range(cfg.k + 1))
        got = decode(encode(sat, layout, prefix=rng.getrandbits(64)), layout)
        if got.digits != sat:
            return False, f"satellite {sat} decoded as {got.digits}"
        row0 = rng.randrange(cfg.rho)
        row1 = rng.randrange(2 * cfg.n - 1)
        cell = CellId(
            (
                (row0, rng.randrange(cfg.rho)),
                (row1, rng.randrange(capacity(row1, cfg.n))),
            )
        )
        ground = GroundAddress(rng.getrandbits(64), cell, rng.getrandbits(layout.suffix_bits))
        if decode(encode(ground, layout), layout) != ground:
            return False, f"ground {ground} did not round-trip"
    return True, "500 satellite + 500 ground addresses round-trip"


def check_link_delay_shape() -> tuple[bool, str]:
    cfg = _demo(8, 6, 1, 70.0, 1200.0)
    topo = build(cfg)
    t_end = cfg.period_s
    series = link_delay_trace(((0, 0), (0, 1)), (0.0, t_end, t_end / 64), topo)
    delays = [d for _, d in series]
    spread = (max(delays) - min(delays)) / max(delays)
    if spread > 1e-12:
        return False, f"intra-orbit delay varies by {spread:.3e} relative"
    series = link_delay_trace(((0, 0), (1, 0)), (0.0, t_end, t_end / 256), topo)
    half = len(series) // 2
    worst = max(abs(series[i][1] - series[i + half][1]) for i in range(half))
    scale = max(d for _, d in series)
    ok = worst / scale < 1e-6
    return ok, (
        f"intra constant to {spread:.1e}; inter T/2-periodic to {worst / scale:.1e} relative"
    )


def check_altitude_table() -> tuple[bool, str]:
    rows = [
        (8, 0, 11848.46, 78.99),
        (8, 1, 1259.58, 8.40),
        (8, 2, 335.33, 2.23),
        (16, 0, 4268.73, 28.46),
        (16, 1, 504.83, 3.36),
        (16, 2, 107.62, 0.72),
    ]
    worst = 0.0
    for n, k, h_want, rtt_want_ms in rows:
        cfg = _demo(n, 1, k, 70.0, 1200.0)
        h = min_altitude_coverage(cfg)
        rtt_ms = ground_to_space_rtt(h, cfg.consts) * 1e3
        dev = max(abs(h - h_want) / h_want, abs(rtt_ms - rtt_want_ms) / rtt_want_ms)
        worst = max(worst, dev)
        if dev > 0.005:
            return False, f"N={n},k={k}: H={h:.2f} (want {h_want}), RTT={rtt_ms:.2f} ms"
    return True, f"six altitude/RTT rows within 0.5% (worst {worst * 100:.3f}%)"


def check_planner() -> tuple[bool, str]:
    # The 64-satellite design needs 1259.52 km = 8.4026 ms; a budget above
    # that sizes to k=1, a budget below (such as the rounded 8.40 figure)
    # must honestly round up to the next depth.
    res = select_size(SizeRequest(rtt_target_s=0.00841, min_elevation_rad=math.radians(25), base_n=8))
    if (res.k, res.n_sats) != (1, 64):
        return False, f"8.41 ms budget sized to k={res.k}, {res.n_sats} sats"
    cfg = _demo(8, 1, res.k, 70.0, res.altitude_km)
    if min_altitude_coverage(cfg) > res.altitude_km:
        return False, "returned altitude does not achieve coverage"
    tight = select_size(SizeRequest(rtt_target_s=0.0084, min_elevation_rad=math.radians(25), base_n=8))
    if tight.n_sats < res.n_sats:
        return False, f"smaller budget yielded smaller size {tight.n_sats}"
    return True, (f"8.41 ms @ 25 deg -> H={res.altitude_km:.1f} km, k=1, 64 sats; "
                  "at the covering-bound floor or above: necessary, not sufficient")


ALL_CHECKS = [
    ("structure-counts", check_structure),
    ("hop-optimality", check_hop_optimality),
    ("fib-bound-and-walks", check_fib),
    ("multipath-disjoint", check_multipath),
    ("link-closed-form", check_link_closed_form),
    ("subpoint-repetition", check_subpoint_repeat),
    ("hop-motion-constancy", check_hop_motions),
    ("geocell-partition", check_geocell_partition),
    ("cell-roundtrip", check_cell_roundtrip),
    ("alpha0-consistency", check_alpha0_consistency),
    ("encode-roundtrip", check_encode_roundtrip),
    ("link-delay-shape", check_link_delay_shape),
    ("altitude-table", check_altitude_table),
    ("planner-sizing", check_planner),
]


def run_all(report=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # honest reporting beats a crash here
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        report(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    report(f"{len(ALL_CHECKS) - failures}/{len(ALL_CHECKS)} checks passed")
    return failures
