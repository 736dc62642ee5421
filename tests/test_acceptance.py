"""Acceptance gate: twelve end-to-end criteria, one test and one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines (pytest itself reports any failure).  Each test is self-contained:
it builds what it needs, checks the claim against an independent oracle where
one exists (BFS, max-flow, first-principles geometry), and enforces the
stated runtime budget.
"""
import math
import os
import time
from collections import deque
from random import Random

import networkx as nx
import pytest

from conftest import make_config, ring_graph
from frosette.constellation import (
    OrbitState,
    address_to_elements,
    build,
    ground_to_space_rtt,
    min_altitude_coverage,
    ring_neighbor,
)
from frosette.geocell import (
    build_alpha0_tables,
    cell_center,
    cell_count,
    geocoord_to_latlon,
    iter_cells,
    load_tables,
    locate_point,
    save_tables,
    validate_cell,
)
from frosette.geom import LatLon, central_angles, coverage_range, great_circle_range, ground_unit
from frosette.geom import sat_position_eci
from frosette.georouting import geo_route
from frosette.routing import (
    build_fib,
    disjoint_paths,
    fib_lookup,
    hop_bound,
    path_hops,
    shortest_path,
)
from frosette.sim import associate, link_delay_trace, run, scenario_from_dict
from frosette.verify import (
    check_encode_roundtrip,
    check_hop_motions,
    check_link_closed_form,
    check_subpoint_repeat,
)


def _finish(num: int, slug: str, t0: float, limit_s: float | None, detail: str) -> None:
    """Enforce the runtime budget, then print the one-line verdict."""
    elapsed = time.monotonic() - t0
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion-{num:02d} took {elapsed:.1f}s (budget {limit_s}s)"
    budget = f", {elapsed:.2f}s < {limit_s:.0f}s" if limit_s is not None else f", {elapsed:.2f}s"
    print(f"PASS criterion-{num:02d} {slug}: {detail}{budget}")


def _bfs(adj: dict, src) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in adj[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


# --- 1. altitude / RTT table ------------------------------------------------------

ALTITUDE_ROWS = [
    # (n, k, altitude_km, rtt_ms)
    (8, 0, 11848.46, 78.99),
    (8, 1, 1259.58, 8.40),
    (8, 2, 335.33, 2.23),
    (16, 0, 4268.73, 28.46),
    (16, 1, 504.83, 3.36),
    (16, 2, 107.62, 0.72),
]


def test_criterion_01_altitude_table():
    t0 = time.monotonic()
    worst = 0.0
    for n, k, want_h, want_rtt_ms in ALTITUDE_ROWS:
        cfg = make_config(n, n - 2, k)  # 25-degree elevation, table's setting
        h = min_altitude_coverage(cfg)
        rtt_ms = ground_to_space_rtt(h, cfg.consts) * 1000.0
        err_h = abs(h - want_h) / want_h
        err_rtt = abs(rtt_ms - want_rtt_ms) / want_rtt_ms
        worst = max(worst, err_h, err_rtt)
        assert err_h <= 0.005, f"N={n},k={k}: altitude {h:.2f} vs {want_h} ({err_h:.2%})"
        assert err_rtt <= 0.005, f"N={n},k={k}: RTT {rtt_ms:.2f} vs {want_rtt_ms} ({err_rtt:.2%})"
    _finish(1, "altitude-table", t0, 1.0, f"six rows within 0.5% (worst {worst:.3%})")


# --- 2. structure counts ----------------------------------------------------------


def test_criterion_02_structure_counts():
    t0 = time.monotonic()
    for n, k in [(4, 0), (4, 1), (8, 0), (8, 1), (8, 2), (16, 1)]:
        cfg = make_config(n, n - 2, k)
        topo = build(cfg)
        want_nodes = n ** (k + 1)
        assert len(topo.nodes) == want_nodes, f"N={n},k={k}: {len(topo.nodes)} nodes"
        assert len(topo.edges) == (k + 1) * want_nodes, f"N={n},k={k}: {len(topo.edges)} edges"
        degree = {node: 0 for node in topo.nodes}
        for a, b, _ in topo.edges:
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2 * (k + 1)}, f"N={n},k={k}: degrees {set(degree.values())}"
    _finish(2, "structure-counts", t0, 5.0, "nodes/edges/degrees exact on 6 configs")


# --- 3./4. hop-optimality and diameter vs exhaustive BFS --------------------------


def test_criterion_03_hop_optimality():
    t0 = time.monotonic()
    checked = []
    for n, k in [(8, 1), (16, 1)]:
        cfg = make_config(n, n - 2, k)
        topo = build(cfg)
        adj = ring_graph(topo)
        for src in topo.nodes:
            dist = _bfs(adj, src)
            for dst in topo.nodes:
                hops = len(shortest_path(src, dst, topo)) - 1
                assert hops == dist[dst], f"{src}->{dst}: routed {hops}, BFS {dist[dst]}"
        checked.append(f"{len(topo.nodes)}^2")
    _finish(3, "hop-optimality", t0, 60.0, f"routed == BFS for {' and '.join(checked)} pairs")


def test_criterion_04_diameter():
    t0 = time.monotonic()
    results = []
    for n, k in [(8, 1), (16, 1)]:
        cfg = make_config(n, n - 2, k)
        topo = build(cfg)
        adj = ring_graph(topo)
        diameter = 0
        for src in topo.nodes:
            dist = _bfs(adj, src)
            assert len(dist) == len(topo.nodes)  # connected
            diameter = max(diameter, max(dist.values()))
        want = (k + 1) * n // 2
        assert diameter == want, f"N={n},k={k}: diameter {diameter} != {want}"
        results.append(f"N={n},k={k}: {diameter}")
    _finish(4, "diameter", t0, None, "; ".join(results) + " — both equal (k+1)N/2")


# --- 5. FIB size bound and walk equivalence ---------------------------------------


def test_criterion_05_fib_bound_and_walks():
    t0 = time.monotonic()
    sizes = []
    for n, k in [(8, 1), (16, 1)]:
        cfg = make_config(n, n - 2, k)
        topo = build(cfg)
        budget = 2 * (k + 1) * math.ceil(math.log2(n / 2))
        fibs = {node: build_fib(node, cfg) for node in topo.nodes}
        for node, fib in fibs.items():
            assert len(fib.entries) <= budget, f"{node}: {len(fib.entries)} entries > {budget}"
        sizes.append(f"N={n}: {len(fibs[topo.nodes[0]].entries)} <= {budget}")

        rng = Random(1000 + n)
        guard = hop_bound(cfg) + 1
        for _ in range(500):  # 500 per config, 1000 walks total
            src = rng.choice(topo.nodes)
            dst = rng.choice(topo.nodes)
            cur, hops = src, 0
            while cur != dst:
                action = fib_lookup(fibs[cur], dst)
                assert action is not None, f"{cur} has no entry toward {dst}"
                layer, direction = action
                cur = ring_neighbor(cur, layer, direction, n)
                hops += 1
                assert hops <= guard, f"walk {src}->{dst} still live after {hops} hops"
            assert fib_lookup(fibs[dst], dst) is None  # delivery, not forwarding
            want = len(shortest_path(src, dst, topo)) - 1
            assert hops == want, f"walk {src}->{dst}: {hops} hops, shortest {want}"
    _finish(5, "fib-bound", t0, None, "; ".join(sizes) + "; 1000 walks match shortest paths")


# --- 6. four node-disjoint paths vs max-flow oracle -------------------------------


def _node_disjoint_maxflow(topo, src, dst) -> int:
    """Independent max-flow count of node-disjoint src->dst paths (split nodes)."""
    g = nx.DiGraph()
    for node in topo.nodes:
        g.add_edge((node, "in"), (node, "out"), capacity=1)
    for a, b, _ in topo.edges:
        g.add_edge((a, "out"), (b, "in"), capacity=len(topo.nodes))
        g.add_edge((b, "out"), (a, "in"), capacity=len(topo.nodes))
    return int(nx.maximum_flow_value(g, (src, "out"), (dst, "in")))


def test_criterion_06_multipath():
    t0 = time.monotonic()
    cfg = make_config(8, 6, 1)
    topo = build(cfg)
    rng = Random(66)
    for _ in range(200):
        src = rng.choice(topo.nodes)
        dst = tuple((d + rng.randrange(1, cfg.n)) % cfg.n for d in src)  # all digits differ
        result = disjoint_paths(src, dst, topo)
        assert len(result) == 4, f"{src}->{dst}: {len(result)} paths"
        interiors = []
        for path in result:
            assert path[0] == src and path[-1] == dst
            path_hops(path, cfg)  # raises if any step is not a real hop
            interiors.append(set(path[1:-1]))
        for i in range(4):
            for j in range(i + 1, 4):
                shared = interiors[i] & interiors[j]
                assert not shared, f"{src}->{dst}: paths {i},{j} share {shared}"
        assert _node_disjoint_maxflow(topo, src, dst) == 4
    _finish(6, "multipath", t0, 30.0, "200 all-differ pairs: 4 disjoint paths == max-flow")


# --- 7. cell enumeration, grid partition, hierarchy -------------------------------


def test_criterion_07_cell_system():
    t0 = time.monotonic()
    # enumeration matches the count formula, with no duplicate ids
    for n, m, k in [(8, 6, 1), (8, 6, 2), (16, 8, 1)]:
        cfg = make_config(n, m, k, incl_deg=45.0)
        ids = list(iter_cells(cfg))
        want = (n - m) ** 2 * n ** (2 * k)
        assert len(ids) == want == cell_count(cfg)
        assert len(set(ids)) == want
        for cell in ids[:: max(1, want // 64)]:
            validate_cell(cell, cfg)

    # a 1-degree grid of the inclination band is claimed once, consistently
    cfg2 = make_config(8, 6, 2, incl_deg=45.0)
    cfg1 = make_config(8, 6, 1, incl_deg=45.0)
    cfg0 = make_config(8, 6, 0, incl_deg=45.0)
    points = 0
    claimed = set()
    for lat_deg in range(-44, 45):
        for lon_deg in range(-180, 180):
            p = LatLon(math.radians(lat_deg), math.radians(lon_deg))
            c2 = locate_point(p, cfg2)
            c1 = locate_point(p, cfg1)
            c0 = locate_point(p, cfg0)
            assert c2.level == 2 and c1.level == 1 and c0.level == 0
            assert c2.parent() == c1, f"{p}: level-2 {c2} not inside level-1 {c1}"
            assert c1.parent() == c0, f"{p}: level-1 {c1} not inside level-0 {c0}"
            if points % 37 == 0:
                validate_cell(c2, cfg2)
                assert locate_point(p, cfg2) == c2  # single-valued
            claimed.add(c2)
            points += 1
    _finish(
        7,
        "cell-system",
        t0,
        60.0,
        f"3 enumerations exact; {points} grid points nest across levels "
        f"({len(claimed)} distinct cells claimed)",
    )


# --- 8. geographic delivery at scale ----------------------------------------------


def test_criterion_08_geo_delivery():
    t0 = time.monotonic()
    cfg = make_config(16, 8, 1, altitude_km=1100.0, elev_deg=0.0)
    topo = build(cfg)
    tables = build_alpha0_tables(cfg)
    bound = (cfg.k + 1) * (cfg.n // 2) + (cfg.k + 1) * (cfg.n - 1)
    rng = Random(88)

    def sphere_point():
        lat = math.asin(2.0 * rng.random() - 1.0)
        return LatLon(lat, rng.uniform(-math.pi, math.pi))

    worst = 0
    fallbacks = 0
    for _ in range(10_000):
        src_p, dst_p = sphere_point(), sphere_point()
        t = rng.uniform(0.0, cfg.period_s)
        serving = associate(src_p, t, topo)
        dst_cell = locate_point(dst_p, cfg)
        res = geo_route(serving, dst_cell, t, cfg, tables)
        assert res.delivered, f"{src_p}->{dst_p} at t={t:.1f}: not delivered"
        assert not res.coverage_violation
        assert len(set(res.path)) == len(res.path), "routing loop"
        assert res.hops <= bound, f"{res.hops} hops > bound {bound}"
        worst = max(worst, res.hops)
        fallbacks += 1 if res.fallback_hops else 0
    _finish(
        8,
        "geo-delivery",
        t0,
        120.0,
        f"10000/10000 delivered, zero loops, worst {worst} hops <= {bound} "
        f"({fallbacks} left the plan for the nearest satellite)",
    )


@pytest.mark.parametrize("k, triples", [(2, 1000), (3, 300)])
def test_criterion_08_invariants_at_paper_depth(k, triples):
    """Criterion 8's invariants at 4,096 and 65,536 satellites."""
    cfg = make_config(16, 8, k, altitude_km=1100.0, elev_deg=0.0)
    topo, tables = build(cfg), build_alpha0_tables(cfg)
    bound = (k + 1) * (cfg.n // 2) + (k + 1) * (cfg.n - 1)
    rng = Random(808 + k)

    def sphere_point():
        return LatLon(math.asin(2.0 * rng.random() - 1.0), rng.uniform(-math.pi, math.pi))

    for _ in range(triples):
        src_p, dst_p = sphere_point(), sphere_point()
        t = rng.uniform(0.0, cfg.period_s)
        res = geo_route(associate(src_p, t, topo), locate_point(dst_p, cfg), t, cfg, tables)
        assert res.delivered, f"{src_p}->{dst_p} at t={t:.1f}: not delivered"
        assert not res.coverage_violation
        assert len(set(res.path)) == len(res.path), "routing loop"
        assert res.hops <= bound, f"{res.hops} hops > bound {bound}"
        assert len(path_hops(res.path, cfg)) == res.hops  # raises on a non-ring hop


def test_criterion_08_delivery_wherever_covered_at_a_25_degree_mask():
    """At a 25 degree mask some targets lie outside every footprint and some
    plans cover nothing: a route is delivered exactly when a satellite covers
    its cell centre, still without loops and within the hop bound."""
    t0 = time.monotonic()
    cfg = make_config(16, 2, 1, altitude_km=878.76, elev_deg=25.0)
    topo, tables, state = build(cfg), build_alpha0_tables(cfg), OrbitState(cfg)
    radius = coverage_range(cfg.altitude_km, cfg.min_elevation_rad, cfg.consts)
    bound = (cfg.k + 1) * (cfg.n // 2) + (cfg.k + 1) * (cfg.n - 1)
    rng = Random(825)

    def sphere_point():
        return LatLon(math.asin(2.0 * rng.random() - 1.0), rng.uniform(-math.pi, math.pi))

    delivered = left_plan = 0
    for _ in range(5_000):
        src_p, dst_p = sphere_point(), sphere_point()
        t = rng.uniform(0.0, cfg.rho * cfg.period_s)
        cell = locate_point(dst_p, cfg, tables)
        res = geo_route(associate(src_p, t, topo), cell, t, cfg, tables)
        target = ground_unit(geocoord_to_latlon(cell_center(cell, tables), cfg), t, cfg)
        covered = central_angles(state.unit_positions(t), target).min() <= radius
        assert res.delivered == covered, f"{src_p}->{dst_p} at t={t:.1f}: covered {covered}"
        assert res.coverage_violation == (not res.delivered)
        assert len(set(res.path)) == len(res.path), "routing loop"
        assert res.hops <= bound, f"{res.hops} hops > bound {bound}"
        assert len(path_hops(res.path, cfg)) == res.hops  # raises on a non-ring hop
        delivered += res.delivered
        left_plan += res.fallback_hops > 0
    _finish(
        8,
        "geo-delivery-25deg",
        t0,
        120.0,
        f"{delivered}/5000 delivered, each exactly where a satellite covers the cell "
        f"centre, zero loops, hops <= {bound} ({left_plan} left the plan)",
    )


# --- 9. delay stretch over one period ----------------------------------------------


def test_criterion_09_delay_stretch():
    t0 = time.monotonic()
    period = 86164.0905 / 14.0  # rho = n - m = 14
    doc = {
        "config": {
            "n": 16,
            "m": 2,
            "k": 1,
            "altitude_km": 878.76,
            "inclination_deg": 70.0,
            "min_elevation_deg": 0.0,
        },
        "window": {"start_s": 0.0, "end_s": period, "step_s": 10.0},
        "endpoints": {
            "beijing": {"lat_deg": 39.9, "lon_deg": 116.4},
            "new_york": {"lat_deg": 40.7, "lon_deg": -74.0},
        },
        "experiments": [{"src": "beijing", "dst": "new_york"}],
        "seed": 9,
    }
    records, summary = run(scenario_from_dict(doc))
    assert summary["records"] == 616  # one full period at 10 s steps

    stretches = sorted(r.stretch for r in records)

    def pct(q: float) -> float:
        idx = min(len(stretches) - 1, int(round(q * (len(stretches) - 1))))
        return stretches[idx]

    distribution = (
        f"stretch over {len(stretches)} steps: min {stretches[0]:.5f}, "
        f"p50 {pct(0.50):.5f}, p90 {pct(0.90):.5f}, p95 {pct(0.95):.5f}, "
        f"p99 {pct(0.99):.5f}, max {stretches[-1]:.5f}; "
        f"handoffs {summary['experiments']['beijing->new_york']['handoffs']}"
    )
    assert summary["stretch_median"] <= 1.02, f"median too high — {distribution}"
    assert summary["stretch_p95"] <= 1.05, f"p95 too high — {distribution}"
    _finish(9, "delay-stretch", t0, 300.0, distribution)


# --- 10. link-delay character -------------------------------------------------------


def test_criterion_10_link_delay_character():
    t0 = time.monotonic()
    cfg = make_config(8, 6, 1)
    topo = build(cfg)
    period = cfg.period_s

    intra = inter = 0
    worst_spread = 0.0
    worst_drift = 0.0
    for a, b, layer in topo.edges:
        if layer == 0:
            # different orbit planes: range must repeat exactly every half period
            ea, eb = address_to_elements(a, cfg), address_to_elements(b, cfg)
            for i in range(24):
                t = period * i / 48.0
                r_now = great_circle_range(sat_position_eci(ea, t), sat_position_eci(eb, t))
                r_half = great_circle_range(
                    sat_position_eci(ea, t + period / 2.0),
                    sat_position_eci(eb, t + period / 2.0),
                )
                worst_drift = max(worst_drift, abs(r_now - r_half))
                assert abs(r_now - r_half) <= 1e-9, f"{a}--{b}: drift {abs(r_now - r_half):.2e}"
            inter += 1
        else:
            if {a[layer], b[layer]} == {0, cfg.n - 1}:
                continue  # wrap edge spans a different fixed arc
            trace = link_delay_trace((a, b), (0.0, period, period / 32.0), topo)
            delays = [d for _, d in trace]
            spread = (max(delays) - min(delays)) / (sum(delays) / len(delays))
            worst_spread = max(worst_spread, spread)
            assert spread <= 1e-12, f"{a}--{b}: intra delay varies by {spread:.2e}"
            intra += 1
    _finish(
        10,
        "link-delay-character",
        t0,
        30.0,
        f"{intra} intra edges constant ({worst_spread:.1e} rel), "
        f"{inter} inter edges half-period-periodic ({worst_drift:.1e} rad)",
    )


# --- 11. serialized table budget ----------------------------------------------------


def test_criterion_11_table_bytes(tmp_path):
    t0 = time.monotonic()
    cfg = make_config(16, 8, 3)
    tables = build_alpha0_tables(cfg)
    path = str(tmp_path / "alpha0.fra0")
    written = save_tables(path, tables)
    on_disk = os.path.getsize(path)
    assert written == on_disk == 24 + 8 * tables.n_rows
    assert on_disk < 2 * 1024 * 1024
    assert load_tables(path).n_rows == tables.n_rows
    _finish(11, "table-bytes", t0, None, f"N=16,k=3 tables = {on_disk} bytes < 2 MiB")


# --- 12. invariant property suites --------------------------------------------------


def test_criterion_12_property_suites():
    t0 = time.monotonic()
    details = []
    for check in (
        check_link_closed_form,
        check_hop_motions,
        check_subpoint_repeat,
        check_encode_roundtrip,
    ):
        ok, detail = check()
        assert ok, f"{check.__name__}: {detail}"
        details.append(f"{check.__name__}: {detail}")
    _finish(12, "property-suites", t0, None, " | ".join(details))
