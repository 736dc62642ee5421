"""Tests of the benchmark itself: its checkers, tracer, workloads and spec.

Run with ``python3 -m pytest benchmarks -q`` from the repository root.
"""
import argparse
import json
import math

import pytest

import bench

bench.load_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from frosette.config import ConstellationConfig  # noqa: E402
from frosette.constellation import build  # noqa: E402
from frosette.geocell import build_alpha0_tables  # noqa: E402
from frosette.georouting import GeoRouteResult  # noqa: E402
from frosette.routing import disjoint_paths, path_hops, shortest_path  # noqa: E402
from frosette.sim import run, scenario_from_dict  # noqa: E402
from hostspeed import NEAREST, REF_KERNEL_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cfg(n, m, k, incl_deg=70.0):
    return ConstellationConfig(n=n, m=m, k=k, altitude_km=1200.0,
                               inclination_rad=math.radians(incl_deg),
                               min_elevation_rad=math.radians(25.0))


@pytest.fixture(scope="module")
def ring():
    cfg = _cfg(8, 6, 2)
    return cfg, build(cfg)


def test_ring_route_checker_rejects_a_skipped_hop(ring):
    cfg, topo = ring
    src, dst = (0, 0, 0), (4, 5, 3)
    path = shortest_path(src, dst, topo)
    hops = path_hops(path, cfg)
    assert checks.check_ring_route(src, dst, path, hops, path, cfg.n) == []
    skipped = path[:3] + path[4:]
    assert checks.check_ring_route(src, dst, skipped, hops, path, cfg.n)
    assert checks.check_ring_route(src, dst, path, hops, skipped, cfg.n)


def test_multipath_checker_rejects_a_shared_interior_node(ring):
    cfg, topo = ring
    src, dst = (0, 0, 0), (4, 5, 3)
    paths = list(disjoint_paths(src, dst, topo))
    assert checks.check_multipath(src, dst, paths, cfg.n) == []
    shared = paths[0][1]
    detour = tuple(paths[1][:2]) + (shared,) + tuple(paths[1][3:])
    assert any("share" in p for p in checks.check_multipath(src, dst, [paths[0], detour] + paths[2:], cfg.n))
    assert checks.check_multipath(src, dst, paths[:-1], cfg.n)


def test_geo_route_checker_rejects_an_undelivered_route():
    path = ((0, 0), (1, 0), (2, 0))
    good = GeoRouteResult(path=path, terminal=(2, 0), delivered=True, fallback_hops=0)
    assert checks.check_geo_route((0, 0), good, bound=10, n=16) == []
    lost = GeoRouteResult(path=path, terminal=(2, 0), delivered=False, fallback_hops=3)
    assert "route not delivered" in checks.check_geo_route((0, 0), lost, bound=10, n=16)
    looped = GeoRouteResult(path=path + ((1, 0),), terminal=(1, 0), delivered=True, fallback_hops=0)
    assert "routing loop" in checks.check_geo_route((0, 0), looped, bound=10, n=16)


def test_alpha0_checker_rejects_a_perturbed_row():
    cfg = _cfg(8, 6, 2, incl_deg=45.0)
    values = build_alpha0_tables(cfg).values.copy()
    args = (cfg.n, cfg.m, cfg.k, cfg.inclination_rad, cfg.consts.sidereal_day_s)
    assert checks.alpha0_row_problems(values, *args) == []
    values[len(values) // 2] += 1e-7
    assert checks.alpha0_row_problems(values, *args)


def test_topology_checker_rejects_a_wrong_edge_and_a_missing_node(tmp_path, capsys):
    from frosette.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "m": 1, "k": 2, "altitude_km": 1200.0,
                                  "inclination_deg": 70.0}))
    topo = tmp_path / "topology.json"
    assert main(["generate", "--config", str(config), "--output", str(topo)]) == 0
    text = topo.read_text()
    assert checks.topology_text_problems(text, 4, 2) == []
    wrong_edge = text.replace('["0.0.1", "0.0.2", 2]', '["0.0.1", "0.0.3", 2]')
    assert wrong_edge != text and checks.topology_text_problems(wrong_edge, 4, 2)
    missing_node = text.replace('"0.0.1", ', "", 1)  # the node list comes first
    assert missing_node != text and checks.topology_text_problems(missing_node, 4, 2)


def test_sim_checker_rejects_a_wrong_hop_count_and_a_missing_record():
    doc = {
        "config": {"n": 8, "m": 2, "k": 1, "altitude_km": 1200.0,
                   "inclination_deg": 70.0, "min_elevation_deg": 0.0},
        "window": {"start_s": 0.0, "end_s": 200.0, "step_s": 10.0},
        "endpoints": {"a": {"lat_deg": 39.9, "lon_deg": 116.4},
                      "b": {"lat_deg": 40.7, "lon_deg": -74.0}},
        "experiments": [{"src": "a", "dst": "b"}],
    }
    records, _ = run(scenario_from_dict(doc))
    times = [10.0 * i for i in range(21)]
    assert checks.check_sim_records(records, times, 8) == ([], [])
    wrong = list(records)
    wrong[5] = type(records[5])(**{**records[5].__dict__, "frosette_hops": records[5].frosette_hops + 1})
    assert checks.check_sim_records(wrong, times, 8)[1] == [5]
    assert checks.check_sim_records(records[:-1], times, 8)[0]


def test_tracer_records_nested_spans_and_restores_the_program():
    import frosette.sim as sim

    original = sim.shortest_path
    cfg = _cfg(8, 6, 1)
    topo = build(cfg)
    tracer = Tracer()
    with tracer:
        assert sim.shortest_path is not original
        sim.delay_oracle(topo, 0.0, (0, 0), (4, 5))
    assert sim.shortest_path is original
    spans = tracer.summary()
    assert spans["sim.delay_oracle"]["calls"] == 1
    assert spans["constellation.adjacency"]["calls"] == 1
    oracle = spans["sim.delay_oracle"]
    assert 0.0 < oracle["self_s"] < oracle["total_s"]


def test_host_speed_scales_an_interval_by_the_samples_taken_in_it():
    speed = HostSpeed()
    for t in range(100):  # one sample per second; the host halves its speed at t = 50
        speed.at.append(float(t))
        speed.took.append(1e-4 if t < 50 else 2e-4)
    fast, slow, across, short = speed.scales([10.0, 60.0, 40.0, 49.4], [40.0, 90.0, 59.0, 49.6])
    assert fast == pytest.approx(REF_KERNEL_S / 1e-4)
    assert slow == pytest.approx(REF_KERNEL_S / 2e-4)
    assert across == pytest.approx(REF_KERNEL_S * (10 / 1e-4 + 10 / 2e-4) / 20)
    # Fewer than NEAREST samples inside: the NEAREST around the middle.
    assert short == pytest.approx(REF_KERNEL_S * (NEAREST // 2) * (1 / 1e-4 + 1 / 2e-4) / NEAREST)


def test_host_speed_samples_while_installed_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    speed = HostSpeed()
    with speed:
        t0 = time.thread_time()
        while time.thread_time() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(speed.took) > 2 * NEAREST and 0.0 < speed.spent < 0.3
    assert min(speed.took) > 0.0


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_minimal_run_has_no_failed_operations(name, capsys):
    args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=0)
    result = bench.run(args)
    record = json.loads(next(
        line for line in capsys.readouterr().out.splitlines() if line.startswith("run_record ")
    )[len("run_record "):])
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["reference"].startswith("match on ")
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}
