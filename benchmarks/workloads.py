"""The four workloads: inputs from a seed, set-up, one request, its checks.

Every workload is a closed loop with one caller and no think time. A
request is the unit whose latency is sampled; an operation is the unit that
throughput counts. They coincide except on ``sim-bjny``, where a request is
one ``sim.run`` call and an operation is one trace record.

All calls go through module attributes (``sim.associate``, not a name bound
at import), so the tracer's wrappers see them.

Besides ``draw``, ``setup`` and ``request``, a workload turns a request's
input and output into its failed operations (``check``), its reference key
when it is among the leading requests (``key``), and its share of the
workload-property counters (``tally``, each a numerator and its base).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import checks
import frosette.cli as cli
import frosette.config as config
import frosette.constellation as constellation
import frosette.geocell as geocell
import frosette.geom as geom
import frosette.georouting as georouting
import frosette.routing as routing
import frosette.sim as sim

SIDEREAL_DAY_S = 86164.0905


def digest(items) -> str:
    """Short stable hash of integer-valued outputs, via their repr."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Workload:
    name = ""
    setup_reps = 1          # set-ups per run, spread through the timed loop
    ops_per_request = 1
    trace_requests = 1      # fixed request count of the traced phase
    reference_requests = 1  # leading requests compared with reference.json
    reference_block = 1     # requests per reference digest
    count_properties: tuple[str, ...] = ()  # reported as counts, not ratios

    def __init__(self, seed: int, out_dir: str) -> None:
        """``out_dir`` is where a workload may write files during the run."""
        self.seed = seed

    def inputs(self):
        """Request inputs drawn from the seed; each call starts the same stream."""
        rng = random.Random(self.seed)
        i = 0
        while True:
            yield self.draw(rng, i)
            i += 1

    def check(self, x, out) -> tuple[int, list[str]]:
        """Failed operations of the request with input x, and the problems found."""
        problems = self.problems(x, out)
        return (self.ops_per_request if problems else 0), problems

    def reference(self, keys: list) -> dict:
        block = self.reference_block
        return {"blocks": [digest(keys[i:i + block]) for i in range(0, len(keys), block)]}

    def compare(self, ref: dict, keys: list) -> tuple[int, set[int]]:
        """Requests compared with the reference, and those that differ.

        Only whole blocks are compared; a run too short for one compares none.
        """
        block = self.reference_block
        whole = len(keys) // block * block
        bad = set()
        for b, (want, got) in enumerate(zip(ref["blocks"], self.reference(keys[:whole])["blocks"])):
            if want != got:
                bad.update(range(b * block, (b + 1) * block))
        return whole, bad

    def cleanup(self) -> None:
        """Remove files the requests wrote."""

    def shape(self) -> dict:
        """Size of the constellation the requests run on."""
        return {"satellites": self.cfg.n_sats, "edges": (self.cfg.k + 1) * self.cfg.n_sats}


class SimBjny(Workload):
    """Criterion 9: Beijing -> New York over one orbital period at 10 s steps."""

    name = "sim-bjny"
    setup_reps = 200
    trace_requests = 2
    scenarios = 16  # distinct windows, reused in turn by later requests
    config_doc = {
        "n": 16, "m": 2, "k": 1, "altitude_km": 878.76,
        "inclination_deg": 70.0, "min_elevation_deg": 0.0,
    }
    step_s = 10.0
    delay_stride = 32
    count_properties = ("sim.handoffs", "sim.hop_mismatch_records")
    # Delays match within 1e-9 relative: room for a reordered sum or another
    # arc formula, far below the effect of any change of route.
    DELAY_REL_TOL = 1e-9

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.cfg = config.config_from_dict(self.config_doc)
        period = SIDEREAL_DAY_S / self.cfg.rho
        rng = random.Random(seed)
        self.docs = []
        self.times = []
        for _ in range(self.scenarios):
            start = rng.uniform(0.0, SIDEREAL_DAY_S)
            end = start + period
            doc = {
                "config": self.config_doc,
                "window": {"start_s": start, "end_s": end, "step_s": self.step_s},
                "endpoints": {
                    "beijing": {"lat_deg": 39.9, "lon_deg": 116.4},
                    "new_york": {"lat_deg": 40.7, "lon_deg": -74.0},
                },
                "experiments": [{"src": "beijing", "dst": "new_york"}],
            }
            self.docs.append(json.dumps(doc))
            steps = math.floor((end - start) / self.step_s + 1e-9) + 1
            self.times.append([start + i * self.step_s for i in range(steps)])
        self.ops_per_request = len(self.times[0])

    def draw(self, rng: random.Random, i: int) -> int:
        return i % self.scenarios

    def setup(self) -> None:
        self.parsed = [sim.scenario_from_dict(json.loads(text)) for text in self.docs]

    def request(self, which: int):
        records, _summary = sim.run(self.parsed[which])
        return records

    def check(self, which: int, records) -> tuple[int, list[str]]:
        problems, bad = checks.check_sim_records(records, self.times[which], self.cfg.n)
        if problems:
            return self.ops_per_request, problems
        return len(bad), ([f"{len(bad)} records fail, first at step {bad[0]}"] if bad else [])

    def key(self, which: int, records) -> dict:
        ints = [
            (r.frosette_hops, r.oracle_hops, r.src_sat, r.dst_sat, r.handoff, r.flag)
            for r in records
        ]
        return {
            "ints": digest(ints),
            "delay_stride": self.delay_stride,
            "frosette_delay_s": [r.frosette_delay_s for r in records[:: self.delay_stride]],
            "oracle_delay_s": [r.oracle_delay_s for r in records[:: self.delay_stride]],
            "frosette_delay_sum_s": math.fsum(r.frosette_delay_s for r in records),
            "oracle_delay_sum_s": math.fsum(r.oracle_delay_s for r in records),
        }

    def reference(self, keys: list) -> dict:
        return keys[0]

    def compare(self, ref: dict, keys: list) -> tuple[int, set[int]]:
        got, tol = keys[0], self.DELAY_REL_TOL
        same = got["ints"] == ref["ints"] and all(
            len(got[name]) == len(ref[name])
            and all(_rel_close(a, b, tol) for a, b in zip(got[name], ref[name]))
            for name in ("frosette_delay_s", "oracle_delay_s")
        ) and all(
            _rel_close(got[name], ref[name], tol)
            for name in ("frosette_delay_sum_s", "oracle_delay_sum_s")
        )
        return 1, (set() if same else {0})

    def tally(self, which: int, records) -> dict:
        return {
            "sim.handoffs": (sum(r.handoff for r in records), len(records)),
            "sim.hop_mismatch_records": (
                sum(r.frosette_hops != r.oracle_hops for r in records), len(records)
            ),
        }


def _sphere_point(rng: random.Random) -> geom.LatLon:
    return geom.LatLon(math.asin(2.0 * rng.random() - 1.0), rng.uniform(-math.pi, math.pi))


class GeoDelivery(Workload):
    """Criterion 8 traffic: associate, locate the cell, route geographically."""

    name = "geo-delivery"
    setup_reps = 40
    trace_requests = 5000
    reference_requests = 2000
    reference_block = 200

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.cfg = config.ConstellationConfig(
            n=16, m=8, k=1, altitude_km=1100.0,
            inclination_rad=math.radians(70.0), min_elevation_rad=0.0,
        )
        n, k = self.cfg.n, self.cfg.k
        self.bound = (k + 1) * (n // 2) + (k + 1) * (n - 1)

    def draw(self, rng: random.Random, i: int):
        src, dst = _sphere_point(rng), _sphere_point(rng)
        return src, dst, rng.uniform(0.0, self.cfg.period_s)

    def setup(self) -> None:
        self.topo = constellation.build(self.cfg)
        self.tables = geocell.build_alpha0_tables(self.cfg)

    def request(self, x):
        src, dst, t = x
        serving = sim.associate(src, t, self.topo)
        cell = geocell.locate_point(dst, self.cfg, self.tables)
        return serving, cell, georouting.geo_route(serving, cell, t, self.cfg, self.tables)

    def problems(self, x, out) -> list[str]:
        serving, _cell, result = out
        return checks.check_geo_route(serving, result, self.bound, self.cfg.n)

    def key(self, x, out):
        serving, cell, r = out
        return (serving, cell.digits, r.path, r.terminal, r.delivered, r.fallback_hops,
                r.coverage_violation)

    def tally(self, x, out) -> dict:
        r = out[2]
        return {
            "georouting.fallback_share": (int(r.fallback_hops > 0), 1),
            "georouting.start_share": (int(r.hops == 0), 1),
            "georouting.mean_hops": (r.hops, 1),
        }


class RingRouting(Workload):
    """Four-ring routing: 49 route requests, then one disjoint-paths request
    between addresses that differ on every ring."""

    name = "ring-routing"
    setup_reps = 7
    trace_requests = 1000
    reference_requests = 500
    reference_block = 50
    multipath_every = 50

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.cfg = config.ConstellationConfig(
            n=8, m=6, k=3, altitude_km=1200.0,
            inclination_rad=math.radians(70.0), min_elevation_rad=math.radians(25.0),
        )

    def draw(self, rng: random.Random, i: int):
        """A route request between distinct addresses, or a disjoint-paths
        request between addresses that differ on every ring, the deepest
        case (2(k+1) paths): its cost then varies less from pair to pair, so
        the hundred or so in a run set a steady tail."""
        n, width = self.cfg.n, self.cfg.k + 1
        multi = i % self.multipath_every == self.multipath_every - 1
        src = tuple(rng.randrange(n) for _ in range(width))
        if multi:
            return multi, src, tuple((a + rng.randrange(1, n)) % n for a in src)
        dst = src
        while dst == src:
            dst = tuple(rng.randrange(n) for _ in range(width))
        return multi, src, dst

    def setup(self) -> None:
        self.topo = constellation.build(self.cfg)
        self.fibs = {addr: routing.build_fib(addr, self.cfg) for addr in self.topo.nodes}

    def request(self, x):
        multi, src, dst = x
        if multi:
            return routing.disjoint_paths(src, dst, self.topo).paths
        path = routing.shortest_path(src, dst, self.topo)
        hops = routing.path_hops(path, self.cfg)
        walk = [src]
        limit = routing.hop_bound(self.cfg)
        while len(walk) <= limit + 1:
            action = routing.fib_lookup(self.fibs[walk[-1]], dst)
            if action is None:
                break
            walk.append(constellation.ring_neighbor(walk[-1], action[0], action[1], self.cfg.n))
        return path, hops, walk

    def problems(self, x, out) -> list[str]:
        multi, src, dst = x
        if multi:
            return checks.check_multipath(src, dst, out, self.cfg.n)
        path, hops, walk = out
        return checks.check_ring_route(src, dst, path, hops, walk, self.cfg.n)

    def key(self, x, out):
        return out

    def tally(self, x, out) -> dict:
        multi, src, dst = x
        props = {"routing.all_differ_share": (int(all(a != b for a, b in zip(src, dst))), 1)}
        if multi:
            props["routing.paths_per_multipath"] = (len(out), 1)
        else:
            props["routing.mean_path_hops"] = (len(out[0]) - 1, 1)
        return props


class Generate(Workload):
    """``frosette generate --output --tables`` in-process at 65,536 satellites."""

    name = "generate"
    setup_reps = 50
    trace_requests = 1
    configs = 16  # distinct configs, reused in turn by later requests
    alpha0_stride = 256
    count_properties = ("cli.output_bytes",)
    # alpha0 rows match within the bisection tolerance ALPHA0_BISECT_TOL_RAD.
    ALPHA0_ABS_TOL = 1e-10

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.dir = os.path.join(out_dir, f"generate-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        rng = random.Random(seed)
        self.config_paths = []
        for j in range(self.configs):
            # The cell lattice needs (N-m)*cos(inclination) > 1: below 82.8 deg.
            doc = {
                "n": 16, "m": 8, "k": 3,
                "altitude_km": rng.uniform(900.0, 1500.0),
                "inclination_deg": rng.uniform(50.0, 80.0),
                "min_elevation_deg": 0.0,
            }
            path = os.path.join(self.dir, f"config-{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.config_paths.append(path)
        self.cfg = config.config_from_dict(doc)  # every config has the same N, m, k

    def draw(self, rng: random.Random, i: int):
        return (
            i % self.configs,
            os.path.join(self.dir, f"topology-{i}.json"),
            os.path.join(self.dir, f"tables-{i}.fra0"),
        )

    def setup(self) -> None:
        self.cfgs = [config.load_config(path) for path in self.config_paths]

    def request(self, x):
        j, topo_path, fra0_path = x
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main([
                "generate", "--config", self.config_paths[j],
                "--output", topo_path, "--tables", fra0_path,
            ])
        return rc, stdout.getvalue()

    def problems(self, x, out) -> list[str]:
        rc, stdout = out
        if rc != 0:
            return [f"exit code {rc}"]
        j, topo_path, fra0_path = x
        return checks.check_generate(
            json.loads(stdout), topo_path, fra0_path, self.cfgs[j],
            geocell.load_tables(fra0_path),
        )

    def key(self, x, out) -> dict:
        _j, topo_path, fra0_path = x
        sha = hashlib.sha256()
        with open(topo_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
        table = geocell.load_tables(fra0_path)
        return {
            "topology_sha256": sha.hexdigest(),
            "summary": json.loads(out[1]),
            "fra0": [table.n, table.m, table.k, table.n_rows],
            "alpha0_stride": self.alpha0_stride,
            "alpha0_rad": [float(v) for v in table.values[:: self.alpha0_stride]],
            "alpha0_last_rad": float(table.values[-1]),
        }

    def reference(self, keys: list) -> dict:
        return keys[0]

    def compare(self, ref: dict, keys: list) -> tuple[int, set[int]]:
        got, tol = keys[0], self.ALPHA0_ABS_TOL
        same = (
            got["topology_sha256"] == ref["topology_sha256"]
            and got["fra0"] == ref["fra0"]
            and all(got["summary"][f] == ref["summary"][f] for f in ("nodes", "edges", "tables_bytes"))
            and len(got["alpha0_rad"]) == len(ref["alpha0_rad"])
            and all(abs(a - b) <= tol for a, b in zip(got["alpha0_rad"], ref["alpha0_rad"]))
            and abs(got["alpha0_last_rad"] - ref["alpha0_last_rad"]) <= tol
        )
        return 1, (set() if same else {0})

    def tally(self, x, out) -> dict:
        _j, topo_path, fra0_path = x
        return {"cli.output_bytes": (os.path.getsize(topo_path) + os.path.getsize(fra0_path), 1)}

    def cleanup(self) -> None:
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)


WORKLOADS = {w.name: w for w in (SimBjny, GeoDelivery, RingRouting, Generate)}
