"""The frosette benchmark: one workload per run, one process, one thread.

Run from the repository root, against the package under ``src/``:

    python3 benchmarks/bench.py --workload geo-delivery --seed 1 --seconds 20 --trace 0

Every line of standard output before the last names one metric with its
value and unit, then a ``run_record`` line gives the software and machine,
the workload's size, the request count and the workload-property counters,
each with its base. The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from a closed
loop of requests that runs until they have been busy for ``--seconds``, with the
workload's set-ups spread through it; ``setup_s`` is their median.
``op_p99_ms`` is the 99th percentile; a run of fewer than 1,000 requests
uses a lower percentile (see ``tail_quantile``).

Times are CPU time of the benchmark's one thread, scaled to a reference
speed of the host by samples of a fixed kernel taken while the loop runs
(see hostspeed.py): a shared host switches between speeds about 1.8x apart
within seconds, and unscaled times measure mostly which state a run fell in.
The unscaled figures are in the run record under ``raw``.

``--trace 1`` runs the same timed loop, then one set-up and a fixed number
of requests with span wrappers installed, and reports the per-layer
metrics; tracing overhead is the ratio of the two loops' scaled throughput.
Span times are wall time and include the speed samples (about 2%).

Each request's output is checked as soon as it returns, outside the timed
window. The leading requests of the seeds in reference.json are also
compared with the outputs captured when the benchmark was defined:

    python3 benchmarks/bench.py --capture-reference

Run records, and the spans of traced runs, are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

# One thread: numpy's BLAS would otherwise start a pool when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import checks  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEEDS = range(32)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics. Span metrics are totals over the traced phase: one
# set-up plus the workload's fixed ``trace_requests``.
PER_LAYER = (
    ("sim.run.self_s", "s"),
    ("sim.delay_oracle.self_s", "s"),
    ("sim.delay_oracle.calls", "count"),
    ("sim.associate.self_s", "s"),
    ("sim.associate.calls", "count"),
    ("sim.path_delay.self_s", "s"),
    ("sim.handoffs", "count"),
    ("sim.hop_mismatch_records", "count"),
    ("constellation.build.self_s", "s"),
    ("constellation.adjacency.self_s", "s"),
    ("constellation.adjacency.calls", "count"),
    ("constellation.address_to_elements.calls", "count"),
    ("routing.shortest_path.self_s", "s"),
    ("routing.shortest_path.calls", "count"),
    ("routing.path_hops.self_s", "s"),
    ("routing.fib_lookup.self_s", "s"),
    ("routing.fib_lookup.calls", "count"),
    ("routing.build_fib.self_s", "s"),
    ("routing.disjoint_paths.self_s", "s"),
    ("routing.disjoint_paths.calls", "count"),
    ("routing.fib_lookups_per_route", "1/route"),
    ("routing.paths_per_multipath", "1/request"),
    ("routing.all_differ_share", "ratio"),
    ("routing.mean_path_hops", "hops"),
    ("geocell.locate_point.self_s", "s"),
    ("geocell.cell_center.self_s", "s"),
    ("geocell.cell_center.calls", "count"),
    ("geocell.build_alpha0_tables.self_s", "s"),
    ("geocell.save_tables.self_s", "s"),
    ("georouting.geo_route.self_s", "s"),
    ("georouting.coverage_check.self_s", "s"),
    ("georouting.coverage_check.calls", "count"),
    ("georouting.serving_coord.calls", "count"),
    ("georouting.coverage_checks_per_route", "1/route"),
    ("georouting.fallback_share", "ratio"),
    ("georouting.start_share", "ratio"),
    ("georouting.mean_hops", "hops"),
    ("geom.great_circle_range.self_s", "s"),
    ("geom.great_circle_range.calls", "count"),
    ("geom.subpoint.self_s", "s"),
    ("geom.subpoint.calls", "count"),
    ("cli.generate.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("sim.self_share", "ratio"),
    ("constellation.self_share", "ratio"),
    ("routing.self_share", "ratio"),
    ("geocell.self_share", "ratio"),
    ("georouting.self_share", "ratio"),
    ("geom.self_share", "ratio"),
    ("cli.self_share", "ratio"),
    ("trace.requests", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.overhead", "ratio"),
)


def load_program():
    """Import ``frosette`` from this checkout's ``src/``, nothing else."""
    if not (SRC / "frosette" / "__init__.py").is_file():
        raise SystemExit(f"bench: no frosette package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import frosette

    if Path(frosette.__file__).resolve().parent != SRC / "frosette":
        raise SystemExit(f"bench: imported frosette from {frosette.__file__}, not {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Phase:
    """One closed loop of requests.

    Each output is checked as soon as its request returns, outside the timed
    window, and then dropped, so memory does not grow with the request count;
    only reference keys of the leading requests are kept. Requests and
    set-ups are timed on the thread's CPU clock, which leaves out time the
    host gives this vCPU to other guests.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        # compact: their size grows with the request count
        self.starts, self.ends, self.raw = array("d"), array("d"), array("d")
        self.setup_starts, self.setup_ends, self.setup_raw = array("d"), array("d"), array("d")
        self.latencies: list[float] = []  # per request, at reference speed (see scale)
        self.setups: list[float] = []
        self.completed = 0
        self.failed = 0
        self.problems: list[str] = []
        self.keys: list = []
        self.tally: dict[str, list] = {}

    def record(self, i: int, x, out, error: Exception | None) -> None:
        wl = self.wl
        if error is None:
            self.completed += 1
            try:
                bad, found = wl.check(x, out)
            except Exception as exc:  # a checker that cannot read the output fails it
                bad, found = wl.ops_per_request, [f"unreadable output: {exc!r}"]
        else:
            bad, found = wl.ops_per_request, [f"raised {error!r}"]
        self.failed += bad
        self.problems += [f"request {i}: {p}" for p in found[:2]][: max(0, 10 - len(self.problems))]
        if error is None and bad == 0:
            if i < wl.reference_requests and len(self.keys) == i:
                self.keys.append(wl.key(x, out))
            for name, (num, den) in wl.tally(x, out).items():
                acc = self.tally.setdefault(name, [0, 0])
                acc[0] += num
                acc[1] += den

    def scale(self, speed: HostSpeed | None) -> None:
        """Latencies and set-up times at the reference speed of ``speed``,
        or raw when the phase ran without one."""
        if speed is None:
            self.latencies, self.setups = list(self.raw), list(self.setup_raw)
            return
        self.latencies = (np.frombuffer(self.raw) * speed.scales(self.starts, self.ends)).tolist()
        self.setups = (
            np.frombuffer(self.setup_raw) * speed.scales(self.setup_starts, self.setup_ends)
        ).tolist()

    def ops_per_s(self, latencies=None) -> float:
        busy = math.fsum(self.latencies if latencies is None else latencies)
        return self.completed * self.wl.ops_per_request / busy

    def properties(self) -> dict:
        return {
            name: {
                "value": num if name in self.wl.count_properties else (num / den if den else 0.0),
                "num": num,
                "den": den,
            }
            for name, (num, den) in self.tally.items()
        }


WALL_LIMIT = 1.5  # a timed loop ends after this many times --seconds of wall time


def run_phase(wl, setups: int, seconds: float | None = None, count: int | None = None,
              tracer=None, speed: HostSpeed | None = None) -> Phase:
    """Closed loop until the requests have been busy for ``seconds`` (at
    least one request, and at most WALL_LIMIT * ``seconds`` of wall time),
    or for exactly ``count`` requests.

    The first set-up runs before the first request; in a timed loop the
    others are spread evenly over the busy time, so that they sample the
    host's speed as the requests do. While ``speed`` is installed its
    samples interrupt the loop, and their time is taken out of the interval
    they fell in. Spans recorded during request i carry operation id i.
    """
    phase = Phase(wl)
    stream = wl.inputs()
    clock = HostSpeed.clock
    deadline = time.perf_counter() + WALL_LIMIT * (seconds or 0.0)
    busy, i = 0.0, 0

    def spent() -> float:
        return speed.spent if speed is not None else 0.0

    def set_up_until(due: int) -> None:
        while len(phase.setup_raw) < due:
            s0, t0 = spent(), clock()
            wl.setup()
            t1 = clock()
            phase.setup_starts.append(t0)
            phase.setup_ends.append(t1)
            phase.setup_raw.append(t1 - t0 - (spent() - s0))

    def more() -> bool:
        if count is not None:
            return i < count
        return i == 0 or (busy < seconds and time.perf_counter() < deadline)

    with speed if speed is not None else contextlib.nullcontext():
        while more():
            set_up_until(min(setups, 1 + int(setups * busy / seconds)) if seconds else setups)
            x = next(stream)
            if tracer is not None:
                tracer.current_op = i
            out, error = None, None
            s0, t0 = spent(), clock()
            try:
                out = wl.request(x)
            except Exception as exc:  # a failed request is counted, not fatal
                error = exc
            t1 = clock()
            dt = t1 - t0 - (spent() - s0)
            busy += dt
            phase.starts.append(t0)
            phase.ends.append(t1)
            phase.raw.append(dt)
            phase.record(i, x, out, error)
            i += 1
        set_up_until(setups)
    phase.scale(speed)
    return phase


def tail_quantile(n: int) -> float:
    """The 99th percentile, or for a run of fewer than 1,000 requests the
    highest percentile that keeps min(10, n/2) of them beyond it (the median
    for the few long requests of sim-bjny and generate)."""
    return min(0.99, 1.0 - min(10.0, n / 2.0) / n)


def tail_latency(latencies) -> float:
    """The tail latency reported as ``op_p99_ms``."""
    return checks.percentile(sorted(latencies), tail_quantile(len(latencies)))


def end_to_end(latencies, setups, ops_per_s: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p99_ms": 1e3 * tail_latency(latencies),
    }


def compare_reference(wl, phase: Phase, reference: dict | None) -> tuple[int, str]:
    """Failed operations found by the reference, and the verdict."""
    if reference is None:
        return 0, "no reference for this seed"
    if not phase.keys:
        return 0, "no leading request to compare"
    compared, mismatched = wl.compare(reference, phase.keys)
    if mismatched:
        phase.problems.append(f"requests {sorted(mismatched)[:5]} differ from reference.json")
    verdict = "mismatch" if mismatched else "match"
    return len(mismatched) * wl.ops_per_request, f"{verdict} on {compared} leading requests"


def per_layer_metrics(tracer, traced: Phase, untraced_rate: float):
    spans = tracer.summary()
    values = {}
    for name, s in spans.items():
        values[f"{name}.self_s"] = s["self_s"]
        values[f"{name}.calls"] = s["calls"]
    values["cli.generate.self_s"] = spans["cli.main"]["self_s"]

    def per(num: str, den: str) -> float:
        return spans[num]["calls"] / spans[den]["calls"] if spans[den]["calls"] else 0.0

    values["routing.fib_lookups_per_route"] = per("routing.fib_lookup", "routing.shortest_path")
    values["georouting.coverage_checks_per_route"] = per(
        "georouting.coverage_check", "georouting.geo_route"
    )
    for name, prop in traced.properties().items():
        values[name] = prop["value"]
    total_self = sum(s["self_s"] for s in spans.values())
    for module in ("sim", "constellation", "routing", "geocell", "georouting", "geom", "cli"):
        own = sum(s["self_s"] for name, s in spans.items() if name.startswith(module + "."))
        values[f"{module}.self_share"] = own / total_self if total_self else 0.0
    values["trace.requests"] = len(traced.latencies)
    values["trace.spans"] = len(tracer.start)
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.traced_ops_per_s"] = traced_rate = traced.ops_per_s()
    values["trace.overhead"] = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def run(args) -> dict:
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(out_dir))
    traced = None
    try:
        speed = HostSpeed()
        phase = run_phase(wl, wl.setup_reps, seconds=args.seconds, speed=speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = end_to_end(phase.raw, phase.setup_raw, phase.ops_per_s(phase.raw))
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced = run_phase(wl, 1, count=wl.trace_requests, tracer=tracer,
                                   speed=HostSpeed())
            tracer.save(out_dir / f"spans-{wl.name}-seed{args.seed}.npz")
            metrics = per_layer_metrics(tracer, traced, phase.ops_per_s())
        else:
            values = end_to_end(phase.latencies, phase.setups, phase.ops_per_s())
            values["peak_rss_mb"] = peak_rss_mb
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        wl.cleanup()

    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())["workloads"].get(wl.name, {}).get(str(args.seed))
    reference_failed, verdict = compare_reference(wl, phase, reference)
    phases = [phase] + ([traced] if traced else [])
    failed = sum(p.failed for p in phases) + reference_failed
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        **wl.shape(),
        "requests": len(phase.latencies),
        "operations": len(phase.latencies) * wl.ops_per_request,
        "traced_requests": len(traced.latencies) if traced else 0,
        "seconds": args.seconds,
        "busy_s": math.fsum(phase.latencies),
        "raw_busy_s": math.fsum(phase.raw),
        "raw": raw,
        "speed": speed.summary(),
        "setup_reps": wl.setup_reps,
        "tail_quantile": tail_quantile(len(phase.latencies)),
        "reference": verdict,
        "properties": phase.properties(),
        "problems": [p for ph in phases for p in ph.problems],
    }
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p.latencies) for p in phases) * wl.ops_per_request,
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1)
    )
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print("run_record " + json.dumps(record))
    return result


def capture_reference(names: list[str]) -> None:
    """Write reference.json from the leading requests of every reference seed."""
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
    doc["git_sha"] = git_sha()
    doc["seeds"] = list(REFERENCE_SEEDS)
    for name in names:
        by_seed = {}
        for seed in REFERENCE_SEEDS:
            wl = workloads.WORKLOADS[name](seed, str(out_dir))
            try:
                phase = run_phase(wl, 1, count=wl.reference_requests)
            finally:
                wl.cleanup()
            if phase.failed:
                raise SystemExit(f"bench: {name} seed {seed} fails its checks: {phase.problems}")
            by_seed[str(seed)] = wl.reference(phase.keys)
            print(f"captured {name} seed {seed}", flush=True)
        doc["workloads"][name] = by_seed
    write_reference(doc)


def write_reference(doc: dict) -> None:
    """reference.json with one line per workload and seed."""
    lines = [f'{{"git_sha": {json.dumps(doc["git_sha"])}, "seeds": {json.dumps(doc["seeds"])},',
             ' "workloads": {']
    for w, (name, by_seed) in enumerate(doc["workloads"].items()):
        lines.append(f'  {json.dumps(name)}: {{')
        lines += [f'   {json.dumps(seed)}: {json.dumps(entry)},' for seed, entry in by_seed.items()]
        lines[-1] = lines[-1][:-1] + ("}," if w < len(doc["workloads"]) - 1 else "}")
    lines.append("}}")
    REFERENCE.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="sim-bjny, geo-delivery, ring-routing or generate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-reference", action="store_true",
                        help="rewrite reference.json (all workloads, or --workload)")
    args = parser.parse_args(argv)
    load_program()
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    if args.capture_reference:
        capture_reference([args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
