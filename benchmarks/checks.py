"""Output checks, independent of the program where the arithmetic allows.

Each checker returns a list of problems; an empty list means the output is
correct. Ring arithmetic and orbit geometry are recomputed here rather than
taken from ``frosette``, so a wrong answer cannot vouch for itself.
"""
from __future__ import annotations

import itertools
import math
import struct

import numpy as np

TWO_PI = 2.0 * math.pi


def ring_distance(a: tuple[int, ...], b: tuple[int, ...], n: int) -> int:
    """Minimal hop count between two addresses: the sum of per-ring arcs."""
    return sum(min((x - y) % n, (y - x) % n) for x, y in zip(a, b))


def hop_problems(path, n: int) -> list[str]:
    """Each consecutive pair must differ in exactly one digit, by +-1 mod n."""
    out = []
    for a, b in zip(path, path[1:]):
        diff = [j for j in range(len(a)) if a[j] != b[j]]
        if len(diff) != 1 or (b[diff[0]] - a[diff[0]]) % n not in (1, n - 1):
            out.append(f"{a} -> {b} is not a ring hop")
    return out


def check_ring_route(src, dst, path, hops, walk, n: int) -> list[str]:
    """Shortest path, its hop annotation, and the hop-by-hop FIB walk."""
    out = []
    want = ring_distance(src, dst, n)
    if path[0] != src or path[-1] != dst:
        out.append(f"path runs {path[0]} -> {path[-1]}, expected {src} -> {dst}")
    if len(path) - 1 != want:
        out.append(f"path has {len(path) - 1} hops, ring distance is {want}")
    out += hop_problems(path, n)
    if len(hops) != len(path) - 1:
        out.append(f"{len(hops)} hop annotations for {len(path) - 1} hops")
    for (layer, direction), a, b in zip(hops, path, path[1:]):
        if (b[layer] - a[layer]) % n != direction % n:
            out.append(f"hop {a} -> {b} annotated ({layer}, {direction})")
    if walk[0] != src or walk[-1] != dst:
        out.append(f"FIB walk runs {walk[0]} -> {walk[-1]}, expected {src} -> {dst}")
    if len(walk) != len(path):
        out.append(f"FIB walk has {len(walk) - 1} hops, path has {len(path) - 1}")
    out += hop_problems(walk, n)
    return out


def check_multipath(src, dst, paths, n: int) -> list[str]:
    """Two paths per differing layer, valid hops, pairwise-disjoint interiors."""
    out = []
    differing = sum(1 for x, y in zip(src, dst) if x != y)
    if len(paths) != 2 * differing:
        out.append(f"{len(paths)} paths, expected {2 * differing}")
    interiors = []
    for path in paths:
        if path[0] != src or path[-1] != dst:
            out.append(f"path runs {path[0]} -> {path[-1]}, expected {src} -> {dst}")
        if len(set(path)) != len(path):
            out.append("path revisits a node")
        out += hop_problems(path, n)
        interiors.append(set(path[1:-1]))
    for i in range(len(interiors)):
        for j in range(i + 1, len(interiors)):
            shared = interiors[i] & interiors[j]
            if shared:
                out.append(f"paths {i} and {j} share {sorted(shared)[:3]}")
    return out


def check_geo_route(serving, result, bound: int, n: int) -> list[str]:
    """Criterion 8: delivered, loop-free, within the hop bound, no violation."""
    out = []
    path = result.path
    if not result.delivered:
        out.append("route not delivered")
    if result.coverage_violation:
        out.append("coverage violation")
    if path[0] != serving:
        out.append(f"route starts at {path[0]}, serving satellite is {serving}")
    if result.terminal != path[-1]:
        out.append(f"terminal {result.terminal} is not the path's end {path[-1]}")
    if len(set(path)) != len(path):
        out.append("routing loop")
    if len(path) - 1 > bound:
        out.append(f"{len(path) - 1} hops > bound {bound}")
    out += hop_problems(path, n)
    return out


def percentile(sorted_vals: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


STRETCH_MEDIAN_MAX = 1.02
STRETCH_P95_MAX = 1.05


def check_sim_records(records, times: list[float], n: int) -> tuple[list[str], list[int]]:
    """Criterion 9 over one simulated window.

    Returns run-level problems (which fail every record of the window) and
    the indices of records that fail on their own.
    """
    problems = []
    if len(records) != len(times):
        problems.append(f"{len(records)} records for {len(times)} steps")
    stretches = sorted(r.stretch for r in records)
    if stretches:
        med, p95 = percentile(stretches, 0.5), percentile(stretches, 0.95)
        if med > STRETCH_MEDIAN_MAX:
            problems.append(f"median stretch {med} > {STRETCH_MEDIAN_MAX}")
        if p95 > STRETCH_P95_MAX:
            problems.append(f"p95 stretch {p95} > {STRETCH_P95_MAX}")
    bad = []
    prev = None
    for i, (rec, t) in enumerate(zip(records, times)):
        pair = (rec.src_sat, rec.dst_sat)
        ok = (
            abs(rec.t - t) <= 1e-9 * max(1.0, abs(t))
            and rec.frosette_hops == ring_distance(rec.src_sat, rec.dst_sat, n)
            and rec.oracle_hops >= rec.frosette_hops
            and 0.0 < rec.oracle_delay_s <= rec.frosette_delay_s * (1.0 + 1e-12)
            and math.isclose(rec.stretch, rec.frosette_delay_s / rec.oracle_delay_s)
            and rec.handoff == (prev is not None and prev != pair)
            and rec.flag == ""
        )
        if not ok:
            bad.append(i)
        prev = pair
    return problems, bad


# --- generate ----------------------------------------------------------------

# Row anchors are bisected to 1e-10 rad in alpha; the sub-point longitude at
# the anchor time then sits within a few 1e-10 rad of its target.
ALPHA0_LON_TOL_RAD = 1e-8


def alpha0_row_problems(values: np.ndarray, n: int, m: int, k: int,
                        inclination_rad: float, sidereal_day_s: float) -> list[str]:
    """Each row anchor, read back as a time, must put satellite 0's sub-point
    on the row's target longitude (first principles, vectorised)."""
    rho, span = n - m, n**k
    n_rows = ((rho - 1) * span + 1) // 2 + 1
    if len(values) != n_rows:
        return [f"{len(values)} alpha0 rows, expected {n_rows}"]
    omega_e = TWO_PI / sidereal_day_s
    period = sidereal_day_s / rho
    d = np.arange(n_rows)
    target = np.minimum(d * math.pi / (rho * span), (rho - 1) * math.pi / (2.0 * rho))
    t = -values / omega_e
    u = TWO_PI * t / period
    lon = np.arctan2(np.sin(u) * math.cos(inclination_rad), np.cos(u)) - omega_e * t
    err = np.abs(lon - target)
    out = []
    if values[0] != 0.0:
        out.append(f"row 0 anchor is {values[0]}, expected 0")
    worst = int(np.argmax(err))
    if err[worst] > ALPHA0_LON_TOL_RAD:
        out.append(f"row {worst} anchor misses its longitude by {err[worst]:.3e} rad")
    if np.any(np.diff(values) > 0.0):
        out.append("row anchors are not monotone")
    return out


def _matches_entries(text: str, start: int, end: int, entries) -> bool:
    """True when text[start:end] is exactly the entries joined by ", ",
    compared in slices so that neither the expected text nor a copy of the
    file's is held whole."""
    pos = start
    for chunk in iter(lambda: list(itertools.islice(entries, 4096)), []):
        part = ", ".join(chunk)
        if not text.startswith(part, pos, end):
            return False
        pos += len(part) + 2
    return pos == end + 2


NODES_OPEN, EDGES_OPEN, CLOSE = ', "nodes": [', '], "edges": [', "]}\n"


def topology_text_problems(text: str, n: int, k: int) -> list[str]:
    """Streamed topology JSON against its documented content, entry by entry.

    Nodes are listed in lexicographic digit order; each ring edge appears
    once, from the endpoint whose digit on its layer steps +1 to the other.
    The expected entries are rendered here, independently of the program.
    The file's text is compared in place, without copies of its parts, so
    that the check adds little to the run's peak memory.
    """
    nodes_at = text.find(NODES_OPEN)
    edges_at = text.find(EDGES_OPEN, nodes_at + 1)
    if nodes_at < 0 or edges_at < 0:
        return ["topology JSON lacks its node or edge list"]
    if not text.endswith(CLOSE):
        return ["topology JSON is not closed"]
    names = [".".join(map(str, a)) for a in itertools.product(range(n), repeat=k + 1)]

    def step(i: int, stride: int) -> int:
        """Index of node i's +1 neighbour on the layer whose digit has this stride."""
        return i + stride if (i // stride) % n != n - 1 else i + stride - n * stride

    edges = (
        f'["{names[i]}", "{names[step(i, n ** (k - j))]}", {j}]'
        for i in range(len(names))
        for j in range(k + 1)
    )
    out = []
    nodes = (f'"{name}"' for name in names)
    if not _matches_entries(text, nodes_at + len(NODES_OPEN), edges_at, nodes):
        out.append(f"topology does not list the {n ** (k + 1)} nodes in digit order")
    if not _matches_entries(text, edges_at + len(EDGES_OPEN), len(text) - len(CLOSE), edges):
        out.append(f"topology does not list the {(k + 1) * n ** (k + 1)} ring edges")
    return out


FRA0_HEADER = struct.Struct("<4sHHHHId")


def check_generate(summary: dict, topo_path: str, fra0_path: str, cfg, loaded) -> list[str]:
    """Summary counts, topology structure, FRA0 layout, round trip and anchors.

    ``loaded`` is the program's own reading of the FRA0 file; the header and
    rows are also parsed here and must agree with it.
    """
    n, k = cfg.n, cfg.k
    nodes, edges = n ** (k + 1), (k + 1) * n ** (k + 1)
    out = []
    if summary.get("nodes") != nodes or summary.get("edges") != edges:
        out.append(f"summary counts {summary.get('nodes')}/{summary.get('edges')}, "
                   f"expected {nodes}/{edges}")
    with open(topo_path, encoding="utf-8") as fh:
        out += topology_text_problems(fh.read(), n, k)
    with open(fra0_path, "rb") as fh:
        raw = fh.read()
    magic, _version, tn, tm, tk, rows, incl = FRA0_HEADER.unpack_from(raw)
    values = np.frombuffer(raw, dtype="<f8", offset=FRA0_HEADER.size)
    if magic != b"FRA0" or len(raw) != FRA0_HEADER.size + 8 * rows:
        out.append(f"FRA0 file is {len(raw)} bytes for {rows} rows")
    if summary.get("tables_bytes") != len(raw):
        out.append(f"summary reports {summary.get('tables_bytes')} table bytes, file has {len(raw)}")
    if (tn, tm, tk, incl) != (cfg.n, cfg.m, cfg.k, cfg.inclination_rad):
        out.append(f"FRA0 header names ({tn}, {tm}, {tk}, {incl})")
    if not np.array_equal(loaded.values, values):
        out.append("FRA0 rows do not load back unchanged")
    out += alpha0_row_problems(values, tn, tm, tk, incl, cfg.consts.sidereal_day_s)
    return out
