"""Topological routing over the digit rings.

A satellite address is one digit per layer; every layer is an independent
N-ring. Shortest paths correct each differing digit along its ring's shorter
arc, forwarding state aggregates into a handful of binary prefixes on the
relative digit, and node-disjoint multipath comes from saturating a
unit-node-capacity flow whose first hops are pinned to the layers where the
addresses differ.

The flow runs on integers: a satellite is its mixed-radix id, which is also
its position in ``build``'s node order, and its arcs are scanned in the order
the topology's edge list meets it. That order is what a dict-keyed network
built from the edge list would use, so the augmenting paths, and the paths
returned, are the ones such a network gives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConstellationConfig
from .constellation import SatAddress, Topology, ring_neighbor, sat_id, validate_address

Path = list[SatAddress]


def ring_step(s_digit: int, d_digit: int, n: int, rule: str = "optimal") -> tuple[int, int]:
    """Direction (+1/-1) and hop count to correct one ring digit.

    The optimal rule takes the shorter arc and resolves the exact-half tie
    counter-clockwise. rule="literal" keeps the sign convention
    ((s-d) mod N <= N/2 goes clockwise) that picks the longer arc for some
    inputs; it exists for comparison, not for use.
    """
    cw = (d_digit - s_digit) % n
    ccw = (s_digit - d_digit) % n
    if rule == "literal":
        return (1, cw) if ccw <= n / 2 else (-1, ccw)
    if rule != "optimal":
        raise ValueError(f"unknown rule {rule!r}")
    if cw == 0:
        return (1, 0)
    if cw < ccw:
        return (1, cw)
    return (-1, ccw)


def shortest_path(
    src: SatAddress,
    dst: SatAddress,
    topo: Topology,
    permutation: tuple[int, ...] | None = None,
    rule: str = "optimal",
) -> Path:
    """Hop-optimal path correcting digits in the given layer order."""
    cfg = topo.config
    validate_address(src, cfg)
    validate_address(dst, cfg)
    layers = tuple(range(cfg.k + 1)) if permutation is None else permutation
    if sorted(layers) != list(range(cfg.k + 1)):
        raise ValueError(f"{layers} is not a permutation of layers 0..{cfg.k}")
    path = [src]
    cur = src
    for layer in layers:
        direction, dist = ring_step(cur[layer], dst[layer], cfg.n, rule=rule)
        for _ in range(dist):
            cur = ring_neighbor(cur, layer, direction, cfg.n)
            path.append(cur)
    return path


def path_hops(path: Path, cfg: ConstellationConfig) -> list[tuple[int, int]]:
    """(layer, direction) annotation for each hop of a path."""
    hops = []
    for a, b in zip(path, path[1:]):
        diff = [j for j in range(cfg.k + 1) if a[j] != b[j]]
        if len(diff) != 1:
            raise ValueError(f"{a} -> {b} is not a topology hop")
        j = diff[0]
        if (a[j] + 1) % cfg.n == b[j]:
            hops.append((j, 1))
        elif (a[j] - 1) % cfg.n == b[j]:
            hops.append((j, -1))
        else:
            raise ValueError(f"{a} -> {b} is not a topology hop")
    return hops


def hop_bound(cfg: ConstellationConfig) -> int:
    """Worst-case shortest-path hop count across all pairs."""
    return ((cfg.k + 1) * cfg.n + 1) // 2


# --- forwarding state -------------------------------------------------------


@dataclass(frozen=True)
class FibEntry:
    layer: int
    pattern: str  # fixed bits then '*' wildcards, ceil(log2 N) positions
    direction: int

    def matches(self, relative_digit: int) -> bool:
        bits = format(relative_digit, f"0{len(self.pattern)}b")
        return all(p in ("*", b) for p, b in zip(self.pattern, bits))


@dataclass(frozen=True)
class Fib:
    owner: SatAddress
    n: int
    entries: tuple[FibEntry, ...]


def _prefix_cover(lo: int, hi: int, width: int) -> list[str]:
    """Minimal trailing-wildcard patterns covering the integers [lo, hi]."""
    out = []
    while lo <= hi:
        size = lo & -lo if lo else 1 << width
        while lo + size - 1 > hi:
            size >>= 1
        bits = format(lo >> size.bit_length() - 1, f"0{width - size.bit_length() + 1}b")
        out.append(bits + "*" * (size.bit_length() - 1))
        lo += size
    return out


def build_fib(owner: SatAddress, cfg: ConstellationConfig) -> Fib:
    """Forwarding table keyed by relative digit; identical shape for any owner.

    Per layer, relative digits in [1, ceil(N/2)) go clockwise and the rest
    counter-clockwise (the exact-half digit included, matching ring_step);
    each group collapses into its minimal prefix cover.
    """
    validate_address(owner, cfg)
    n = cfg.n
    width = max(1, (n - 1).bit_length())
    split = (n + 1) // 2  # first counter-clockwise relative digit
    entries = []
    for layer in range(cfg.k + 1):
        for pattern in _prefix_cover(1, split - 1, width):
            entries.append(FibEntry(layer, pattern, 1))
        for pattern in _prefix_cover(split, n - 1, width):
            entries.append(FibEntry(layer, pattern, -1))
    return Fib(owner=owner, n=n, entries=tuple(entries))


def fib_lookup(fib: Fib, dst: SatAddress) -> tuple[int, int] | None:
    """Next action for a destination: (layer, direction), or None to deliver.

    Layers are scanned deepest first; the first differing digit decides.
    """
    for layer in range(len(fib.owner) - 1, -1, -1):
        rel = (dst[layer] - fib.owner[layer]) % fib.n
        if rel == 0:
            continue
        for entry in fib.entries:
            if entry.layer == layer and entry.matches(rel):
                return (layer, entry.direction)
        raise AssertionError(f"FIB of {fib.owner} has no entry for relative digit {rel}")
    return None


# --- node-disjoint multipath ------------------------------------------------


@dataclass(frozen=True)
class MultipathResult:
    """Pairwise internally-node-disjoint paths, plus a reason when < 2(k+1)."""

    paths: tuple[tuple[SatAddress, ...], ...]
    reason: str | None

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, idx):
        return self.paths[idx]


def _arc_index(topo: Topology) -> list[tuple[int, ...]]:
    """Per satellite x, the in-node ids 2w of its 2(k+1) ring neighbours w, in arc order.

    Arc order is the order in which the edges of ``topo.edges`` meet x: each
    edge (a, a+e_L, L) is emitted at key (id(a), L). Sorting by that key gives
    x-e_L for ascending L where x_L > 0, then x+e_L for ascending L, then x-e_L
    (a wrap) for descending L where x_L = 0.
    """
    cfg = topo.config
    n, k = cfg.n, cfg.k
    ids = np.arange(cfg.n_sats)
    heads, keys = [], []
    for layer in range(k + 1):
        step = n ** (k - layer)
        digit = ids // step % n
        up = np.where(digit == n - 1, ids - (n - 1) * step, ids + step)
        down = np.where(digit == 0, ids + (n - 1) * step, ids - step)
        heads += [up, down]
        keys += [ids * (k + 1) + layer, down * (k + 1) + layer]  # edge tails: x, x-e_L
    heads, keys = np.stack(heads, axis=1), np.stack(keys, axis=1)
    rows = np.take_along_axis(heads, np.argsort(keys, axis=1), axis=1).tolist()
    # One int object per in-node id, shared by its 2(k+1) rows: at 4,096
    # satellites the index then holds 0.6 MB instead of 1.5 MB.
    in_node = list(range(0, 2 * cfg.n_sats, 2))
    return [tuple(map(in_node.__getitem__, row)) for row in rows]


def _arcs(topo: Topology) -> list[tuple[int, ...]]:
    """The topology's arc index, built on first use and kept on the instance."""
    arcs = topo.__dict__.get("_routing_arcs")
    if arcs is None:
        arcs = _arc_index(topo)
        object.__setattr__(topo, "_routing_arcs", arcs)  # Topology is frozen
    return arcs


def _augmenting_path(arcs, open_first, succ, pred, source, sink) -> list[int] | None:
    """Parent links of the breadth-first shortest augmenting path, or None
    when the flow is maximum. See :func:`disjoint_paths` for the network."""
    parent = [-1] * (2 * len(arcs))
    parent[source] = parent[source - 1] = source  # no arc ever enters src
    queue = [source]
    for x in queue:
        v = x >> 1
        if x & 1:
            nxt = succ[v]
            if nxt >= 0 and parent[x - 1] < 0:  # back through v's split arc
                parent[x - 1] = x
                queue.append(x - 1)
            for y in open_first if x == source else arcs[v]:
                if parent[y] < 0 and y != nxt:
                    parent[y] = x
                    if y == sink:
                        return parent
                    queue.append(y)
        else:
            # through v's split arc, or back along the flow that enters v
            y = pred[v] if succ[v] >= 0 else x + 1
            if parent[y] < 0:
                parent[y] = x
                queue.append(y)
    return None


def disjoint_paths(src: SatAddress, dst: SatAddress, topo: Topology) -> MultipathResult:
    """Maximum set of node-disjoint paths, one per (differing layer, direction).

    Realized as unit-node-capacity max-flow (Edmonds-Karp): every satellite
    except the endpoints is split into an in-node 2x and an out-node 2x+1 with
    capacity one, and the source's first hops are restricted to layers where
    the digits differ. Saturation yields exactly two paths per differing
    layer, labeled and ordered by their first hop (layer ascending, clockwise
    before counter-clockwise).

    The network is implicit over integer ids. A satellite carrying flow has
    one successor and one predecessor, so the flow is a successor slot and a
    predecessor slot per satellite plus the set of saturated source arcs. In
    the residual network an in-node has one arc: its split arc when the
    satellite is free, else back to its predecessor. An out-node has the
    reversed split arc when the satellite carries flow, then its ring arcs in
    :func:`_arc_index` order, less the one carrying flow and any into src.
    That is the order in which a dict-of-dicts network built from
    ``topo.edges`` inserts them, so the breadth-first search finds the same
    augmenting paths, and returns the same paths, as that network does.
    """
    cfg = topo.config
    validate_address(src, cfg)
    validate_address(dst, cfg)
    if src == dst:
        raise ValueError("multipath needs distinct endpoints")
    n = cfg.n
    active = [j for j in range(cfg.k + 1) if src[j] != dst[j]]
    arcs = _arcs(topo)
    s, t = sat_id(src, n), sat_id(dst, n)
    source, sink = 2 * s + 1, 2 * t
    allowed = {2 * sat_id(ring_neighbor(src, j, d, n), n) for j in active for d in (1, -1)}
    open_first = [y for y in arcs[s] if y in allowed]  # src's unsaturated arcs

    # succ[x]: in-node of x's next hop, -1 when no flow passes x.
    # pred[x]: out-node of x's previous hop. saturated: in-nodes fed by src.
    succ = [-1] * cfg.n_sats
    pred = [-1] * cfg.n_sats
    saturated = []
    while (parent := _augmenting_path(arcs, open_first, succ, pred, source, sink)) is not None:
        y = sink
        while y != source:
            x = parent[y]
            if x & 1 and y != x - 1:  # ring arc out(u) -> in(w) gains flow
                if x == source:
                    open_first.remove(y)
                    saturated.append(y)
                else:
                    succ[x >> 1] = y
                pred[y >> 1] = x
            elif not x & 1 and y != x + 1:  # ring arc out(u) -> in(w) loses it
                if succ[y >> 1] == x:
                    succ[y >> 1] = -1
                if pred[x >> 1] == y:
                    pred[x >> 1] = -1
            y = x

    paths = []
    for y in saturated:
        walk, w = [src], y >> 1
        while w != t:
            walk.append(topo.nodes[w])
            w = succ[w] >> 1
        walk.append(dst)
        paths.append(tuple(walk))

    def first_hop_key(path):
        hop = path_hops(list(path[:2]), cfg)[0]
        return (hop[0], 0 if hop[1] == 1 else 1)

    paths.sort(key=first_hop_key)
    reason = None
    if len(active) < cfg.k + 1:
        same = cfg.k + 1 - len(active)
        noun = "layer" if same == 1 else "layers"
        reason = (
            f"{same} {noun} already agree; {2 * len(active)} disjoint paths exist"
            + (" (ring case yields exactly 2)" if len(active) == 1 else "")
        )
    return MultipathResult(paths=tuple(paths), reason=reason)
