"""Topological routing over the digit rings.

A satellite address is one digit per layer; every layer is an independent
N-ring. Shortest paths correct each differing digit along its ring's shorter
arc, forwarding state aggregates into a handful of binary prefixes on the
relative digit, and node-disjoint multipath comes from saturating a
unit-node-capacity flow whose first hops are pinned to the layers where the
addresses differ.

The flow runs on integers: a satellite is its mixed-radix id, which is also
its position in ``build``'s node order, and its arcs are scanned by ascending
``constellation.ring_table`` edge id, the order the topology's edge list meets
them, from one arc table per (N, k). That is what a dict-keyed network built
from the edge list would use, and the search pops out-nodes in the order such a
network's does, so the augmenting paths, and the paths returned, are its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import ConstellationConfig
from .constellation import MAX_SATELLITES, SatAddress, Topology, _ring_table, ring_neighbor, ring_table
from .constellation import sat_id, validate_address
from .errors import DomainError

Path = list[SatAddress]


def ring_step(s_digit: int, d_digit: int, n: int) -> tuple[int, int]:
    """Direction (+1/-1) and hop count to correct one ring digit: the shorter
    arc, with the exact-half tie going counter-clockwise."""
    cw, ccw = (d_digit - s_digit) % n, (s_digit - d_digit) % n
    return (1, cw) if cw < ccw or cw == 0 else (-1, ccw)


def shortest_path(
    src: SatAddress,
    dst: SatAddress,
    topo: Topology,
    permutation: tuple[int, ...] | None = None,
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
        direction, dist = ring_step(cur[layer], dst[layer], cfg.n)
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

    @cached_property
    def _actions(self) -> tuple[tuple[tuple[int, int] | None, ...], ...]:
        """Per layer and relative digit, the action of the first matching entry, or None.

        Built on first lookup; a FIB holding its (N, k)'s shared entries reads
        the one table compiled for them.
        """
        shared = _shared_fib(self.n, len(self.owner) - 1)
        if self.entries is shared.entries and self is not shared:
            return shared._actions
        if len(self.owner) * self.n > MAX_SATELLITES:
            raise DomainError(
                f"a FIB table of {len(self.owner)} x {self.n} digits exceeds the limit of {MAX_SATELLITES}"
            )
        table = [[None] * self.n for _ in self.owner]
        for layer, row in enumerate(table):
            for e in reversed(self.entries):  # so that the first match is written last
                if e.layer == layer:
                    action = (layer, e.direction)
                    for rel in filter(e.matches, range(self.n)):
                        row[rel] = action
        return tuple(map(tuple, table))


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


@lru_cache(maxsize=8)
def _shared_fib(n: int, k: int) -> Fib:
    """Satellite 0's FIB; all FIBs of an (N, k) constellation share its entries and table."""
    width = max(1, (n - 1).bit_length())
    split = (n + 1) // 2  # first counter-clockwise relative digit
    entries = []
    for layer in range(k + 1):
        for pattern in _prefix_cover(1, split - 1, width):
            entries.append(FibEntry(layer, pattern, 1))
        for pattern in _prefix_cover(split, n - 1, width):
            entries.append(FibEntry(layer, pattern, -1))
    return Fib(owner=(0,) * (k + 1), n=n, entries=tuple(entries))


def build_fib(owner: SatAddress, cfg: ConstellationConfig) -> Fib:
    """Forwarding table keyed by relative digit; the same entries for any owner.

    Per layer, relative digits in [1, ceil(N/2)) go clockwise and the rest
    counter-clockwise (the exact-half digit included, matching ring_step);
    each group collapses into its minimal prefix cover. All FIBs of one
    (N, k) share one ``entries`` tuple and the table compiled from it.
    """
    validate_address(owner, cfg)
    return Fib(owner=owner, n=cfg.n, entries=_shared_fib(cfg.n, cfg.k).entries)


def fib_lookup(fib: Fib, dst: SatAddress) -> tuple[int, int] | None:
    """Next action for a destination: (layer, direction), or None to deliver.

    Layers are scanned deepest first; the first differing digit decides, by
    its layer's first matching entry, read from the table of actions per
    relative digit that the FIB compiles from its entries on first use.
    """
    actions, owner, n = fib._actions, fib.owner, fib.n
    for layer in range(len(owner) - 1, -1, -1):
        rel = (dst[layer] - owner[layer]) % n
        if rel:
            action = actions[layer][rel]
            if action is None:
                raise AssertionError(f"FIB of {owner} has no entry for relative digit {rel}")
            return action
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


@lru_cache(maxsize=8)
def _arc_index(n: int, k: int) -> list[tuple[int, ...]]:
    """Per satellite x, the in-node ids 2w of its 2(k+1) ring neighbours w, in arc order.

    Arc order is ascending ``ring_table`` edge id: the order in which the
    topology's edge list meets x. It depends on (N, k) alone.
    """
    nbr, edge = _ring_table(n, k)
    rows = np.take_along_axis(nbr, np.argsort(edge, axis=1), axis=1).tolist()
    # One int object per in-node id, shared by its 2(k+1) rows: at 4,096
    # satellites the index then holds 0.6 MB instead of 1.5 MB.
    in_node = list(range(0, 2 * len(nbr), 2))
    return [tuple(map(in_node.__getitem__, row)) for row in rows]


def _augmenting_path(arcs, open_first, succ, pred, source, sink) -> list[int] | None:
    """Parent links of the breadth-first shortest augmenting path, or None
    when the flow is maximum. See :func:`disjoint_paths` for the network."""
    parent = [-1] * (2 * len(arcs))
    parent[source] = parent[source - 1] = source  # no arc ever enters src
    queue = [source]
    for x in queue:
        v = x >> 1
        nxt = succ[v]
        # an out-node carrying flow has its reversed split arc first
        for y in open_first if x == source else arcs[v] if nxt < 0 else (x - 1, *arcs[v]):
            if parent[y] < 0 and y != nxt:
                parent[y] = x
                if y == sink:
                    return parent
                w = y >> 1
                # in(w)'s one arc: w's split arc, or back along the flow that enters w
                z = pred[w] if succ[w] >= 0 else y + 1
                if parent[z] < 0:
                    parent[z] = y
                    queue.append(z)
    return None


def disjoint_paths(src: SatAddress, dst: SatAddress, topo: Topology) -> MultipathResult:
    """Maximum set of node-disjoint paths, one per (differing layer, direction).

    Realized as unit-node-capacity max-flow (Edmonds-Karp): every satellite
    except the endpoints is split into an in-node 2x and an out-node 2x+1 with
    capacity one, and the source's first hops are restricted to layers where
    the digits differ. Saturation yields exactly two paths per differing
    layer, labeled and ordered by their first hop as a ``ring_table`` row orders
    it (layer ascending, clockwise before counter-clockwise).

    The network is implicit over integer ids. A satellite carrying flow has
    one successor and one predecessor, so the flow is a successor slot and a
    predecessor slot per satellite plus the set of saturated source arcs. In
    the residual network an in-node has one arc: its split arc when the
    satellite is free, else back to its predecessor. An out-node has the
    reversed split arc when the satellite carries flow, then its ring arcs in
    ascending ``ring_table`` edge-id order (:func:`_arc_index`), less the one
    carrying flow and any into src. That is the order in which a dict-of-dicts
    network built from ``topo.edges`` inserts them. The breadth-first search
    queues only out-nodes, taking an in-node's one arc as soon as it is found.
    Every out-node but src's is entered by one arc, from an in-node, so the
    out-nodes are queued in the order a queue of both kinds pops their
    in-nodes. So the search finds the same augmenting paths, and returns the
    same paths, as that network does.
    """
    cfg = topo.config
    validate_address(src, cfg)
    validate_address(dst, cfg)
    if src == dst:
        raise ValueError("multipath needs distinct endpoints")
    active = [j for j in range(cfg.k + 1) if src[j] != dst[j]]
    arcs = _arc_index(cfg.n, cfg.k)
    s, t = sat_id(src, cfg.n), sat_id(dst, cfg.n)
    source, sink = 2 * s + 1, 2 * t
    nbr = ring_table(cfg)[0][s].tolist()
    allowed = {2 * nbr[2 * j + d] for j in active for d in (0, 1)}
    open_first = [y for y in arcs[s] if y in allowed]  # src's unsaturated arcs

    # succ[x]: in-node of x's next hop, -1 when no flow passes x.
    # pred[x]: out-node of x's previous hop. saturated: in-nodes fed by src.
    succ = [-1] * cfg.n_sats
    pred = [-1] * cfg.n_sats
    saturated = []
    while (parent := _augmenting_path(arcs, open_first, succ, pred, source, sink)) is not None:
        y = sink  # walk back in pairs: the arc out -> in(y), then the in -> out before it
        while (x := parent[y]) != source:
            if y != x - 1:  # ring arc out(u) -> in(w) gains flow
                succ[x >> 1] = y
                pred[y >> 1] = x
            y = parent[x]
            if y != x - 1:  # ring arc out(u) -> in(w) loses it
                if succ[x >> 1] == y:  # unless u has just taken a new successor
                    succ[x >> 1] = -1
                pred[y >> 1] = -1
        open_first.remove(y)
        saturated.append(y)
        pred[y >> 1] = source

    paths = []
    for y in sorted(saturated, key=lambda first: nbr.index(first >> 1)):
        walk, w = [src], y >> 1
        while w != t:
            walk.append(topo.nodes[w])
            w = succ[w] >> 1
        walk.append(dst)
        paths.append(tuple(walk))
    reason = None
    if len(active) < cfg.k + 1:
        same = cfg.k + 1 - len(active)
        noun = "layer" if same == 1 else "layers"
        reason = (
            f"{same} {noun} already agree; {2 * len(active)} disjoint paths exist"
            + (" (ring case yields exactly 2)" if len(active) == 1 else "")
        )
    return MultipathResult(paths=tuple(paths), reason=reason)
