"""Topological routing against exhaustive oracles.

Oracles here are deliberately dumb: BFS for distances, exhaustive pattern
search for the minimal prefix cover, networkx max-flow for disjoint-path
counts, and the former dict-of-dicts max-flow for the exact disjoint paths.
The library must match them, never the other way round.
"""
import functools
import gc
import itertools
import math
import random
import weakref
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from frosette import routing
from frosette.constellation import build, ring_neighbor
from frosette.routing import (
    FibEntry,
    build_fib,
    disjoint_paths,
    fib_lookup,
    hop_bound,
    path_hops,
    ring_step,
    shortest_path,
)
from conftest import make_config


# --- single-ring steps -----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_ring_step_matches_brute_force(n):
    for s in range(n):
        for d in range(n):
            cw = (d - s) % n
            ccw = (s - d) % n
            direction, dist = ring_step(s, d, n)
            assert dist == min(cw, ccw)
            if s == d:
                assert (direction, dist) == (1, 0)
            elif cw < ccw:
                assert direction == 1
            elif ccw < cw:
                assert direction == -1
            else:
                assert direction == -1  # exact half: counter-clockwise
            # walking the claimed direction for dist steps reaches d
            cur = s
            for _ in range(dist):
                cur = (cur + direction) % n
            assert cur == d


def test_ring_step_literal_rule():
    # the literal convention keeps its sign rule even when the arc is longer
    assert ring_step(0, 3, 8, rule="literal") == (-1, 5)
    assert ring_step(0, 5, 8, rule="literal") == (1, 5)
    assert ring_step(0, 4, 8, rule="literal") == (1, 4)
    for s, d in itertools.product(range(8), repeat=2):
        _, lit = ring_step(s, d, 8, rule="literal")
        _, opt = ring_step(s, d, 8)
        assert lit >= opt
    with pytest.raises(ValueError):
        ring_step(0, 1, 8, rule="fastest")


@given(st.integers(3, 64), st.integers(0, 63), st.integers(0, 63))
def test_ring_step_distance_bound(n, s, d):
    s, d = s % n, d % n
    _, dist = ring_step(s, d, n)
    assert 0 <= dist <= n // 2


# --- shortest paths vs BFS ----------------------------------------------------------


def _bfs_all(topo):
    adj = {node: [nb for _l, _d, nb in nbrs] for node, nbrs in topo.adjacency().items()}

    def dists(src):
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    return dists


@pytest.mark.parametrize("n,m,k", [(8, 6, 1), (5, 2, 1), (4, 1, 2)])
def test_shortest_path_matches_bfs(n, m, k):
    cfg = make_config(n, m, k)
    topo = build(cfg)
    dists = _bfs_all(topo)
    diameter = 0
    for src in topo.nodes:
        dist = dists(src)
        for dst in topo.nodes:
            path = shortest_path(src, dst, topo)
            assert len(path) - 1 == dist[dst], f"{src}->{dst}"
            diameter = max(diameter, len(path) - 1)
    assert diameter <= hop_bound(cfg)
    if n % 2 == 0:
        assert diameter == (k + 1) * n // 2


def test_shortest_path_structure():
    cfg = make_config(8, 6, 1)
    topo = build(cfg)
    path = shortest_path((0, 0), (4, 5), topo)
    assert len(path) - 1 == 7
    assert path[0] == (0, 0) and path[-1] == (4, 5)
    hops = path_hops(path, cfg)
    assert len(hops) == 7
    # default layer order corrects layer 0 first
    assert [layer for layer, _ in hops] == sorted(layer for layer, _ in hops)
    # any permutation gives the same length
    alt = shortest_path((0, 0), (4, 5), topo, permutation=(1, 0))
    assert len(alt) == len(path)
    assert [layer for layer, _ in path_hops(alt, cfg)] == [1, 1, 1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        shortest_path((0, 0), (4, 5), topo, permutation=(1, 1))


def test_path_hops_rejects_non_hops():
    cfg = make_config(8, 6, 1)
    with pytest.raises(ValueError):
        path_hops([(0, 0), (1, 1)], cfg)  # two digits change
    with pytest.raises(ValueError):
        path_hops([(0, 0), (2, 0)], cfg)  # jump of two
    assert path_hops([(0, 7), (0, 0)], cfg) == [(1, 1)]  # wrap is one +1 hop


# --- FIB ------------------------------------------------------------------------------


def _min_cover_size(lo, hi, width):
    """Brute-force minimum number of trailing-wildcard patterns covering [lo, hi]."""
    blocks = []  # (start, size) of every aligned dyadic block inside [lo, hi]
    size = 1
    while size <= hi - lo + 1:
        for start in range(lo, hi + 1):
            if start % size == 0 and start + size - 1 <= hi:
                blocks.append((start, size))
        size *= 2

    # simple DP over the aligned-block starting points
    import functools

    @functools.lru_cache(maxsize=None)
    def solve(point):  # fewest blocks to cover [point, hi]
        if point > hi:
            return 0
        options = [
            1 + solve(start + size) for start, size in blocks if start == point
        ]
        return min(options) if options else math.inf

    return solve(lo)


@pytest.mark.parametrize("n", [4, 5, 8, 16, 32])
def test_fib_entries_are_minimal_and_bounded(n):
    cfg = make_config(n, 1, 1)
    fib = build_fib((0, 0), cfg)
    width = max(1, (n - 1).bit_length())
    split = (n + 1) // 2
    per_layer = {}
    for e in fib.entries:
        per_layer.setdefault((e.layer, e.direction), []).append(e.pattern)
    for layer in range(2):
        cw = per_layer.get((layer, 1), [])
        ccw = per_layer.get((layer, -1), [])
        assert len(cw) == _min_cover_size(1, split - 1, width)
        assert len(ccw) == _min_cover_size(split, n - 1, width)
        # semantic check: every relative digit matches exactly one group
        for rel in range(1, n):
            hits_cw = [p for p in cw if FibEntry(layer, p, 1).matches(rel)]
            hits_ccw = [p for p in ccw if FibEntry(layer, p, -1).matches(rel)]
            if rel < split:
                assert len(hits_cw) >= 1 and not hits_ccw
            else:
                assert len(hits_ccw) >= 1 and not hits_cw
    if n >= 4:
        assert len(fib.entries) <= 2 * 2 * math.ceil(math.log2(n / 2))


def test_fib_frozen_shape_n8():
    cfg = make_config(8, 6, 1)
    fib = build_fib((3, 5), cfg)
    got = [(e.layer, e.pattern, e.direction) for e in fib.entries]
    assert got == [
        (0, "001", 1),
        (0, "01*", 1),
        (0, "1**", -1),
        (1, "001", 1),
        (1, "01*", 1),
        (1, "1**", -1),
    ]


def test_fib_walks_reproduce_shortest_paths():
    cfg = make_config(8, 6, 1)
    topo = build(cfg)
    rng = random.Random(31337)
    fibs = {}
    for _ in range(250):
        src = tuple(rng.randrange(8) for _ in range(2))
        dst = tuple(rng.randrange(8) for _ in range(2))
        cur, hops = src, 0
        while True:
            fib = fibs.get(cur) or fibs.setdefault(cur, build_fib(cur, cfg))
            action = fib_lookup(fib, dst)
            if action is None:
                break
            layer, direction = action
            cur = ring_neighbor(cur, layer, direction, 8)
            hops += 1
            assert hops <= hop_bound(cfg), "walk exceeded the hop bound"
        assert cur == dst
        assert hops == len(shortest_path(src, dst, topo)) - 1


def test_fib_lookup_deepest_first():
    cfg = make_config(8, 6, 1)
    fib = build_fib((0, 0), cfg)
    assert fib_lookup(fib, (0, 0)) is None
    layer, _ = fib_lookup(fib, (3, 5))
    assert layer == 1  # deepest differing layer acts first
    layer, _ = fib_lookup(fib, (3, 0))
    assert layer == 0


# --- node-disjoint multipath --------------------------------------------------------


def _maxflow_oracle(src, dst, topo):
    """Independent unit-node-capacity max-flow value via networkx."""
    g = nx.DiGraph()
    active = [j for j in range(topo.config.k + 1) if src[j] != dst[j]]
    for v in topo.nodes:
        if v not in (src, dst):
            g.add_edge(("in", v), ("out", v), capacity=1)
    for a, b, layer in topo.edges:
        for u, v in ((a, b), (b, a)):
            if u == src and layer not in active:
                continue
            if u == dst or v == src:
                continue
            uu = ("out", u) if u != src else ("src",)
            vv = ("in", v) if v != dst else ("dst",)
            g.add_edge(uu, vv, capacity=1)
    return nx.maximum_flow_value(g, ("src",), ("dst",))


def test_disjoint_paths_all_differ():
    cfg = make_config(8, 6, 1)
    topo = build(cfg)
    rng = random.Random(8128)
    for _ in range(40):
        src = tuple(rng.randrange(8) for _ in range(2))
        dst = tuple((s + rng.randrange(1, 8)) % 8 for s in src)
        result = disjoint_paths(src, dst, topo)
        assert len(result) == 4 == _maxflow_oracle(src, dst, topo)
        assert result.reason is None
        interiors = [set(p[1:-1]) for p in result]
        for i, j in itertools.combinations(range(4), 2):
            assert not interiors[i] & interiors[j]
        first_hops = []
        for p in result:
            assert p[0] == src and p[-1] == dst
            assert len(set(p)) == len(p)
            hops = path_hops(list(p), cfg)  # also validates every hop
            first_hops.append(hops[0])
        # labeled by first hop: layer ascending, clockwise before counter
        assert first_hops == [(0, 1), (0, -1), (1, 1), (1, -1)]


def test_disjoint_paths_partial_differ():
    cfg = make_config(8, 6, 1)
    topo = build(cfg)
    result = disjoint_paths((2, 3), (2, 6), topo)
    assert len(result) == 2 == _maxflow_oracle((2, 3), (2, 6), topo)
    assert result.reason is not None and "1 layer" in result.reason
    assert not set(result[0][1:-1]) & set(result[1][1:-1])
    with pytest.raises(ValueError):
        disjoint_paths((2, 3), (2, 3), topo)


def test_multipath_result_container():
    cfg = make_config(4, 1, 0)
    topo = build(cfg)
    result = disjoint_paths((0,), (2,), topo)
    assert len(result) == 2
    assert list(iter(result)) == list(result.paths)
    assert result[0][0] == (0,)


# --- exact paths against the dict-of-dicts max-flow ---------------------------------


def _dict_maxflow_paths(src, dst, topo):
    """(paths, reason) from Edmonds-Karp over a dict-of-dicts network of
    ("in"/"out", address) nodes: the implementation disjoint_paths replaced."""
    cfg = topo.config
    if src == dst:
        raise ValueError("multipath needs distinct endpoints")
    active = [j for j in range(cfg.k + 1) if src[j] != dst[j]]

    # Node-split flow network over address tuples: ("in", v) / ("out", v).
    # capacity[u][v] with residuals stored in the same dict.
    cap: dict = {}

    def add_edge(u, v, c: int) -> None:
        cap.setdefault(u, {}).setdefault(v, 0)
        cap.setdefault(v, {}).setdefault(u, 0)
        cap[u][v] += c

    source, sink = ("out", src), ("in", dst)
    for v in topo.nodes:
        if v != src and v != dst:
            add_edge(("in", v), ("out", v), 1)
    for a, b, layer in topo.edges:
        for u, v in ((a, b), (b, a)):
            if u == src and layer not in active:
                continue
            if u == dst or v == src:
                continue  # flow terminates at the sink and never re-enters src
            add_edge(("out", u), ("in", v), 1)

    flow: dict = {u: dict.fromkeys(nbrs, 0) for u, nbrs in cap.items()}
    total = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in cap[u]:
                if v not in parent and cap[u][v] - flow[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        v = sink
        while parent[v] is not None:
            u = parent[v]
            flow[u][v] += 1
            flow[v][u] -= 1
            v = u
        total += 1

    paths = []
    for _ in range(total):
        node, walk = source, [src]
        while node != sink:
            nxt = next(v for v in flow[node] if flow[node][v] > 0)
            flow[node][nxt] -= 1
            flow[nxt][node] += 1
            if nxt[0] == "in":
                walk.append(nxt[1])
            node = ("out", nxt[1]) if nxt != sink and nxt[0] == "in" else nxt
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
    return tuple(paths), reason


@functools.lru_cache(maxsize=None)
def _ring_topology(n, k):
    return build(make_config(n, 1, k))


# every (N, k) with 3 <= N <= 9, k <= 3 and at most 729 satellites
SMALL_RINGS = [(n, k) for k in range(4) for n in range(3, 10) if n ** (k + 1) <= 729]


@st.composite
def _endpoint_pairs(draw):
    n, k = draw(st.sampled_from(SMALL_RINGS))
    src = tuple(draw(st.lists(st.integers(0, n - 1), min_size=k + 1, max_size=k + 1)))
    kind = draw(st.sampled_from(["all-differ", "partial-differ", "exact-half", "adjacent"]))
    if kind == "all-differ":
        offsets = draw(st.lists(st.integers(1, n - 1), min_size=k + 1, max_size=k + 1))
    elif kind == "partial-differ":
        offsets = draw(st.lists(st.integers(0, n - 1), min_size=k + 1, max_size=k + 1))
        keep = draw(st.integers(0, k))
        offsets[keep] = offsets[keep] or 1
        if k:
            offsets[(keep + 1) % (k + 1)] = 0
    elif kind == "exact-half":
        offsets = draw(st.lists(st.sampled_from([0, n // 2]), min_size=k + 1, max_size=k + 1))
        offsets[draw(st.integers(0, k))] = n // 2
    else:
        offsets = [0] * (k + 1)
        offsets[draw(st.integers(0, k))] = draw(st.sampled_from([1, n - 1]))
    dst = tuple((a + o) % n for a, o in zip(src, offsets))
    return n, k, src, dst


@settings(max_examples=150, deadline=None)
@given(_endpoint_pairs())
def test_disjoint_paths_equal_dict_maxflow(case):
    n, k, src, dst = case
    topo = _ring_topology(n, k)
    result = disjoint_paths(src, dst, topo)
    assert (result.paths, result.reason) == _dict_maxflow_paths(src, dst, topo)


@pytest.mark.parametrize(
    "src,dst",
    [
        ((0, 0, 0, 0), (4, 4, 4, 4)),  # exact half on every ring
        ((1, 2, 3, 4), (5, 7, 0, 2)),
        ((7, 0, 7, 0), (0, 7, 0, 1)),  # adjacent or wrapping on every ring
        ((3, 3, 3, 3), (3, 6, 3, 1)),  # two rings agree
    ],
)
def test_disjoint_paths_equal_dict_maxflow_at_4096(src, dst):
    topo = _ring_topology(8, 3)
    result = disjoint_paths(src, dst, topo)
    assert (result.paths, result.reason) == _dict_maxflow_paths(src, dst, topo)


def test_arc_index_built_once_per_topology_and_only_by_disjoint_paths(monkeypatch):
    calls = []
    arc_index = routing._arc_index

    def counted(topo):
        calls.append(topo)
        return arc_index(topo)

    monkeypatch.setattr(routing, "_arc_index", counted)
    cfg = make_config(5, 1, 2)
    topo = build(cfg)
    shortest_path((0, 0, 0), (2, 3, 4), topo)
    fib_lookup(build_fib((0, 0, 0), cfg), (2, 3, 4))
    assert calls == []
    disjoint_paths((0, 0, 0), (2, 3, 4), topo)
    disjoint_paths((1, 1, 1), (1, 3, 0), topo)
    assert calls == [topo]
    # the index lives on the instance only: nothing else keeps the topology alive
    ref = weakref.ref(topo)
    del topo, calls[:]
    gc.collect()
    assert ref() is None
