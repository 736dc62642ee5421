"""Topological routing against exhaustive oracles.

Oracles here are deliberately dumb: BFS for distances, exhaustive pattern
search for the minimal prefix cover, networkx max-flow for disjoint-path
counts, and the former dict-of-dicts max-flow for the exact disjoint paths.
The library must match them, never the other way round.
"""
import dataclasses
import functools
import gc
import itertools
import math
import random
import re
import weakref
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frosette import routing
from frosette.constellation import MAX_SATELLITES, build, ring_neighbor, ring_table
from frosette.errors import DomainError
from frosette.routing import (
    Fib,
    FibEntry,
    build_fib,
    disjoint_paths,
    fib_lookup,
    hop_bound,
    path_hops,
    ring_step,
    shortest_path,
)
from conftest import make_config, ring_graph


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


@given(st.integers(3, 64), st.integers(0, 63), st.integers(0, 63))
def test_ring_step_distance_bound(n, s, d):
    s, d = s % n, d % n
    _, dist = ring_step(s, d, n)
    assert 0 <= dist <= n // 2


# --- shortest paths vs BFS ----------------------------------------------------------


def _bfs_all(topo):
    adj = ring_graph(topo)

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


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_hop_bound_is_the_diameter(n, k):
    # the torus is vertex-transitive, so the farthest node from the origin
    # sets the all-pairs diameter; odd N gives floor(N/2) hops per ring
    topo = build(make_config(n, 1, k))
    origin = topo.nodes[0]
    dist = _bfs_all(topo)(origin)
    routed = max(len(shortest_path(origin, dst, topo)) - 1 for dst in topo.nodes)
    assert hop_bound(topo.config) == routed == max(dist.values())


def test_paper_scale_ring_table_bfs():
    # N=16, k=3: 65,536 satellites. The torus C_N^(k+1) is vertex-transitive,
    # so the distances from one source cover every pair.
    cfg = make_config(16, 1, 3)
    n, k, m = cfg.n, cfg.k, cfg.n_sats
    nbr, edge = ring_table(cfg)
    ids = np.arange(m)
    for layer in range(k + 1):  # the -1 neighbour of the +1 neighbour is home
        assert np.array_equal(nbr[nbr[:, 2 * layer], 2 * layer + 1], ids)
    assert np.array_equal(np.bincount(edge.ravel()), np.full((k + 1) * m, 2))
    dist = np.full(m, -1)
    dist[0], frontier, hops = 0, np.array([0]), 0
    while frontier.size:
        hops += 1
        frontier = np.unique(nbr[frontier])
        frontier = frontier[dist[frontier] < 0]
        dist[frontier] = hops
    digits = ids[:, None] // n ** np.arange(k, -1, -1) % n
    assert np.array_equal(dist, np.minimum(digits, n - digits).sum(axis=1))
    assert dist.max() == hop_bound(cfg) == 32
    topo, src = build(cfg), (0,) * (k + 1)
    for j in random.Random(65536).sample(range(m), 2000):
        dst = tuple(digits[j].tolist())
        assert len(shortest_path(src, dst, topo)) - 1 == dist[j]


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


def _hop_edges(cfg):
    """Path of addresses -> the ``ring_table`` edge ids of its hops, each read from its row."""
    nbr, edge = ring_table(cfg)
    edge_of = {(u, v): e for u, (vs, es) in enumerate(zip(nbr.tolist(), edge.tolist()))
               for v, e in zip(vs, es)}
    return lambda path: [edge_of[routing.sat_id(a, cfg.n), routing.sat_id(b, cfg.n)]
                         for a, b in zip(path, path[1:])]


@pytest.mark.parametrize(
    "n, k", [(3, 0), (4, 0), (5, 1), (6, 1), (9, 1), (5, 2), (6, 2), (3, 3), (4, 3)]
)
def test_route_edges_are_shortest_paths_hops_on_every_pair(n, k):
    # odd and even N: an even ring has the exact-half tie, which goes counter-clockwise
    cfg = make_config(n, 1, k)
    topo, hop_edges = build(cfg), _hop_edges(cfg)
    for s, d in itertools.product(range(cfg.n_sats), repeat=2):
        path = shortest_path(topo.nodes[s], topo.nodes[d], topo)
        assert routing.route_edges(s, d, cfg) == hop_edges(path)


def test_route_edges_at_n16_k3():
    cfg = make_config(16, 8, 3)
    topo, hop_edges, rng = build(cfg), _hop_edges(cfg), random.Random(1603)
    for _ in range(2000):
        s, d = rng.randrange(cfg.n_sats), rng.randrange(cfg.n_sats)
        path = shortest_path(routing._address(s, cfg), routing._address(d, cfg), topo)
        assert routing.route_edges(s, d, cfg) == hop_edges(path)


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


def _first_match_lookup(fib, dst):
    """The FIB lookup as a scan of every entry: the deepest differing layer's
    first entry whose pattern matches the relative digit decides."""
    for layer in range(len(fib.owner) - 1, -1, -1):
        rel = (dst[layer] - fib.owner[layer]) % fib.n
        if rel == 0:
            continue
        for entry in fib.entries:
            if entry.layer == layer and entry.matches(rel):
                return (layer, entry.direction)
        raise AssertionError(f"FIB of {fib.owner} has no entry for relative digit {rel}")
    return None


def _first_matches(fib):
    return [
        [
            next(((layer, e.direction) for e in fib.entries
                  if e.layer == layer and e.matches(rel)), None)
            for rel in range(fib.n)
        ]
        for layer in range(len(fib.owner))
    ]


@pytest.mark.parametrize("n", range(2, 34))
def test_fib_table_equals_first_match_over_entries(n):
    fib = routing._shared_fib(n, 2)
    table = fib._actions
    assert [list(row) for row in table] == _first_matches(fib)
    split = (n + 1) // 2
    for layer, row in enumerate(table):
        assert row[1:] == tuple((layer, 1 if rel < split else -1) for rel in range(1, n))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 20),
    owner=st.lists(st.integers(0, 19), min_size=1, max_size=3),
    entries=st.lists(
        st.builds(
            FibEntry,
            st.integers(-1, 3),
            st.text(alphabet="01*x", max_size=6),
            st.sampled_from([1, -1]),
        ),
        max_size=10,
    ),
    dst=st.lists(st.integers(0, 40), min_size=3, max_size=3),
)
def test_hand_built_fib_is_decided_by_its_own_entries(n, owner, entries, dst):
    fib = Fib(tuple(owner), n, tuple(entries))
    assert [list(row) for row in fib._actions] == _first_matches(fib)
    try:
        want = _first_match_lookup(fib, dst)
    except AssertionError as exc:
        with pytest.raises(AssertionError, match=re.escape(str(exc))):
            fib_lookup(fib, dst)
    else:
        assert fib_lookup(fib, dst) == want


def test_hand_built_fib_overrides_the_shared_table():
    cfg = make_config(8, 6, 1)
    shared = build_fib((3, 5), cfg)
    flipped = tuple(FibEntry(e.layer, e.pattern, -e.direction) for e in shared.entries)
    fib = Fib((3, 5), 8, flipped)
    for dst in itertools.product(range(8), repeat=2):
        want = fib_lookup(shared, dst)
        assert fib_lookup(fib, dst) == (None if want is None else (want[0], -want[1]))


def test_fib_with_a_gap_raises():
    entries = (FibEntry(0, "001", 1), FibEntry(0, "010", 1), FibEntry(0, "1**", -1))
    fib = Fib((0, 0), 8, entries + (FibEntry(1, "***", 1),))  # layer 0 misses digit 3
    assert fib_lookup(fib, (2, 7)) == (1, 1)
    assert fib_lookup(fib, (2, 0)) == (0, 1)
    with pytest.raises(AssertionError, match="no entry for relative digit 3"):
        fib_lookup(fib, (3, 0))


def test_fibs_of_one_config_share_entries_and_table():
    cfg = make_config(16, 8, 3)
    rng = random.Random(7)
    owners = [tuple(rng.randrange(16) for _ in range(4)) for _ in range(50)]
    fibs = [build_fib(owner, cfg) for owner in owners]
    assert all(f.entries is fibs[0].entries for f in fibs)
    assert all(f._actions is fibs[0]._actions for f in fibs)
    assert [f.owner for f in fibs] == owners
    # a hand-built FIB with equal fields is equal, and compiles an equal table of its own
    twin = Fib(owners[0], 16, tuple(list(fibs[0].entries)))
    assert twin == fibs[0] and twin.entries is not fibs[0].entries
    assert twin._actions == fibs[0]._actions and twin._actions is not fibs[0]._actions


def test_built_fib_equals_one_built_by_its_constructor():
    cfg = make_config(8, 6, 1)
    fib = build_fib((3, 5), cfg)
    twin = Fib(owner=(3, 5), n=8, entries=fib.entries)
    assert (fib, hash(fib), repr(fib)) == (twin, hash(twin), repr(twin))
    assert fib_lookup(fib, (4, 5)) == fib_lookup(twin, (4, 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        fib.owner = (0, 0)


def test_fib_table_is_built_on_first_lookup_and_refuses_oversized_rings():
    small = build_fib((1, 2), make_config(8, 6, 1))
    assert "_actions" not in small.__dict__
    assert fib_lookup(small, (2, 2)) == (0, 1)
    assert "_actions" in small.__dict__
    huge = build_fib((5,), make_config(1 << 23, 1, 0))  # listing entries needs no table
    assert "_actions" not in huge.__dict__
    with pytest.raises(DomainError, match="exceeds the limit"):
        fib_lookup(huge, (6,))
    with pytest.raises(DomainError, match="exceeds the limit"):
        fib_lookup(Fib((0,), MAX_SATELLITES + 1, ()), (1,))


def test_fib_walks_at_n16_k3_follow_the_ring_arcs():
    cfg = make_config(16, 8, 3)
    n, rng, fibs = cfg.n, random.Random(2024), {}
    for _ in range(400):
        src = tuple(rng.randrange(n) for _ in range(4))
        dst = tuple(rng.randrange(n) for _ in range(4))
        cur, hops = src, 0
        while True:
            if cur not in fibs:
                fibs[cur] = build_fib(cur, cfg)
            action = fib_lookup(fibs[cur], dst)
            if action is None:
                break
            cur = ring_neighbor(cur, *action, n)
            hops += 1
            assert hops <= hop_bound(cfg)
        assert cur == dst
        assert hops == sum(min((b - a) % n, (a - b) % n) for a, b in zip(src, dst))


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


def test_disjoint_paths_all_differ_at_paper_scale():
    cfg = make_config(16, 8, 3)  # 65,536 satellites
    topo = build(cfg)
    rng = random.Random(1616)
    for _ in range(2):
        src = tuple(rng.randrange(16) for _ in range(4))
        dst = tuple((s + rng.randrange(1, 16)) % 16 for s in src)
        result = disjoint_paths(src, dst, topo)
        assert len(result) == 8 and result.reason is None
        interiors = [set(p[1:-1]) for p in result]
        for i, j in itertools.combinations(range(8), 2):
            assert not interiors[i] & interiors[j]
        for p in result:
            assert p[0] == src and p[-1] == dst
            assert len(set(p)) == len(p)
        # path_hops validates every hop; first hops by layer, clockwise first
        assert [path_hops(list(p), cfg)[0] for p in result] == [
            (j, d) for j in range(4) for d in (1, -1)
        ]
    assert "nodes" not in vars(topo)  # path satellites are named from their ids


def test_verify_multipath_check_rejects_a_path_that_skips_the_rings(monkeypatch):
    from frosette import verify

    assert verify.check_multipath()[0]

    def straight(src, dst, topo):  # 2(k+1) disjoint "paths" that jump src -> dst
        return routing.MultipathResult(paths=((src, dst),) * 2 * len(src), reason=None)

    monkeypatch.setattr(verify, "disjoint_paths", straight)
    ok, detail = verify.check_multipath()
    assert not ok and "not a topology hop" in detail


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


def test_arc_index_built_once_per_n_k_and_only_by_disjoint_paths():
    routing._arc_index.cache_clear()
    cfg = make_config(5, 1, 2)
    topo = build(cfg)
    shortest_path((0, 0, 0), (2, 3, 4), topo)
    fib_lookup(build_fib((0, 0, 0), cfg), (2, 3, 4))
    assert routing._arc_index.cache_info().currsize == 0
    disjoint_paths((0, 0, 0), (2, 3, 4), topo)
    disjoint_paths((1, 1, 1), (1, 3, 0), topo)
    other = build(make_config(5, 3, 2, incl_deg=50.0))  # same (N, k), another config
    disjoint_paths((0, 0, 0), (2, 3, 4), other)
    info = routing._arc_index.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # the index is keyed by (N, k) alone: it keeps no topology alive
    refs = weakref.ref(topo), weakref.ref(other)
    del topo, other
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
