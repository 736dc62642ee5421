"""Every `verify` check can fail: break one name it imports, and the check
reports (False, detail) and run_all counts it."""
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from frosette import verify
from frosette.addressing import SatAddress128
from frosette.config import TWO_PI
from frosette.errors import DomainError
from frosette.geocell import CellId, GeoCoord
from frosette.geom import LatLon


def _raises(*args, **kwargs):
    raise DomainError("broken")


def _moved(real):
    """A cell point 1 rad further along alpha, in another cell."""
    def moved(cell, *args):
        coord = real(cell, *args)
        return GeoCoord((coord.alpha_rad + 1.0) % TWO_PI, coord.gamma_rad)
    return moved


def _satellites_only(real):
    def decode(bits, layout):
        addr = real(bits, layout)
        return addr if isinstance(addr, SatAddress128) else None
    return decode


CASES = [
    ("structure-counts", "build", lambda real: lambda cfg: SimpleNamespace(nodes=(), edges=()),
     "N=4,k=0: 0 nodes / 0 edges, want 4/4"),
    ("structure-counts", "ring_neighbor", lambda real: lambda a, layer, d, n: a,
     "disagrees with ring_table"),
    ("structure-counts", "ring_table",
     lambda real: lambda cfg: (
         ((real(cfg)[0] + 1) % cfg.n_sats, real(cfg)[1]) if cfg.n == 16 else real(cfg)),
     "BFS distances from 0.0.0.0 differ from summed ring arcs"),
    ("structure-counts", "hop_bound", lambda real: lambda cfg: real(cfg) + 1,
     "diameter 32 != bound 33"),
    ("structure-counts", "build", lambda real: _raises, "raised DomainError: broken"),
    ("hop-optimality", "shortest_path", lambda real: lambda s, d, topo: real(s, d, topo) + [d],
     "(0, 0)->(0, 0): routed 1, BFS 0"),
    ("hop-optimality", "hop_bound", lambda real: lambda cfg: real(cfg) + 1, "diameter 8 != bound 9"),
    ("fib-bound-and-walks", "build_fib",
     lambda real: lambda owner, cfg: replace(fib := real(owner, cfg), entries=fib.entries * 2),
     "12 entries > budget 8"),
    ("fib-bound-and-walks", "hop_bound", lambda real: lambda cfg: 0, "exceeded bound without delivery"),
    ("fib-bound-and-walks", "shortest_path", lambda real: lambda s, d, topo: real(s, d, topo) + [d],
     "hops, shortest"),
    ("multipath-disjoint", "disjoint_paths", lambda real: lambda s, d, topo: real(s, d, topo)[:1],
     ": 1 paths"),
    ("multipath-disjoint", "disjoint_paths", lambda real: lambda s, d, topo: real(s, d, topo)[:1] * 4,
     "paths 0,1 share"),
    ("multipath-disjoint", "disjoint_paths",
     lambda real: lambda s, d, topo: [p[::-1] for p in real(s, d, topo)], "endpoint mismatch"),
    ("link-closed-form", "link_range_closed_form",
     lambda real: lambda i, j, t, cfg: real(i, j, t, cfg) + 1e-6, "max |closed-form - first-principles|"),
    ("subpoint-repetition", "subpoint",
     lambda real: lambda el, t, consts: replace(p := real(el, t, consts), lat_rad=p.lat_rad + 1e-7 * t),
     "sub-point repeats after (N-m)*T; max drift"),
    ("hop-motion-constancy", "measure_hop_motions",
     lambda real: lambda cfg: [replace(m, delta_gamma_rad=0.0) for m in real(cfg)], "layer 0 motion"),
    ("hop-motion-constancy", "measure_hop_motions",
     lambda real: lambda cfg: [
         replace(m, delta_alpha_rad=m.delta_alpha_rad + 0.1 * m.layer) for m in real(cfg)],
     "intra-orbit hop shows alpha motion"),
    ("geocell-partition", "capacity", lambda real: lambda row, n: 1, "capacity rule does not sum to N^2"),
    ("geocell-partition", "cell_count", lambda real: lambda cfg: real(cfg) + 1,
     "enumerated 256 != formula 257"),
    ("geocell-partition", "locate_point",
     lambda real: lambda p, cfg, tables=None: real(p, cfg, tables) if cfg.k else CellId(((9, 9),)),
     "hierarchy broken at"),
    ("cell-roundtrip", "cell_center", _moved, "center relocates to"),
    ("cell-roundtrip", "cell_to_location", _moved, "anchor relocates to"),
    ("cell-roundtrip", "locate_point",
     lambda real: lambda p, cfg, tables=None: real(LatLon(0.0, 0.0), cfg, tables),
     "sampling found only 1 distinct cells"),
    ("alpha0-consistency", "build_alpha0_tables",
     lambda real: lambda cfg: replace(table := real(cfg), values=table.values * 1.01),
     "satellite 0 sub-point longitude error max"),
    ("encode-roundtrip", "decode", lambda real: lambda bits, layout: SatAddress128(0, (), 0),
     "decoded as ()"),
    ("encode-roundtrip", "decode", _satellites_only, "did not round-trip"),
    ("link-delay-shape", "link_delay_trace",
     lambda real: lambda edge, window, topo: [(t, d + 1e-9 * t) for t, d in real(edge, window, topo)],
     "intra-orbit delay varies by"),
    ("link-delay-shape", "link_delay_trace",  # only the inter-orbit edge (0.0 -- 1.0) drifts
     lambda real: lambda edge, window, topo: [
         (t, d + 1e-9 * t * edge[1][0]) for t, d in real(edge, window, topo)],
     "intra constant to"),
    ("altitude-table", "min_altitude_coverage", lambda real: lambda cfg: 2.0 * real(cfg),
     "N=8,k=0: H=23696.93 (want 11848.46)"),
    ("planner-sizing", "select_size", lambda real: lambda req: replace(real(req), k=2),
     "8.41 ms budget sized to k=2, 64 sats"),
    ("planner-sizing", "min_altitude_coverage", lambda real: lambda cfg: math.inf,
     "returned altitude does not achieve coverage"),
    ("planner-sizing", "select_size",
     lambda real: lambda req: (
         replace(real(req), n_sats=1) if req.rtt_target_s == 0.0084 else real(req)),
     "smaller budget yielded smaller size 1"),
]


@pytest.mark.parametrize(
    "check,name,broken,detail", CASES, ids=[f"{c[0]}-{c[1]}-{i}" for i, c in enumerate(CASES)]
)
def test_each_verify_check_can_fail(check, name, broken, detail, monkeypatch):
    # broken(real) stands in for the name `verify` imports; the raising case
    # shows run_all reporting an exception as a failure
    fn = dict(verify.ALL_CHECKS)[check]
    assert fn()[0]
    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    if detail.startswith("raised "):
        with pytest.raises(DomainError):
            fn()
    else:
        ok, got = fn()
        assert not ok and detail in got, got
    monkeypatch.setattr(verify, "ALL_CHECKS", [(check, fn)])
    report = []
    assert verify.run_all(report=report.append) == 1
    assert report[0].startswith(f"FAIL {check}: ") and detail in report[0]
    assert report[1:] == ["0/1 checks passed"]
