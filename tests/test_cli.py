"""Command-line surface: JSON in, JSON out, exit codes as documented.

Everything runs in-process through main(argv) so coverage and speed stay
reasonable; stdout/stderr are captured and parsed back as JSON.  Usage
errors raised before a handler runs (bad flags, wrong mode combinations)
surface as SystemExit(1); errors inside a handler return the exit code.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import runpy
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest

import frosette
from frosette import cli, constellation, geocell
from frosette.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, _build_parser, _emit, main
from frosette.config import config_to_dict
from frosette.constellation import _stream_topology, build, format_address, topology_to_dict
from frosette.errors import DomainError
from conftest import make_config

CELLS_CONFIG = {
    "n": 8,
    "m": 6,
    "k": 1,
    "altitude_km": 1260.0,
    "inclination_deg": 45.0,
    "min_elevation_deg": 25.0,
}

ROUTING_CONFIG = dict(CELLS_CONFIG, inclination_deg=70.0)

# dense enough that every ground point sees at least one satellite
GEO_CONFIG = {
    "n": 16,
    "m": 8,
    "k": 1,
    "altitude_km": 1100.0,
    "inclination_deg": 70.0,
    "min_elevation_deg": 0.0,
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ROUTING_CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture()
def cells_cfg_path(tmp_path):
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(CELLS_CONFIG), encoding="utf-8")
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr()
    return json.loads(out.out)


def _json_err(capsys):
    out = capsys.readouterr()
    return json.loads(out.err)


# --- generate -------------------------------------------------------------------


def test_generate_stdout(cfg_path, capsys):
    assert main(["generate", "--config", cfg_path]) == EXIT_OK
    doc = _json_out(capsys)
    assert len(doc["nodes"]) == 64
    assert len(doc["edges"]) == 128
    assert doc["nodes"][0] == "0.0"
    assert doc["config"]["n"] == 8
    assert doc["config"]["inclination_deg"] == pytest.approx(70.0)


def test_generate_files(tmp_path, capsys):
    topo_path = tmp_path / "topo.json"
    tables_path = tmp_path / "tables.fra0"
    cells_path = tmp_path / "cells.json"
    cells_path.write_text(json.dumps(CELLS_CONFIG), encoding="utf-8")
    rc = main(
        [
            "generate",
            "--config",
            str(cells_path),
            "--output",
            str(topo_path),
            "--tables",
            str(tables_path),
        ]
    )
    assert rc == EXIT_OK
    summary = _json_out(capsys)
    assert summary["nodes"] == 64 and summary["edges"] == 128
    assert summary["tables_bytes"] == tables_path.stat().st_size
    on_disk = json.loads(topo_path.read_text(encoding="utf-8"))
    assert len(on_disk["edges"]) == 128
    assert on_disk["edges"][0][2] == 0  # [addr, addr, layer] triples


def test_generate_missing_config(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE
    assert _json_err(capsys)["error"] == "io"


def test_generate_refuses_oversized_config(tmp_path, capsys, monkeypatch):
    # 64^4 satellites is over the size limit; with the enumeration stubbed
    # out, a missing guard fails the test instead of allocating.
    monkeypatch.setattr(constellation, "itertools", None)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, n=64, m=1, k=3)), encoding="utf-8")
    assert main(["generate", "--config", str(path)]) == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "DomainError"
    # --to-location builds only the alpha0 tables (about N^(k+1)/2 rows)
    monkeypatch.setattr(geocell, "np", None)
    argv = ["cells", "--config", str(path), "--to-location", "0,0/0,0/0,0/0,0"]
    assert main(argv) == EXIT_DOMAIN
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


def _stream_topology_per_item(topo, fh) -> None:
    """The former node-by-node writer, kept as the byte-level oracle."""
    fh.write('{"config": ')
    json.dump(config_to_dict(topo.config), fh)
    fh.write(', "nodes": [')
    for i, node in enumerate(topo.nodes):
        if i:
            fh.write(", ")
        fh.write(json.dumps(format_address(node)))
    fh.write('], "edges": [')
    for i, (a, b, layer) in enumerate(topo.edges):
        if i:
            fh.write(", ")
        fh.write(json.dumps([format_address(a), format_address(b), layer]))
    fh.write("]}\n")


def _assert_same_text(got: str, want: str) -> None:
    """got == want, reporting the lengths and 80 characters around the first
    difference: pytest's own diff of two megabyte lines takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        window = slice(max(0, at - 40), at + 40)
        pytest.fail(f"lengths {len(got)} and {len(want)} first differ at {at}: "
                    f"{got[window]!r} != {want[window]!r}")


@pytest.mark.parametrize("n,k", [(5, 0), (4, 1), (6, 2), (9, 3), (12, 2), (16, 1), (2048, 0),
                                 (3, 6)])
def test_stream_topology_matches_per_item_writer(n, k):
    # (12, 2) and (16, 1) mix one- and two-character digits, and their wrap
    # edges turn N-1 into 0; (2048, 0) has no expansion step, only the first
    # digit's copies, with digits of one to four characters; (9, 3) expands
    # over several levels; (3, 6) has seven placeholder pairs, 2,187 satellites
    topo = build(make_config(n, 1, k))
    got, want = io.BytesIO(), io.StringIO()
    _stream_topology(topo, got.write)
    _stream_topology_per_item(topo, want)
    _assert_same_text(got.getvalue().decode("ascii"), want.getvalue())
    # the document as the per-item topology_to_dict built it, from the Topology itself
    reference = {
        "config": config_to_dict(topo.config),
        "nodes": [format_address(a) for a in topo.nodes],
        "edges": [[format_address(a), format_address(b), layer] for a, b, layer in topo.edges],
    }
    _assert_same_text(json.dumps(topology_to_dict(topo)), json.dumps(reference))


def test_deepest_address_has_a_placeholder_letter_per_digit():
    # the writer stands ASCII letter j and its capital for digit j; N=3, the
    # smallest ring, gives the most digits MAX_SATELLITES allows
    k = 0
    while 3 ** (k + 2) <= constellation.MAX_SATELLITES:
        k += 1
    build(make_config(3, 1, k))
    with pytest.raises(DomainError):
        build(make_config(3, 1, k + 1))
    assert k + 1 <= len(string.ascii_lowercase) == 26


def test_generate_to_stdout_writes_the_bytes_of_its_output_file(tmp_path, capsys):
    # without --output the writer's N + 4 writes go straight to stdout
    path, out = tmp_path / "config.json", tmp_path / "topology.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, n=9, m=1, k=3)), encoding="utf-8")
    assert main(["generate", "--config", str(path)]) == EXIT_OK
    streamed = capsys.readouterr().out
    assert main(["generate", "--config", str(path), "--output", str(out)]) == EXIT_OK
    assert _json_out(capsys)["nodes"] == 9**4
    _assert_same_text(streamed, out.read_bytes().decode("utf-8"))


def test_generate_to_any_text_stdout_writes_the_bytes_of_its_output_file(tmp_path, capsys):
    # a StringIO has no .buffer: the document reaches stdout through its write alone
    path, out = tmp_path / "config.json", tmp_path / "topology.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, n=9, m=1, k=3)), encoding="utf-8")
    streamed = io.StringIO()
    with contextlib.redirect_stdout(streamed):
        assert main(["generate", "--config", str(path)]) == EXIT_OK
    assert main(["generate", "--config", str(path), "--output", str(out)]) == EXIT_OK
    assert _json_out(capsys)["nodes"] == 9**4
    _assert_same_text(streamed.getvalue(), out.read_bytes().decode("ascii"))


def test_generate_output_at_n16_k3_keeps_its_bytes(tmp_path, capsys):
    # sha256 of this file as the previous (f-string per edge) writer wrote it
    want = "252484cd466930b42ed3c0feaa09285c9ea151100b466c00322bce03c557012b"
    path, out = tmp_path / "config.json", tmp_path / "topology.json"
    doc = {"n": 16, "m": 8, "k": 3, "altitude_km": 1100.0, "inclination_deg": 70.0}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["generate", "--config", str(path), "--output", str(out)]) == EXIT_OK
    assert _json_out(capsys)["edges"] == 4 * 65536
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("field,value", [("n", 8.5), ("n", True), ("altitude_km", "1260")])
def test_generate_rejects_mistyped_config_fields(tmp_path, capsys, field, value):
    path, out = tmp_path / "config.json", tmp_path / "topology.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, **{field: value})), encoding="utf-8")
    assert main(["generate", "--config", str(path), "--output", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "ConfigError",
        "detail": f"{field} must be a JSON {'integer' if field == 'n' else 'number'}, "
        f"got {value!r}",
    }


def test_generate_rejects_an_elevation_of_90_degrees(tmp_path, capsys):
    path, out = tmp_path / "config.json", tmp_path / "topology.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, min_elevation_deg=90.0)), encoding="utf-8")
    assert main(["generate", "--config", str(path), "--output", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert json.loads(captured.err) == {
        "error": "ConfigError",
        "detail": f"min_elevation_rad must be in [0, pi/2), got {math.pi / 2}",
    }


def test_non_finite_derived_constants_exit_2(tmp_path, capsys):
    # omega = 2 pi / sidereal_day_s overflows to inf for a subnormal day
    path = tmp_path / "config.json"
    doc = dict(GEO_CONFIG, constants={"sidereal_day_s": 1e-310})
    path.write_text(json.dumps(doc), encoding="utf-8")
    route = ["route", "--config", str(path), "--geo", "--from-lat", "10", "--from-lon",
             "20", "--to-lat", "-30", "--to-lon", "40"]
    tables = tmp_path / "tables.fra0"
    generate = ["generate", "--config", str(path), "--output", str(tmp_path / "t.json"),
                "--tables", str(tables)]
    for argv in (route, generate):
        assert main(argv) == EXIT_DOMAIN
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "ConfigError",
            "detail": "derived omega_earth_rad_s is not finite: inf",
        }
    assert not tables.exists()


@pytest.mark.parametrize("text", ['{"n": 8,', "", "\udcff", "\ufeff{}"])
def test_malformed_json_files_exit_1(tmp_path, capsys, text):
    bad = tmp_path / "broken.json"
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    for argv in (
        ["fib", "--config", str(bad), "--owner", "0.0"],
        ["simulate", "--scenario", str(bad), "--trace", str(tmp_path / "t.csv")],
    ):
        assert main(argv) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err)["error"] == "ParseError"


def test_config_file_with_crlf_line_ends(tmp_path, capsys):
    path = tmp_path / "crlf.json"
    path.write_bytes(json.dumps(ROUTING_CONFIG, indent=2).replace("\n", "\r\n").encode())
    assert main(["fib", "--config", str(path), "--owner", "0.0"]) == EXIT_OK
    assert _json_out(capsys)["owner"] == "0.0"


# --- route ----------------------------------------------------------------------


def test_route_reference_example(cfg_path, capsys):
    assert main(["route", "--config", cfg_path, "--from", "0.0", "--to", "4.5"]) == EXIT_OK
    doc = _json_out(capsys)
    assert doc["hop_count"] == 7
    assert doc["path"][0] == "0.0" and doc["path"][-1] == "4.5"
    assert len(doc["path"]) == 8
    assert {h["layer"] for h in doc["hops"]} == {0, 1}


def test_route_bad_address(cfg_path, capsys):
    assert main(["route", "--config", cfg_path, "--from", "0.9", "--to", "1.1"]) == EXIT_USAGE
    assert _json_err(capsys)["error"] == "RangeError"


def test_route_missing_flags(cfg_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["route", "--config", cfg_path, "--from", "0.0"])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"


def test_route_geo(tmp_path, capsys):
    geo_path = tmp_path / "geo.json"
    geo_path.write_text(json.dumps(GEO_CONFIG), encoding="utf-8")
    rc = main(
        [
            "route",
            "--config",
            str(geo_path),
            "--geo",
            "--from-lat",
            "10.0",
            "--from-lon",
            "20.0",
            "--to-lat",
            "-30.0",
            "--to-lon",
            "150.0",
            "--time",
            "60",
        ]
    )
    assert rc == EXIT_OK
    doc = _json_out(capsys)
    assert doc["delivered"] is True
    assert doc["coverage_violation"] is False
    assert doc["hop_count"] == len(doc["path"]) - 1
    assert "/" in doc["dst_cell"]
    assert doc["terminal"] == doc["path"][-1]
    assert doc["path"][0] == doc["serving"]


GEO_FLAGS = {"--from-lat": "10.0", "--from-lon": "20.0", "--to-lat": "-30.0",
             "--to-lon": "150.0", "--time": "60"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", [*GEO_FLAGS, "--locate LAT", "--locate LON"])
def test_non_finite_coordinates_exit_1(flag, value, tmp_path, capsys):
    if flag.startswith("--locate"):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(CELLS_CONFIG), encoding="utf-8")
        coords = [value, "10"] if flag.endswith("LAT") else ["10", value]
        argv = ["cells", "--config", str(path), "--locate", *coords]
    else:
        path = tmp_path / "geo.json"
        path.write_text(json.dumps(GEO_CONFIG), encoding="utf-8")
        argv = ["route", "--config", str(path), "--geo"]
        for name, default in GEO_FLAGS.items():
            argv += [name, value if name == flag else default]
    assert main(argv) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "RangeError"


@pytest.mark.parametrize(
    "flag,value",
    [("--locate", "95"), ("--locate", "-200"), ("--from-lat", "120"), ("--to-lat", "-90.5")],
)
def test_latitudes_beyond_90_exit_1(flag, value, tmp_path, capsys):
    if flag == "--locate":
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(CELLS_CONFIG), encoding="utf-8")
        argv = ["cells", "--config", str(path), "--locate", value, "10"]
    else:
        path = tmp_path / "geo.json"
        path.write_text(json.dumps(GEO_CONFIG), encoding="utf-8")
        argv = ["route", "--config", str(path), "--geo"]
        for name, default in GEO_FLAGS.items():
            argv += [name, value if name == flag else default]
    assert main(argv) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "RangeError" and "latitude" in err["detail"]


def test_locate_accepts_the_poles_and_wraps_longitudes(tmp_path, capsys):
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(CELLS_CONFIG), encoding="utf-8")
    cells = []
    for lat, lon in (("90", "0"), ("-90", "0"), ("10", "20"), ("10", "380")):
        assert main(["cells", "--config", str(path), "--locate", lat, lon]) == EXIT_OK
        cells.append(_json_out(capsys)["cell"])
    assert cells[2] == cells[3]


def test_route_geo_missing_coords(cfg_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["route", "--config", cfg_path, "--geo", "--from-lat", "1.0"])
    assert exc.value.code == EXIT_USAGE
    err = _json_err(capsys)
    assert err["error"] == "usage"
    assert "--to-lat" in err["detail"]


# --- fib ------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "config, owner, golden",
    [
        (ROUTING_CONFIG, "3.5", "fib_n8_k1_owner_3.5.json"),
        (dict(ROUTING_CONFIG, n=5, m=1, k=2), "1.2.4", "fib_n5_k2_owner_1.2.4.json"),
    ],
)
def test_fib_stdout_is_byte_identical_to_golden(tmp_path, capsys, config, owner, golden):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fib", "--config", str(path), "--owner", owner]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert out.err == ""


def test_simulate_trace_and_summary_are_byte_identical_to_golden(tmp_path, capsys):
    """README's determinism contract, byte for byte: N=8, k=1, 40 steps, two
    experiments, with handoffs and coverage flags in the trace."""
    trace = tmp_path / "trace.csv"
    scenario = str(GOLDEN / "sim_n8_k1_scenario.json")
    assert main(["simulate", "--scenario", scenario, "--trace", str(trace)]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out == (GOLDEN / "sim_n8_k1_summary.json").read_text(encoding="utf-8")
    assert out.err == ""
    assert trace.read_bytes() == (GOLDEN / "sim_n8_k1_trace.csv").read_bytes()


def test_fib_on_a_huge_ring_lists_its_entries_at_once(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, n=1 << 31, m=1, k=0)), encoding="utf-8")
    start = time.perf_counter()
    assert main(["fib", "--config", str(path), "--owner", "5"]) == EXIT_OK
    assert time.perf_counter() - start < 5.0  # no per-digit table: about 0.1 ms of work
    doc = _json_out(capsys)
    assert doc["entry_count"] == len(doc["entries"]) == 31
    assert doc["entries"][-1] == {"layer": 0, "pattern": "1" + "*" * 30, "direction": -1}


def test_fib(cfg_path, capsys):
    assert main(["fib", "--config", cfg_path, "--owner", "3.5"]) == EXIT_OK
    doc = _json_out(capsys)
    assert doc["owner"] == "3.5"
    assert doc["entry_count"] == 6
    assert {(e["layer"], e["pattern"], e["direction"]) for e in doc["entries"]} == {
        (0, "001", 1),
        (0, "01*", 1),
        (0, "1**", -1),
        (1, "001", 1),
        (1, "01*", 1),
        (1, "1**", -1),
    }


# --- cells ----------------------------------------------------------------------


def test_cells_count(cells_cfg_path, capsys):
    assert main(["cells", "--config", cells_cfg_path, "--count"]) == EXIT_OK
    assert _json_out(capsys)["cell_count"] == 256


def test_cells_locate_and_back(cells_cfg_path, capsys):
    assert main(["cells", "--config", cells_cfg_path, "--locate", "12.5", "40.0"]) == EXIT_OK
    doc = _json_out(capsys)
    cell_text = doc["cell"]
    assert doc["level"] == 1
    assert main(["cells", "--config", cells_cfg_path, "--to-location", cell_text]) == EXIT_OK
    doc2 = _json_out(capsys)
    assert doc2["cell"] == cell_text
    assert -90.0 <= doc2["lat_deg"] <= 90.0
    assert -180.0 <= doc2["lon_deg"] <= 180.0
    rc = main(
        ["cells", "--config", cells_cfg_path, "--to-location", cell_text, "--level", "0"]
    )
    assert rc == EXIT_OK
    assert _json_out(capsys)["level"] == 0


def test_cells_mode_exclusivity(cells_cfg_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cells", "--config", cells_cfg_path])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"
    with pytest.raises(SystemExit) as exc:
        main(["cells", "--config", cells_cfg_path, "--count", "--to-location", "0,0/0,0"])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"
    with pytest.raises(SystemExit) as exc:
        main(["cells", "--config", cells_cfg_path, "--locate", "1.0", "2.0", "--to-location", "0,0/0,0"])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"


def test_cells_lattice_violation(cfg_path, capsys):
    # the 70-degree two-row config cannot host the ground lattice
    assert main(["cells", "--config", cfg_path, "--locate", "0.0", "0.0"]) == EXIT_DOMAIN
    assert _json_err(capsys)["error"] == "ConfigError"


def test_cells_bad_cell_id(cells_cfg_path, capsys):
    rc = main(["cells", "--config", cells_cfg_path, "--to-location", "9,9/0,0"])
    assert rc == EXIT_USAGE
    assert _json_err(capsys)["error"] == "RangeError"


# --- size -----------------------------------------------------------------------


def test_size_reference(capsys):
    rc = main(["size", "--rtt-ms", "8.41", "--elevation-deg", "25", "--base-n", "8"])
    assert rc == EXIT_OK
    doc = _json_out(capsys)
    assert (doc["n_min"], doc["k"], doc["n_sats"]) == (64, 1, 64)
    assert doc["altitude_km"] == pytest.approx(0.00841 * 299792.458 / 2)
    assert 0 < doc["coverage_deg"] < 90


def test_size_infeasible(capsys):
    rc = main(["size", "--rtt-ms", "1e-7", "--elevation-deg", "25", "--base-n", "8"])
    assert rc == EXIT_DOMAIN
    assert _json_err(capsys)["error"] == "InfeasibleError"


def test_size_where_the_footprint_rounds_to_a_quarter_circle(capsys):
    # min_satellites rejects pi/2; coverage_range keeps R inside, where the ring floors at 4
    rc = main(["size", "--rtt-ms", "1e20", "--elevation-deg", "0", "--base-n", "8"])
    assert rc == EXIT_OK
    doc = _json_out(capsys)
    assert (doc["n_min"], doc["k"], doc["n_sats"]) == (4, 0, 8)
    assert 0 < doc["coverage_deg"] < 90


@pytest.mark.parametrize("rtt_ms", ["1e-9", "1e-10"])
def test_size_beyond_the_satellite_limit_exits_2(rtt_ms, capsys):
    # footprints this small need more than MAX_SATELLITES, where n_min is rounding noise
    rc = main(["size", "--rtt-ms", rtt_ms, "--elevation-deg", "0", "--base-n", "8"])
    assert rc == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "DomainError"


@pytest.mark.parametrize("elevation_deg", ["0", "25"])
def test_size_at_a_vanishing_rtt_is_infeasible(elevation_deg, capsys):
    # the footprint rounds to 0, which coverage_range keeps just inside (0, pi/2)
    rc = main(["size", "--rtt-ms", "1e-15", "--elevation-deg", elevation_deg, "--base-n", "8"])
    assert rc == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "InfeasibleError"


def test_size_whose_altitude_overflows_is_infeasible(capsys):
    # a finite RTT whose altitude c*rtt/2 rounds to infinity has no footprint
    rc = main(["size", "--rtt-ms", "1e308", "--elevation-deg", "25", "--base-n", "8"])
    assert rc == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "InfeasibleError"
    assert err["detail"] == "altitude_km is not finite: inf"


@pytest.mark.parametrize("rtt_ms", ["nan", "inf"])
def test_size_rejects_non_finite_rtt(rtt_ms, capsys):
    rc = main(["size", "--rtt-ms", rtt_ms, "--elevation-deg", "25", "--base-n", "8"])
    assert rc == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "ConfigError"


def test_emit_refuses_non_finite_json(capsys):
    with pytest.raises(DomainError):
        _emit({"altitude_km": math.nan})
    assert capsys.readouterr().out == ""


def test_size_missing_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["size", "--rtt-ms", "8.41"])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"


# --- simulate ---------------------------------------------------------------------


def test_simulate(tmp_path, capsys):
    scenario = {
        "config": ROUTING_CONFIG,
        "window": {"start_s": 0.0, "end_s": 40.0, "step_s": 20.0},
        "endpoints": {
            "bj": {"lat_deg": 39.9, "lon_deg": 116.4},
            "ny": {"lat_deg": 40.7, "lon_deg": -74.0},
        },
        "experiments": [{"src": "bj", "dst": "ny"}],
        "seed": 3,
    }
    scn_path = tmp_path / "scenario.json"
    scn_path.write_text(json.dumps(scenario), encoding="utf-8")
    trace_path = tmp_path / "trace.csv"
    rc = main(["simulate", "--scenario", str(scn_path), "--trace", str(trace_path)])
    assert rc == EXIT_OK
    summary = _json_out(capsys)
    assert summary["records"] == 3
    assert summary["seed"] == 3
    lines = trace_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("t,experiment,frosette_hops")


@pytest.mark.parametrize(
    "window,endpoint",
    [
        ({"start_s": 0.0, "end_s": math.nan, "step_s": 20.0}, {"lat_deg": 39.9, "lon_deg": 116.4}),
        ({"start_s": 0.0, "end_s": 40.0, "step_s": 20.0}, {"lat_deg": "x", "lon_deg": 116.4}),
    ],
)
def test_simulate_malformed_scenario_values(tmp_path, capsys, window, endpoint):
    scenario = {
        "config": ROUTING_CONFIG,
        "window": window,
        "endpoints": {"bj": endpoint, "ny": {"lat_deg": 40.7, "lon_deg": -74.0}},
        "experiments": [{"src": "bj", "dst": "ny"}],
    }
    scn_path = tmp_path / "scenario.json"
    scn_path.write_text(json.dumps(scenario), encoding="utf-8")  # NaN as the bare token
    rc = main(["simulate", "--scenario", str(scn_path), "--trace", str(tmp_path / "t.csv")])
    assert rc == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "ParseError"


def test_simulate_bad_scenario(tmp_path, capsys):
    scn_path = tmp_path / "bad.json"
    scn_path.write_text(json.dumps({"config": ROUTING_CONFIG}), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(scn_path), "--trace", str(tmp_path / "t.csv")])
    assert rc == EXIT_USAGE
    assert _json_err(capsys)["error"] == "ParseError"


def _simulate(tmp_path, capsys, **fields):
    """Run simulate on the test_simulate scenario with fields replaced; (exit, stdout, stderr)."""
    scenario = {
        "config": ROUTING_CONFIG,
        "window": {"start_s": 0.0, "end_s": 40.0, "step_s": 20.0},
        "endpoints": {"bj": {"lat_deg": 39.9, "lon_deg": 116.4},
                      "ny": {"lat_deg": 40.7, "lon_deg": -74.0}},
        "experiments": [{"src": "bj", "dst": "ny"}],
        **fields,
    }
    scn_path = tmp_path / "scenario.json"
    scn_path.write_text(json.dumps(scenario), encoding="utf-8")
    rc = main(["simulate", "--scenario", str(scn_path), "--trace", str(tmp_path / "t.csv")])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_simulate_without_experiments_exits_2_before_writing_a_trace(tmp_path, capsys):
    rc, out, err = _simulate(tmp_path, capsys, experiments=[])
    assert (rc, out) == (EXIT_DOMAIN, "")
    assert json.loads(err) == {"error": "ConfigError", "detail": "scenario has no experiments"}
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "fields",
    [
        {"window": {"start_s": 10**400, "end_s": 40.0, "step_s": 20.0}},
        {"window": {"start_s": 0.0, "end_s": 40.0, "step_s": "10"}},
        {"seed": 2.7},
        {"endpoints": {"bj": {"lat_deg": True, "lon_deg": 116.4},
                       "ny": {"lat_deg": 40.7, "lon_deg": -74.0}}},
    ],
    ids=["start_s-400-digits", "step_s-string", "seed-float", "lat_deg-bool"],
)
def test_simulate_scenario_type_rule(tmp_path, capsys, fields):
    # the seed is a JSON integer, the window and endpoints JSON numbers
    rc, out, err = _simulate(tmp_path, capsys, **fields)
    assert (rc, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "window,error",
    [
        # 2*pi*t/T overflows: the orbital phase of the window is not finite
        ({"start_s": 1e308, "end_s": 1e308, "step_s": 10.0}, "ParseError"),
        ({"start_s": 0.0, "end_s": 1e308, "step_s": 1e-310}, "ParseError"),
        # a finite phase but an infinite step count
        ({"start_s": 0.0, "end_s": 1e300, "step_s": 1e-300}, "DomainError"),
    ],
)
def test_simulate_windows_beyond_float_range_exit_with_json(tmp_path, capsys, window, error):
    rc, out, err = _simulate(tmp_path, capsys, window=window)
    assert (rc, out) == (EXIT_DOMAIN if error == "DomainError" else EXIT_USAGE, "")
    assert json.loads(err)["error"] == error


def test_simulate_where_satellites_meet_exits_0(tmp_path):
    # polar m=0 orbits meet at t = 0, so zero-delay links tie on the oracle path;
    # a subprocess with a timeout fails, instead of hanging, if the walk circles
    scenario = {
        "config": {"n": 8, "m": 0, "k": 2, "altitude_km": 1200.0,
                   "inclination_deg": 90.0, "min_elevation_deg": 0.0},
        "window": {"start_s": 0.0, "end_s": 0.0, "step_s": 10.0},
        "endpoints": {"a": {"lat_deg": 38.38, "lon_deg": 152.04},
                      "b": {"lat_deg": -75.36, "lon_deg": -12.38}},
        "experiments": [{"src": "a", "dst": "b"}],
    }
    scn_path = tmp_path / "scenario.json"
    scn_path.write_text(json.dumps(scenario), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(frosette.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "frosette", "simulate", "--scenario", str(scn_path),
         "--trace", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["records"] == 1
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["oracle_delay_s"]) <= float(row["frosette_delay_s"])
    assert int(row["oracle_hops"]) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["generate"],
        ["route", "--from", "0.0", "--to", "1.1"],
        ["fib", "--owner", "0.0"],
        ["cells", "--count"],
    ],
)
def test_config_whose_n_overflows_a_float_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, n=10**400)), encoding="utf-8")
    assert main([argv[0], "--config", str(path), *argv[1:]]) == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "ConfigError", "detail": "derived period_s overflows a float"
    }


def test_route_at_a_huge_k_names_n_and_k(tmp_path, capsys):
    # N^(k+1) has far more than the 4,300 digits an int may print
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(ROUTING_CONFIG, k=1000000)), encoding="utf-8")
    assert main(["route", "--config", str(path), "--from", "0.0", "--to", "1.1"]) == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "DomainError",
        "detail": "N^(k+1) with N=8, k=1000000 exceeds the limit of 4194304",
    }


@pytest.mark.parametrize("mode", [["--count"], ["--locate", "10", "20"]])
def test_cells_at_a_huge_k_exit_2(tmp_path, capsys, mode):
    # N^k = 8^1000000 is far past the float range of the cell pitch 2*pi/N^k
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(dict(CELLS_CONFIG, k=1000000)), encoding="utf-8")
    assert main(["cells", "--config", str(path), *mode]) == EXIT_DOMAIN
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "DomainError", "detail": "N^k with N=8, k=1000000 exceeds 2^1000"
    }


def test_route_geo_at_a_time_whose_phase_overflows_exits_1(tmp_path, capsys):
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(GEO_CONFIG), encoding="utf-8")
    argv = ["route", "--config", str(path), "--geo"]
    for flag, value in dict(GEO_FLAGS, **{"--time": "1e308"}).items():
        argv += [flag, value]
    assert main(argv) == EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "RangeError"


# --- verify -----------------------------------------------------------------------


def test_verify(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(frosette.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "frosette", "verify"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].endswith("checks passed")


@pytest.mark.parametrize("module", ["frosette", "frosette.cli"])
def test_main_modules_run_the_cli_in_process(module, monkeypatch, capsys):
    # python -m frosette, and python -m frosette.cli, which runs the module
    # afresh as __main__ (runpy warns if it is already imported)
    if module == "frosette.cli":
        monkeypatch.delitem(sys.modules, module)
    monkeypatch.setattr(sys, "argv", [module, "size", "--rtt-ms", "8.41",
                                      "--elevation-deg", "25", "--base-n", "8"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module(module, run_name="__main__")
    assert exc.value.code == EXIT_OK
    assert _json_out(capsys)["k"] == 1


# --- parser surface ----------------------------------------------------------------


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
    assert _json_err(capsys)["error"] == "usage"


PUBLIC_NAMES = [
    "Alpha0Table", "BitLayout", "CellId", "ConfigError", "ConstellationConfig",
    "DEFAULT_CONSTANTS", "DomainError", "Fib", "FibEntry", "FrosetteError", "GeoCoord",
    "GeoRouteResult", "GroundAddress", "HopMotion", "InfeasibleError", "LatLon",
    "LayoutError", "MultipathResult", "OrbitalElements", "ParseError", "PhysicalConstants",
    "RangeError", "SatAddress128", "Scenario", "SizeRequest", "SizeResult", "Topology",
    "TraceRecord", "address_to_elements", "associate", "bit_widths", "build",
    "build_alpha0_tables", "build_fib", "cell_center", "cell_count", "cell_to_location",
    "config_from_dict", "config_to_dict", "coverage_check", "coverage_range", "decode",
    "disjoint_paths", "encode", "fib_lookup", "format_address", "format_cell_id",
    "format_sat_address", "from_colon_hex", "geo_route", "geocoord_to_latlon",
    "great_circle_range", "ground_to_space_rtt", "hop_bound", "iter_cells",
    "latlon_to_geocoord", "link_delay_trace", "link_length_delay", "link_range_closed_form",
    "load_config", "load_scenario", "load_tables", "locate_point", "measure_hop_motions",
    "min_altitude_coverage", "min_altitude_stability", "min_satellites", "parse_cell_id",
    "parse_sat_address", "path_hops", "ring_step", "save_tables", "select_size",
    "serving_coord", "shortest_path", "stability_report", "subdivide", "subpoint",
    "to_colon_hex", "topology_to_dict", "topology_to_json", "validate_cell",
]

SUBCOMMAND_OPTIONS = {
    "generate": {"--config", "--output", "--tables"},
    "route": {"--config", "--from", "--to", "--geo", "--from-lat", "--from-lon",
              "--to-lat", "--to-lon", "--time"},
    "fib": {"--config", "--owner"},
    "cells": {"--config", "--count", "--locate", "--to-location", "--level"},
    "size": {"--rtt-ms", "--elevation-deg", "--base-n"},
    "simulate": {"--scenario", "--trace"},
    "verify": set(),
}


def test_public_surface_is_pinned():
    # a name or flag that goes, or comes, is a deliberate change: edit these lists with it
    assert sorted(frosette.__all__) == PUBLIC_NAMES
    for name in frosette.__all__:
        assert getattr(frosette, name) is not None, name
    parser = _build_parser()
    assert {o for a in parser._actions for o in a.option_strings} == {"-h", "--help"}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


def test_main_parses_every_call_with_the_one_parser_built_at_import(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    size = ["size", "--rtt-ms", "8.41", "--elevation-deg", "25", "--base-n", "8"]
    for argv in (size, size[:-2] + ["--base-n", "9"], size):  # no flag carries over
        assert main(argv) == EXIT_OK
        assert _json_out(capsys)["n_sats"] == (81 if argv[-1] == "9" else 64)
