"""Command-line surface: JSON in, JSON out, exit codes as documented.

Everything runs in-process through main(argv) so coverage and speed stay
reasonable; stdout/stderr are captured and parsed back as JSON.  Usage
errors raised before a handler runs (bad flags, wrong mode combinations)
surface as SystemExit(1); errors inside a handler return the exit code.
"""
import io
import json
import math

import pytest

from frosette import constellation, geocell
from frosette.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, _emit, _stream_topology, main
from frosette.config import config_to_dict
from frosette.constellation import build, format_address, topology_to_dict
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


@pytest.mark.parametrize("n,k", [(5, 0), (4, 1), (6, 2), (9, 3)])
def test_stream_topology_matches_per_item_writer(n, k):
    # (9, 3) has 26,244 edges: several 8k chunks and a partial last one
    topo = build(make_config(n, 1, k))
    got, want = io.StringIO(), io.StringIO()
    _stream_topology(topo, got)
    _stream_topology_per_item(topo, want)
    assert got.getvalue() == want.getvalue()
    assert json.loads(got.getvalue()) == topology_to_dict(topo)


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


def test_route_literal_rule(cfg_path, capsys):
    assert (
        main(["route", "--config", cfg_path, "--from", "0.0", "--to", "3.0", "--rule", "literal"])
        == EXIT_OK
    )
    doc = _json_out(capsys)
    assert doc["hop_count"] == 5  # the literal convention takes the long way round


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
    assert doc["k"] == 1 and doc["n_sats"] == 64
    assert doc["altitude_km"] == pytest.approx(0.00841 * 299792.458 / 2)
    assert 0 < doc["coverage_deg"] < 90
    assert doc["n_min"] <= doc["n_sats"]


def test_size_infeasible(capsys):
    rc = main(["size", "--rtt-ms", "1e-7", "--elevation-deg", "25", "--base-n", "8"])
    assert rc == EXIT_DOMAIN
    assert _json_err(capsys)["error"] == "InfeasibleError"


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


# --- verify -----------------------------------------------------------------------


def test_verify(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


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
