"""Generated CLI input: every document and flag ends in a documented exit.

Config and scenario documents are drawn with mistyped, extreme, missing and
extra fields, flags with malformed addresses, cell ids and numbers, and each
draw runs through ``main`` in-process. Whatever the input: the exit code is
0, 1 or 2; a non-zero exit writes exactly one JSON object to stderr and
nothing to stdout; stdout is strict JSON (no NaN or Infinity); no exception
escapes and no warning is raised. Valid configs stay at N <= 8, k <= 2 and
valid windows at 10 steps or fewer, so the test runs in seconds.
"""
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from frosette.cli import main

EXTREMES = [1e308, -1e308, 1e-310, -0.0, 10**400, -(10**400), math.inf, -math.inf, math.nan,
            True, None, "8", [], {}]
NUMBER_FLAGS = ["1e308", "-1e308", "1e-310", "-0.0", "nan", "inf", "-inf", "1" + "0" * 400,
                "", "x", "0x10"]
CONSTANTS = ["earth_radius_km", "sidereal_day_s", "light_speed_km_s", "atmosphere_margin_km",
             "bogus"]

ROUTING = {"n": 8, "m": 6, "k": 1, "altitude_km": 1260.0, "inclination_deg": 70.0,
           "min_elevation_deg": 25.0}
GEO = {"n": 16, "m": 8, "k": 1, "altitude_km": 1100.0, "inclination_deg": 70.0,
       "min_elevation_deg": 0.0}
ENDPOINTS = {"a": {"lat_deg": 39.9, "lon_deg": 116.4}, "b": {"lat_deg": 40.7, "lon_deg": -74.0}}
GEO_ARGS = ["--from-lat", "10", "--from-lon", "20", "--to-lat", "-30", "--to-lon", "150"]


@st.composite
def _value(draw, valid, broken):
    """A valid value; in a broken document, one draw in six an extreme or mistyped one."""
    return draw(st.sampled_from(EXTREMES)) if broken and draw(st.integers(0, 5)) == 0 \
        else draw(valid)


@st.composite
def _mutated(draw, doc, broken):
    """A broken document now and then loses a field, gains one, or is no dict at all."""
    if broken and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(EXTREMES))
    if broken and doc and draw(st.integers(0, 5)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    if broken and draw(st.integers(0, 5)) == 0:
        doc["extra"] = draw(st.sampled_from(EXTREMES))
    return doc


def _small_int(value, lo, hi):
    return type(value) is int and lo <= value <= hi


@st.composite
def configs(draw, broken):
    n = draw(_value(st.integers(3, 8), broken))
    doc = {
        "n": n,
        "m": draw(_value(st.integers(0, n - 1 if _small_int(n, 3, 8) else 7), broken)),
        "k": draw(_value(st.integers(0, 2), broken)),
        "altitude_km": draw(_value(st.floats(300.0, 3000.0), broken)),
        "inclination_deg": draw(_value(st.floats(20.0, 89.0), broken)),
        "min_elevation_deg": draw(_value(st.floats(0.0, 40.0), broken)),
    }
    if broken and draw(st.booleans()):
        doc["constants"] = draw(st.dictionaries(
            st.sampled_from(CONSTANTS), _value(st.floats(1.0, 1e6), broken), max_size=2
        ))
    return draw(_mutated(doc, broken))


@st.composite
def scenarios(draw, broken):
    # Windows stay at 10 steps or fewer: the end is start + i*step with i <= 9, or an
    # extreme, and the extremes that are valid times (1e-310, -0.0) lie below a start
    # >= 0 or within one step of it.
    start = draw(_value(st.floats(0.0, 1e6), broken))
    step = draw(_value(st.floats(1.0, 600.0), broken))
    if type(start) is float and type(step) is float:
        end = draw(_value(st.just(start + step * draw(st.integers(0, 9))), broken))
    else:
        end = draw(st.sampled_from(EXTREMES))
    window = draw(_mutated({"start_s": start, "end_s": end, "step_s": step}, broken))
    endpoints = {
        name: draw(_mutated({"lat_deg": draw(_value(st.floats(-90.0, 90.0), broken)),
                             "lon_deg": draw(_value(st.floats(-180.0, 180.0), broken))}, broken))
        for name in ("a", "b")
    }
    doc = {
        "config": draw(configs(broken)),
        "window": window,
        "endpoints": endpoints,
        "experiments": [{"src": "a", "dst": "c" if broken and draw(st.booleans()) else "b"}],
        "seed": draw(_value(st.integers(0, 100), broken)),
    }
    return draw(_mutated(doc, broken))


ADDRESSES = st.one_of(st.from_regex(r"\A[0-9]{1,2}(\.[0-9]{1,2}){0,3}\Z"), st.text(max_size=6))
CELLS = st.one_of(
    st.from_regex(r"\A[0-9]{1,2},[0-9]{1,2}(/[0-9]{1,2},[0-9]{1,2}){0,2}\Z"), st.text(max_size=6)
)
INTEGERS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["1" + "0" * 400, "1.5", "x"]))


@st.composite
def _number(draw, lo, hi):
    """A numeric flag: mostly a float in [lo, hi], else an extreme or malformed string."""
    if draw(st.integers(0, 11)) == 0:
        return draw(st.sampled_from(NUMBER_FLAGS))
    return repr(draw(st.floats(lo, hi)))


@st.composite
def _address(draw, config):
    """A satellite address of the config's shape, or any string, half the time each."""
    if isinstance(config, dict) and _small_int(config.get("n"), 3, 8) \
            and _small_int(config.get("k"), 0, 2) and draw(st.booleans()):
        digits = st.integers(0, config["n"] - 1 + draw(st.integers(0, 1)))
        return ".".join(str(draw(digits)) for _ in range(config["k"] + 1))
    return draw(ADDRESSES)


@st.composite
def _cell(draw, config):
    """A cell id of the config's shape (column 0 below level 0), or any string."""
    if isinstance(config, dict) and _small_int(config.get("n"), 3, 8) \
            and _small_int(config.get("m"), 0, 7) and _small_int(config.get("k"), 0, 2) \
            and config["m"] < config["n"] and draw(st.booleans()):
        rho, n = config["n"] - config["m"], config["n"]
        pairs = [(draw(st.integers(0, rho - 1)), draw(st.integers(0, rho - 1)))]
        pairs += [(draw(st.integers(0, 2 * n - 2)), 0) for _ in range(draw(st.integers(0, 2)))]
        return "/".join(f"{row},{col}" for row, col in pairs)
    return draw(CELLS)


@st.composite
def commands(draw):
    """(argv without its file flags, config document, scenario document)."""
    kind = draw(st.sampled_from(["generate", "route", "geo", "fib", "cells", "size", "simulate"]))
    if kind == "size":
        return ["size", "--rtt-ms", draw(_number(1.0, 500.0)), "--elevation-deg",
                draw(_number(0.0, 89.0)), "--base-n", draw(INTEGERS)], None, None
    broken = draw(st.integers(0, 2)) == 0  # one document in three
    if kind == "simulate":
        return ["simulate"], None, draw(scenarios(broken))
    config = draw(configs(broken))
    lat, lon = _number(-90.0, 90.0), _number(-180.0, 180.0)
    if kind == "generate":
        argv = ["generate", *draw(st.sampled_from([[], ["--output"], ["--output", "--tables"]]))]
    elif kind == "route":
        argv = ["route", "--from", draw(_address(config)), "--to", draw(_address(config))]
    elif kind == "geo":
        argv = ["route", "--geo", "--from-lat", draw(lat), "--from-lon", draw(lon),
                "--to-lat", draw(lat), "--to-lon", draw(lon), "--time", draw(_number(0.0, 1e5))]
    elif kind == "fib":
        argv = ["fib", "--owner", draw(_address(config))]
    else:
        mode = draw(st.sampled_from(["count", "locate", "to-location"]))
        if mode == "count":
            argv = ["cells", "--count"]
        elif mode == "locate":
            argv = ["cells", "--locate", draw(lat), draw(lon)]
        else:
            level = draw(st.one_of(st.just([]), INTEGERS.map(lambda text: ["--level", text])))
            argv = ["cells", "--to-location", draw(_cell(config)), *level]
    return argv, config, None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """main(argv) in-process: (exit code, stdout, stderr, warnings raised)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors found while parsing flags
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _strict(text):
    def refuse(token):
        raise AssertionError(f"{token} in JSON output")

    return json.loads(text, parse_constant=refuse)


def _scenario(**fields):
    """A valid two-endpoint scenario document with fields replaced."""
    return {"config": ROUTING, "endpoints": ENDPOINTS, "experiments": [{"src": "a", "dst": "b"}],
            "window": {"start_s": 0.0, "end_s": 40.0, "step_s": 10.0}, **fields}


FILES = {"--output": "topology.json", "--tables": "tables.fra0"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=commands())
# the reproducers of tracebacks these rules fixed
@example(command=(["generate"], dict(ROUTING, n=10**400), None))
@example(command=(["route", "--from", "0.0", "--to", "1.1"], dict(ROUTING, k=1000000), None))
@example(command=(["cells", "--count"], dict(ROUTING, k=10**400), None))
@example(command=(["route", "--geo", *GEO_ARGS, "--time", "1e308"], GEO, None))
@example(command=(["route", "--geo", *GEO_ARGS], dict(GEO, constants={"sidereal_day_s": 1e-310}),
                  None))
@example(command=(["fib", "--owner", "0.\u00b2"], ROUTING, None))
@example(command=(["cells", "--to-location", "1,\u00b2"], ROUTING, None))
@example(command=(["fib", "--owner", "0." + "1" * 5000], ROUTING, None))
@example(command=(["cells", "--to-location", "0," + "1" * 5000], ROUTING, None))
@example(command=(["simulate"], None,
                  _scenario(window={"start_s": 1e308, "end_s": 1e308, "step_s": 10.0})))
@example(command=(["simulate"], None,
                  _scenario(window={"start_s": 0.0, "end_s": 1e308, "step_s": 1e-310})))
@example(command=(["simulate"], None,
                  _scenario(window={"start_s": 10**400, "end_s": 40.0, "step_s": 10.0})))
@example(command=(["simulate"], None,
                  _scenario(window={"start_s": 0.0, "end_s": 40.0, "step_s": "10"})))
@example(command=(["simulate"], None, _scenario(seed=2.7)))
@example(command=(["simulate"], None,
                  _scenario(endpoints=dict(ENDPOINTS, a={"lat_deg": True, "lon_deg": 0.0}))))
def test_cli_input_documents_end_in_a_documented_exit(workdir, command):
    argv, config, scenario = command
    argv = [a for arg in argv for a in ([arg, str(workdir / FILES[arg])] if arg in FILES else [arg])]
    if argv[0] not in ("size", "simulate"):
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv[1:1] = ["--config", str(workdir / "config.json")]
    if scenario is not None:
        (workdir / "scenario.json").write_text(json.dumps(scenario), encoding="utf-8")
        argv += ["--scenario", str(workdir / "scenario.json"), "--trace", str(workdir / "t.csv")]

    code, out, err, caught = _run(argv)

    assert code in (0, 1, 2), (code, err)
    assert caught == []
    if code == 0:
        assert err == ""
        _strict(out)
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert isinstance(_strict(err), dict)
