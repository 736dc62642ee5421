"""Address text forms and the 128-bit embedding.

Bijectivity is the load-bearing property: every encode is decoded back
bit-exactly, across random digits, prefixes, and suffixes.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from frosette.addressing import (
    GroundAddress,
    SatAddress128,
    bit_widths,
    decode,
    encode,
    format_cell_id,
    format_sat_address,
    from_colon_hex,
    parse_cell_id,
    parse_sat_address,
    to_colon_hex,
)
from frosette.constellation import format_address
from frosette.errors import ConfigError, LayoutError, ParseError, RangeError
from frosette.geocell import CellId, capacity
from conftest import make_config

CFG = make_config(16, 2, 1)
LAYOUT = bit_widths(CFG)


# --- layout widths -----------------------------------------------------------


def test_bit_widths_reference_totals():
    # N=16, m=2: level-0 fields are 4+4 bits, deeper levels 5+4
    for k, want in ((0, 8), (1, 17), (2, 26), (3, 35)):
        layout = bit_widths(make_config(16, 2, k))
        assert layout.cell_payload_bits == want
        assert layout.sat_payload_bits == (k + 1) * 4
        assert layout.suffix_bits == 128 - 64 - 1 - want
        assert layout.sat_suffix_bits == 128 - 64 - 1 - (k + 1) * 4


def test_bit_widths_odd_sizes():
    layout = bit_widths(make_config(5, 2, 1, incl_deg=45.0))
    assert layout.sat_digit_bits == 3
    assert layout.cell_field_bits == ((2, 2), (4, 3))


def test_bit_widths_overflow():
    with pytest.raises(LayoutError):
        bit_widths(make_config(256, 1, 6))


# --- text forms ----------------------------------------------------------------


def test_sat_address_text_round_trip():
    assert format_sat_address((0, 13)) == "0.13"
    assert format_sat_address is format_address  # one formatter
    assert parse_sat_address("0.13", CFG) == (0, 13)
    with pytest.raises(ParseError):
        parse_sat_address("0..3", CFG)
    with pytest.raises(ParseError):
        parse_sat_address("", CFG)
    with pytest.raises(ParseError):
        parse_sat_address("0.-3", CFG)
    with pytest.raises(RangeError):
        parse_sat_address("0.3.1", CFG)
    with pytest.raises(RangeError):
        parse_sat_address("0.16", CFG)


def test_cell_id_text_round_trip():
    cell = CellId(((1, 0), (7, 3)))
    text = format_cell_id(cell)
    assert text == "1,0/7,3"
    assert parse_cell_id(text, make_config(8, 6, 1, incl_deg=45.0)) == cell
    cfg = make_config(8, 6, 1, incl_deg=45.0)
    with pytest.raises(ParseError):
        parse_cell_id("1/7,3", cfg)
    with pytest.raises(ParseError):
        parse_cell_id("", cfg)
    with pytest.raises(RangeError):
        parse_cell_id("2,0/7,3", cfg)  # level-0 row beyond rho
    with pytest.raises(RangeError):
        parse_cell_id("1,0/0,1", cfg)  # row 0 has capacity 1, so col 1 overflows


# --- 128-bit embedding -----------------------------------------------------------


def sat_digits():
    return st.tuples(*[st.integers(0, CFG.n - 1) for _ in range(CFG.k + 1)])


@st.composite
def cells(draw):
    rho = CFG.rho
    first = (draw(st.integers(0, rho - 1)), draw(st.integers(0, rho - 1)))
    row = draw(st.integers(0, 2 * CFG.n - 2))
    col = draw(st.integers(0, capacity(row, CFG.n) - 1))
    return CellId((first, (row, col)))


@settings(max_examples=200)
@given(sat_digits(), st.integers(0, 2**64 - 1), st.integers(0, 2**LAYOUT.sat_suffix_bits - 1))
def test_sat_encode_decode_bijective(digits, prefix, suffix):
    value = encode(SatAddress128(prefix, digits, suffix), LAYOUT)
    got = decode(value, LAYOUT, CFG)
    assert isinstance(got, SatAddress128)
    assert (got.prefix, got.digits, got.suffix) == (prefix, digits, suffix)
    # text round-trip of the same value
    assert from_colon_hex(to_colon_hex(value)) == value


@settings(max_examples=200)
@given(cells(), st.integers(0, 2**64 - 1), st.integers(0, 2**LAYOUT.suffix_bits - 1))
def test_ground_encode_decode_bijective(cell, prefix, suffix):
    value = encode(GroundAddress(prefix, cell, suffix), LAYOUT)
    got = decode(value, LAYOUT)
    assert isinstance(got, GroundAddress)
    assert (got.prefix, got.cell, got.suffix) == (prefix, cell, suffix)


def test_flag_bit_separates_families():
    sat_val = encode((3, 14), LAYOUT, prefix=99)
    ground_val = encode(CellId(((1, 1), (15, 0))), LAYOUT, prefix=99)
    assert (sat_val >> 63) & 1 == 0
    assert (ground_val >> 63) & 1 == 1


def test_encode_rejects_bad_inputs():
    with pytest.raises(RangeError):
        encode((1, 2, 3), LAYOUT)  # wrong digit count
    with pytest.raises(RangeError):
        encode((16, 0), LAYOUT)  # digit out of range
    with pytest.raises(RangeError):
        encode((0, 0), LAYOUT, prefix=2**64)  # prefix too wide
    with pytest.raises(RangeError):
        encode((0, 0), LAYOUT, suffix=2**LAYOUT.sat_suffix_bits)
    with pytest.raises(RangeError):
        encode(CellId(((0, 0),)), LAYOUT)  # cell depth != layout depth
    with pytest.raises(RangeError):
        encode("nonsense", LAYOUT)


def test_decode_rejects_bad_payload():
    # craft a satellite value whose digit field holds 15... valid for N=16;
    # use a narrower layout to make an invalid digit representable
    cfg8 = make_config(8, 6, 1)
    layout8 = bit_widths(cfg8)
    good = encode((7, 7), layout8)
    # force a digit of 0b111 -> 7 is max; no invalid digit exists for exact
    # powers of two, so check the range guard on a non-power ring instead
    cfg5 = make_config(5, 2, 1, incl_deg=45.0)
    layout5 = bit_widths(cfg5)
    bad = encode((4, 4), layout5) | (0b111 << layout5.sat_suffix_bits)
    with pytest.raises(RangeError):
        decode(bad, layout5)
    assert decode(good, layout8).digits == (7, 7)
    with pytest.raises(ConfigError, match="layout does not match config"):
        decode(good, layout8, cfg5)


def test_colon_hex_forms():
    assert to_colon_hex(0) == "0000:0000:0000:0000:0000:0000:0000:0000"
    assert to_colon_hex((1 << 128) - 1) == "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"
    assert from_colon_hex("0000:0000:0000:0000:0000:0000:0000:002a") == 42
    with pytest.raises(ParseError):
        from_colon_hex("0000:0000")
    with pytest.raises(ParseError):
        from_colon_hex("xxxx:0000:0000:0000:0000:0000:0000:0000")
    assert from_colon_hex("0:0:0:0:0:0:0:FfFf") == 0xFFFF
    # int(part, 16) takes each of these; a group is 1-4 ASCII hex digits only
    for group in ("-1", "+f", " f", "f ", "0x1", "1_0", "\uff11", "\u0661", ""):
        with pytest.raises(ParseError) as err:
            from_colon_hex(f"0:0:0:0:0:0:0:{group}")
        assert err.value.position == 14
    with pytest.raises(ParseError) as err:
        from_colon_hex("0:-1:0:0:0:0:0:0")
    assert err.value.position == 2
    with pytest.raises(RangeError):
        to_colon_hex(1 << 128)


# Pinned 128-bit values: a field order or width mistake made the same way in
# encode and decode passes every round trip above, but not these. N=16 m=8 has
# 3-bit level-0 cell fields, and N=5 m=2 k=2 odd widths throughout.
_N16 = make_config(16, 8, 1)
_N5 = make_config(5, 2, 2, incl_deg=45.0)
GOLDEN_BITS = [
    (_N16, (3, 14), 0x0123456789ABCDEF, 0x2A, "0123:4567:89ab:cdef:1f00:0000:0000:002a"),
    (_N16, (15, 0), 0xFEDCBA9876543210, 2**55 - 1, "fedc:ba98:7654:3210:787f:ffff:ffff:ffff"),
    (_N16, CellId(((7, 2), (30, 0))), 0x20010DB800000001, 0x1234,
     "2001:0db8:0000:0001:f5e0:0000:0000:1234"),
    (_N16, CellId(((0, 5), (15, 13))), 1, 5, "0000:0000:0000:0001:8afd:0000:0000:0005"),
    (_N5, (4, 0, 3), 0xDEADBEEFCAFEF00D, 0x155, "dead:beef:cafe:f00d:40c0:0000:0000:0155"),
    (_N5, (1, 2, 4), 1, 2**54 - 1, "0000:0000:0000:0001:153f:ffff:ffff:ffff"),
    (_N5, CellId(((2, 1), (8, 0), (4, 3))), 0x0123456789ABCDEF, 0x77,
     "0123:4567:89ab:cdef:cc04:6000:0000:0077"),
    (_N5, CellId(((0, 2), (3, 3), (6, 2))), 2**64 - 1, 0, "ffff:ffff:ffff:ffff:91b6:4000:0000:0000"),
]


@pytest.mark.parametrize("cfg,addr,prefix,suffix,want", GOLDEN_BITS, ids=[c[-1] for c in GOLDEN_BITS])
def test_encode_matches_pinned_bits(cfg, addr, prefix, suffix, want):
    layout = bit_widths(cfg)
    assert to_colon_hex(encode(addr, layout, prefix=prefix, suffix=suffix)) == want
    got = decode(from_colon_hex(want), layout, cfg)
    body = got.digits if isinstance(got, SatAddress128) else got.cell
    assert (got.prefix, body, got.suffix) == (prefix, addr, suffix)
