"""Textual and binary forms of satellite and ground-cell addresses.

Satellite addresses are dotted digit strings ("2.13.0"); cell ids are
slash-separated "row,col" pairs, one per level ("1,0/5,3"). Both embed into a
128-bit value laid out big-endian as prefix (64 bits) | flag (1 bit, 0 for
satellites, 1 for ground) | payload digits | suffix. Field widths derive from
the config alone, so addresses never depend on time.
"""
from __future__ import annotations

import string
from dataclasses import dataclass

from .config import ConstellationConfig
from .constellation import SatAddress, validate_address
from .constellation import format_address as format_sat_address
from .errors import ConfigError, LayoutError, ParseError, RangeError, _shown
from .geocell import CellId, _validate_digits

PREFIX_BITS = 64
TOTAL_BITS = 128
_HEX_DIGITS = frozenset(string.hexdigits)


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


@dataclass(frozen=True)
class BitLayout:
    """Field widths of the 128-bit embedding for one config."""

    n: int
    m: int
    k: int
    prefix_bits: int
    flag_bits: int
    sat_digit_bits: int
    cell_field_bits: tuple[tuple[int, int], ...]  # (row, col) per level
    suffix_bits: int  # ground form
    sat_suffix_bits: int

    @property
    def sat_payload_bits(self) -> int:
        return (self.k + 1) * self.sat_digit_bits

    @property
    def cell_payload_bits(self) -> int:
        return sum(r + c for r, c in self.cell_field_bits)


def bit_widths(cfg: ConstellationConfig) -> BitLayout:
    """Derive the embedding layout; fails if a payload leaves no suffix room."""
    sat_digit = _ceil_log2(cfg.n)
    level0 = _ceil_log2(cfg.rho)
    fields = [(level0, level0)]
    for _ in range(cfg.k):
        fields.append((_ceil_log2(2 * cfg.n - 1), _ceil_log2(cfg.n)))
    cell_payload = sum(r + c for r, c in fields)
    sat_payload = (cfg.k + 1) * sat_digit
    for kind, payload in (("cell", cell_payload), ("satellite", sat_payload)):
        if PREFIX_BITS + 1 + payload > TOTAL_BITS - 1:
            raise LayoutError(
                f"{kind} payload of {payload} bits leaves no suffix room "
                f"(prefix {PREFIX_BITS} + flag 1 + payload must be < {TOTAL_BITS})"
            )
    return BitLayout(
        n=cfg.n,
        m=cfg.m,
        k=cfg.k,
        prefix_bits=PREFIX_BITS,
        flag_bits=1,
        sat_digit_bits=sat_digit,
        cell_field_bits=tuple(fields),
        suffix_bits=TOTAL_BITS - PREFIX_BITS - 1 - cell_payload,
        sat_suffix_bits=TOTAL_BITS - PREFIX_BITS - 1 - sat_payload,
    )


# --- text forms -------------------------------------------------------------


def _decimal(part: str, error: str, pos: int) -> int:
    """part as an int when it is ASCII digits that int() converts, else a
    ParseError: isdigit() passes '²', and int() refuses over 4,300 digits."""
    if part.isascii() and part.isdigit():
        try:
            return int(part)
        except ValueError:
            pass
    raise ParseError(error, position=pos)


def parse_sat_address(text: str, cfg: ConstellationConfig) -> SatAddress:
    if not text:
        raise ParseError("empty satellite address", position=0)
    digits: list[int] = []
    pos = 0
    for part in text.split("."):
        digits.append(_decimal(part, f"expected a decimal digit group, got {part!r}", pos))
        pos += len(part) + 1
    validate_address(tuple(digits), cfg)
    return tuple(digits)


def format_cell_id(cell: CellId) -> str:
    try:
        return "/".join(f"{row},{col}" for row, col in cell.digits)
    except ValueError:  # a digit past Python's 4,300-digit limit for decimal text
        raise RangeError(f"cell {_shown(cell.digits)} has a digit too long to print") from None


def parse_cell_id(text: str, cfg: ConstellationConfig) -> CellId:
    if not text:
        raise ParseError("empty cell id", position=0)
    digits: list[tuple[int, int]] = []
    pos = 0
    for group in text.split("/"):
        error, halves = f"expected 'row,col', got {group!r}", group.split(",")
        if len(halves) != 2:
            raise ParseError(error, position=pos)
        digits.append((_decimal(halves[0], error, pos), _decimal(halves[1], error, pos)))
        pos += len(group) + 1
    cell = CellId(tuple(digits))
    _validate_digits(cell, cfg.n, cfg.rho, cfg.k)
    return cell


# --- 128-bit embedding ------------------------------------------------------


@dataclass(frozen=True)
class GroundAddress:
    prefix: int
    cell: CellId
    suffix: int

    flag = 1


@dataclass(frozen=True)
class SatAddress128:
    prefix: int
    digits: SatAddress
    suffix: int

    flag = 0


def _check_width(name: str, value: int, bits: int) -> None:
    if type(value) is not int or value < 0 or value >> bits:
        raise RangeError(f"{name} {_shown(value)} does not fit in {bits} bits")


def _field_widths(layout: BitLayout, flag: int) -> tuple[int, ...]:
    """Widths of one family's fields, most significant first: prefix, flag,
    payload (a digit each for satellites, flag 0; row then col per level for
    ground cells, flag 1) and suffix. encode and decode both walk this list."""
    payload = ([bits for pair in layout.cell_field_bits for bits in pair] if flag
               else [layout.sat_digit_bits] * (layout.k + 1))
    return (layout.prefix_bits, layout.flag_bits, *payload,
            layout.suffix_bits if flag else layout.sat_suffix_bits)


def encode(addr, layout: BitLayout, *, prefix: int = 0, suffix: int = 0) -> int:
    """Pack an address into its 128-bit value.

    Bare digit tuples and CellIds are accepted and wrapped with the given
    prefix/suffix; SatAddress128/GroundAddress carry their own.
    """
    if isinstance(addr, tuple):
        addr = SatAddress128(prefix, addr, suffix)
    elif isinstance(addr, CellId):
        addr = GroundAddress(prefix, addr, suffix)
    elif not isinstance(addr, (SatAddress128, GroundAddress)):
        raise RangeError(f"cannot encode {type(addr).__name__} as an address")

    _check_width("prefix", addr.prefix, layout.prefix_bits)
    if isinstance(addr, SatAddress128):
        validate_address(addr.digits, layout)
        payload = addr.digits
    else:
        cell = addr.cell
        if cell.level != layout.k:
            raise RangeError(
                f"cell level {cell.level} != layout depth {layout.k}; "
                "the fixed-width embedding needs a full-depth cell"
            )
        _validate_digits(cell, layout.n, layout.n - layout.m, layout.k)
        payload = [digit for pair in cell.digits for digit in pair]
    widths = _field_widths(layout, addr.flag)
    _check_width("suffix", addr.suffix, widths[-1])
    value = 0
    for field, bits in zip((addr.prefix, addr.flag, *payload, addr.suffix), widths):
        value = (value << bits) | field
    return value


def decode(bits: int, layout: BitLayout, cfg: ConstellationConfig | None = None):
    """Inverse of encode; returns SatAddress128 or GroundAddress by flag."""
    if cfg is not None and (layout.n, layout.m, layout.k) != (cfg.n, cfg.m, cfg.k):
        raise ConfigError("layout does not match config")
    _check_width("value", bits, TOTAL_BITS)
    flag = (bits >> (TOTAL_BITS - layout.prefix_bits - 1)) & 1
    fields = []
    for width in reversed(_field_widths(layout, flag)):
        fields.append(bits & ((1 << width) - 1))
        bits >>= width
    suffix, *payload, _, prefix = fields
    payload.reverse()
    if flag == 0:
        validate_address(tuple(payload), layout)
        return SatAddress128(prefix, tuple(payload), suffix)
    cell = CellId(tuple(zip(payload[0::2], payload[1::2])))
    _validate_digits(cell, layout.n, layout.n - layout.m, layout.k)
    return GroundAddress(prefix, cell, suffix)


def to_colon_hex(value: int) -> str:
    """Render a 128-bit value as eight 4-digit hex groups."""
    _check_width("value", value, TOTAL_BITS)
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -1, -16)]
    return ":".join(f"{g:04x}" for g in groups)


def from_colon_hex(text: str) -> int:
    """Inverse of to_colon_hex: eight groups of 1-4 ASCII hex digits each."""
    parts = text.split(":")
    if len(parts) != 8:
        raise ParseError(f"expected 8 colon-separated groups, got {len(parts)}")
    value = 0
    pos = 0
    for part in parts:
        if not (1 <= len(part) <= 4 and set(part) <= _HEX_DIGITS):
            raise ParseError(f"bad hex group {part!r}", position=pos)
        value = (value << 16) | int(part, 16)
        pos += len(part) + 1
    return value
