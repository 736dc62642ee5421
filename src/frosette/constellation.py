"""F-Rosette_k construction: satellites, layered rings, orbits, altitude sizing."""
from __future__ import annotations

import functools
import io
import itertools
import json
import math
import string
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig, PhysicalConstants, _json_number, config_to_dict
from .errors import DomainError, InfeasibleError, RangeError, _shown
from .geom import OrbitalElements, closed_form_range, orbit_positions, range_terms

SatAddress = tuple[int, ...]

# 64 times the paper's largest constellation (N=16, k=3). Below it the
# integer phase m*s0*N^k + N*(id mod N^k) < N^(k+2) <= (N^(k+1))^2 fits int64.
MAX_SATELLITES = 1 << 22


def check_size(cfg: ConstellationConfig) -> None:
    """Raise DomainError, before anything is allocated, above MAX_SATELLITES."""
    # past these bounds N^(k+1) >= 2^(k+1) is too large, and may have too many digits to print
    small = cfg.k < MAX_SATELLITES.bit_length() and cfg.n < 1 << 64
    if not small or cfg.n_sats > MAX_SATELLITES:
        count = f" = {cfg.n_sats}" if small else ""
        raise DomainError(f"N^(k+1){count} with N={_shown(cfg.n)}, k={_shown(cfg.k)} "
                          f"exceeds the limit of {MAX_SATELLITES}")


def sat_id(addr: SatAddress, n: int) -> int:
    """Mixed-radix id sum(s_j * N^(k-j)): the address's position in ``build``'s nodes."""
    i = 0
    for digit in addr:
        i = i * n + digit
    return i


def _address(i: int, cfg: ConstellationConfig) -> SatAddress:
    """The address of satellite id i (the inverse of :func:`sat_id`), in int digits."""
    address = ()
    for _ in range(cfg.k + 1):
        i, digit = divmod(i, cfg.n)
        address = (digit,) + address
    return address


def validate_address(addr: SatAddress, cfg: ConstellationConfig) -> None:
    """RangeError unless addr has k+1 int digits in [0, N); cfg may also be a BitLayout."""
    if len(addr) != cfg.k + 1:
        raise RangeError(f"address {_shown(addr)} has {len(addr)} digits, expected {cfg.k + 1}")
    for digit in addr:
        if not (type(digit) is int and 0 <= digit < cfg.n):
            raise RangeError(f"digit {_shown(digit)} out of range [0, {cfg.n}) in {_shown(addr)}")


def ring_table(cfg: ConstellationConfig) -> tuple[np.ndarray, np.ndarray]:
    """(nbr, edge): the ring links of every satellite id, as read-only (M, 2(k+1)) arrays.

    ``nbr[i]`` holds i's neighbours, layers ascending and +1 before -1 in each;
    ``edge[i]`` the matching edge ids, where edge i*(k+1)+L, entry i*(k+1)+L of
    ``Topology.edges``, joins i to its +1 neighbour on layer L.
    Built once per (N, k), which is all it depends on, and shared by every
    config with those two.
    """
    check_size(cfg)
    return _ring_table(cfg.n, cfg.k)


@functools.lru_cache(maxsize=8)
def _ring_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    ids, layer, width = np.arange(n ** (k + 1))[:, None], np.arange(k + 1), k + 1
    stride = n ** (k - layer)
    digit, wrap = ids // stride % n, (1 - n) * stride
    up = ids + np.where(digit == n - 1, wrap, stride)
    down = ids - np.where(digit == 0, wrap, stride)
    nbr = np.stack([up, down], axis=2).reshape(-1, 2 * width)
    edge = np.stack([ids * width + layer, down * width + layer], axis=2).reshape(-1, 2 * width)
    nbr.flags.writeable = edge.flags.writeable = False
    return nbr, edge


@dataclass(frozen=True)
class Topology:
    """Immutable digit-ring topology of an F-Rosette_k; ``nodes`` and ``edges``
    are built on first use, ``edges[e]`` being the link with :func:`ring_table`
    edge id e, (a, b, layer) with b the +1 neighbour of a."""

    config: ConstellationConfig

    @functools.cached_property
    def nodes(self) -> tuple[SatAddress, ...]:
        return tuple(itertools.product(range(self.config.n), repeat=self.config.k + 1))

    @functools.cached_property
    def edges(self) -> tuple[tuple[SatAddress, SatAddress, int], ...]:
        nodes, up = self.nodes, ring_table(self.config)[0][:, 0::2].tolist()
        return tuple([(a, nodes[b], layer) for a, row in zip(nodes, up)
                      for layer, b in enumerate(row)])

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The (nbr, edge) arrays of :func:`ring_table`, every satellite id's links."""
        return ring_table(self.config)


def build(cfg: ConstellationConfig) -> Topology:
    """The N^(k+1)-node, (k+1)-ring-per-node topology of a config."""
    check_size(cfg)
    return Topology(cfg)


def ring_neighbor(addr: SatAddress, layer: int, direction: int, n: int) -> SatAddress:
    digits = list(addr)
    digits[layer] = (digits[layer] + direction) % n
    return tuple(digits)


def _orbit_units(ids, cfg: ConstellationConfig):
    """(Base slot s0, epoch phase) of satellite ids, ints or an int array.

    Digit 0 selects the base-Rosette slot (RAAN 2*pi*s0/N, phase m*RAAN);
    each deeper digit s_j adds 2*pi*s_j/N^j. The phase is summed in integer
    units of 2*pi/N^(k+1) and reduced exactly; callers convert it once.
    """
    span = cfg.n**cfg.k
    s0 = ids // span
    return s0, (cfg.m * s0 * span + cfg.n * (ids % span)) % cfg.n_sats


def address_to_elements(addr: SatAddress, cfg: ConstellationConfig) -> OrbitalElements:
    """Map a hierarchical address to its orbit (see :func:`_orbit_units`)."""
    validate_address(addr, cfg)
    s0, phase = _orbit_units(sat_id(addr, cfg.n), cfg)
    return OrbitalElements(
        raan_rad=TWO_PI * s0 / cfg.n,
        inclination_rad=cfg.inclination_rad,
        phase0_rad=TWO_PI * phase / cfg.n_sats,
        period_s=cfg.period_s,
        orbit_radius_km=cfg.orbit_radius_km,
    )


class OrbitState:
    """Every satellite's orbit as read-only cos/sin arrays of its epoch phase
    and RAAN, indexed by :func:`sat_id`; built from the config alone, on first
    use, so a caller of ``link_terms`` alone builds none of them."""

    def __init__(self, cfg: ConstellationConfig) -> None:
        check_size(cfg)
        self.cfg = cfg

    @functools.cached_property
    def _trig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.cfg
        s0, phase = _orbit_units(np.arange(cfg.n_sats), cfg)
        raan, phase = TWO_PI * s0 / cfg.n, TWO_PI * phase / cfg.n_sats
        trig = np.cos(phase), np.sin(phase), np.cos(raan), np.sin(raan)
        for a in trig:
            a.flags.writeable = False  # shared by every caller of orbit_state
        return trig

    @functools.cached_property
    def link_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(cls, terms): :func:`ring_table` edge e spans sin^2(r/2) = K + Dc*cos(4*pi*t/T)
        - Ds*sin(4*pi*t/T), (K, Dc, Ds) = terms[:, cls[e]], with K and D from
        ``geom.range_terms`` and Dc, Ds = D*cos(phi), D*sin(phi).

        A link's phase and RAAN steps depend only on its layer L and on whether
        it wraps (digit L is N-1). Layer 0's links alone change plane (D != 0),
        so its classes are the phase sums phi that occur, ranked in a dense table
        of M entries with no sort; each layer L >= 1 has two, regular and wrap.
        """
        cfg, n, k, big = self.cfg, self.cfg.n, self.cfg.k, self.cfg.n_sats
        span, width, wrap = n**k, k + 1, np.arange(n)[:, None] == n - 1
        # layer 0 joins s0*span + r to ((s0 + 1) % N)*span + r, whose phases add over s0 and r
        plane = _orbit_units(np.arange(n) * span, cfg)[1]
        slot = _orbit_units(np.arange(span), cfg)[1]
        sums = ((plane + np.roll(plane, -1))[:, None] + 2 * slot) % big
        seen = np.bincount(sums.ravel(), minlength=big) > 0
        keys, rank, cls = np.flatnonzero(seen), np.cumsum(seen) - 1, np.empty(big * width, np.intp)
        cls.reshape(n, span, width)[..., 0] = rank[sums]
        for layer in range(1, width):  # class len(keys) + 2L - 2 for regular links, next for wraps
            cls.reshape(n**layer, n, -1, width)[..., layer] = wrap + len(keys) + 2 * layer - 2
        # each layer's regular and wrap link, 0 -> N^(k-L) and (N-1)*N^(k-L) -> 0
        s0, phase = _orbit_units(np.outer(n ** (k - np.arange(width)), [0, n - 1, 1, 0]), cfg)
        steps = np.stack([phase[:, 2:] - phase[:, :2], (s0[:, 2:] - s0[:, :2]) * span])
        # each within half a turn, so no half angle passes 5*pi/6 and every sine stays accurate
        du, draan = ((steps + big // 2) % big - big // 2).reshape(2, -1)
        # per class: layer 0's steps with each phase sum, then each deeper regular and wrap link
        pick = np.concatenate([np.zeros(len(keys), np.intp), np.arange(2, 2 * width)])
        const, d = (a[pick] for a in range_terms(du, draan, big, cfg.inclination_rad))
        phi = TWO_PI * np.concatenate([keys, np.zeros(2 * k, np.intp)]) / big
        terms = np.stack([const, d * np.cos(phi), d * np.sin(phi)])
        cls.flags.writeable = terms.flags.writeable = False
        return cls, terms

    def unit_positions(self, t, rows=slice(None)) -> np.ndarray:
        """Inertial unit vectors of the given rows: (R, 3) at a scalar t,
        (T, R, 3) for times of shape (T, 1)."""
        cfg, (cp, sp, ca, sa) = self.cfg, self._trig
        return orbit_positions(
            cp[rows], sp[rows], ca[rows], sa[rows], cfg.inclination_rad, TWO_PI * t / cfg.period_s,
        )


@functools.lru_cache(maxsize=8)
def orbit_state(cfg: ConstellationConfig) -> OrbitState:
    """The config's orbit state, built once per distinct config."""
    return OrbitState(cfg)


def min_altitude_coverage(cfg: ConstellationConfig) -> float:
    """The covering-bound floor at the config's elevation: below it no arrangement
    of the satellites' equal caps covers the ground, so it is necessary, not
    sufficient (8/1/1 at this floor and a 25 degree mask leaves about 22% of the
    inclination band uncovered). Three satellites have none (the demand
    diverges, as in ``geom.min_satellites``)."""
    total = cfg.n_sats
    if total < 4:
        raise InfeasibleError(f"coverage impossible: {total} satellites cannot cover the ground")
    demand = math.sqrt(3.0) * math.tan(math.pi / 6.0 * total / (total - 2))
    r = math.acos(1.0 / demand)
    phi = cfg.min_elevation_rad
    denom = math.cos(r) - math.sin(r) * math.tan(phi)
    if denom <= 0.0:
        raise InfeasibleError(
            f"coverage impossible: elevation {phi} too steep for per-satellite range {r}"
        )
    return cfg.consts.earth_radius_km * (1.0 / denom - 1.0)


@dataclass(frozen=True)
class StabilityReport:
    r_max_rad: float
    r_max_closed_form_rad: float
    h_stability_km: float
    h_coverage_km: float
    h_min_km: float


def stability_report(cfg: ConstellationConfig) -> StabilityReport:
    """Worst-case link range and the altitude floors it implies.

    r_max is the larger of the layer-0 range, in closed form
    (``geom.closed_form_range`` at offset 1 and time coupling 1, the peak over
    a period), and the longest intra-orbit arc, 2*pi/N on layer 1 (its wrap
    edge too; layer j's arcs are at most (N-1)*2*pi/N^j); above the
    stability floor, (Re + h) cos(r_max/2) > Re + atmosphere margin.
    """
    r_layer0 = closed_form_range(cfg, 1, 1.0)
    r_max = max(r_layer0, TWO_PI / cfg.n if cfg.k else 0.0)
    # within 8 ulps of antipodal (h >~ 1e11 km), rounding alone would pick the side of pi
    if math.sin(r_max / 2.0) ** 2 >= 1.0 - 8 * 2.0**-53:
        raise InfeasibleError("worst-case link spans a half circle or more")
    re, cos_half = cfg.consts.earth_radius_km, math.cos(r_max / 2.0)
    h_stab = (1.0 / cos_half - 1.0) * re + cfg.consts.atmosphere_margin_km / cos_half
    h_cov = min_altitude_coverage(cfg)
    return StabilityReport(
        r_max_rad=r_max,
        r_max_closed_form_rad=r_layer0,
        h_stability_km=h_stab,
        h_coverage_km=h_cov,
        h_min_km=max(h_stab, h_cov),
    )


def min_altitude_stability(cfg: ConstellationConfig) -> float:
    """Altitude floor for links that never graze the earth, >= coverage floor."""
    return stability_report(cfg).h_min_km


def ground_to_space_rtt(altitude_km: float, consts: PhysicalConstants) -> float:
    """Round-trip time (s) straight up and back."""
    altitude_km = _json_number("altitude_km", altitude_km, error=DomainError)
    return 2.0 * altitude_km / consts.light_speed_km_s


def format_address(addr: SatAddress) -> str:
    try:
        return ".".join(str(d) for d in addr)
    except ValueError:  # an int past Python's 4,300-digit limit for decimal text
        raise RangeError(f"address {_shown(addr)} has a digit too long to print") from None


def _stream_topology(topo: Topology, write) -> None:
    """Pass the topology document's ASCII bytes to write: the one writer of them.

    {"config", "nodes", "edges"} on one line: every satellite's dotted name by
    id, then every ``Topology.edges`` link as ``[a, b, layer]``. Both lists
    start as one satellite's entries, ASCII letter j (k + 1 <= 13) standing for
    digit j and its capital for j + 1 mod N, and grow from the last digit up by
    N copies spelling d and (d + 1) mod N; digit 0's copies go out one by one.
    """
    cfg = topo.config
    low = string.ascii_lowercase[: cfg.k + 1]
    name, high = ".".join(low), low.upper()
    node, edge = f'"{name}"'.encode(), ", ".join(
        f'["{name}", "{name.replace(low[j], high[j])}", {j}]' for j in range(cfg.k + 1)).encode()
    digits = [b"%d" % d for d in range(cfg.n)]

    def copies(text: bytes, j: int):
        letter, capital = low[j].encode(), high[j].encode()
        return (text.replace(letter, d).replace(capital, up)
                for d, up in zip(digits, digits[1:] + digits[:1]))

    for j in range(cfg.k, 0, -1):
        node, edge = b", ".join(copies(node, j)), b", ".join(copies(edge, j))
    write(b'{"config": ' + json.dumps(config_to_dict(cfg)).encode() + b', "nodes": [')
    write(b", ".join(copies(node, 0)))
    write(b'], "edges": [')
    for d, text in enumerate(copies(edge, 0)):
        write(b", " + text if d else text)
    write(b"]}\n")


def topology_to_dict(topo: Topology) -> dict:
    """The topology document as :func:`_stream_topology` writes it, parsed."""
    doc = io.BytesIO()
    _stream_topology(topo, doc.write)
    return json.loads(doc.getvalue())


def topology_to_json(topo: Topology) -> str:
    """The topology document re-indented by two spaces."""
    return json.dumps(topology_to_dict(topo), indent=2)
