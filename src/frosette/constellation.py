"""F-Rosette_k construction: satellites, layered rings, orbits, altitude sizing."""
from __future__ import annotations

import functools
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig, PhysicalConstants, config_to_dict
from .errors import DomainError, InfeasibleError, RangeError
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
        raise DomainError(f"N^(k+1){count} with N={cfg.n}, k={cfg.k} "
                          f"exceeds the limit of {MAX_SATELLITES}")


def sat_id(addr: SatAddress, n: int) -> int:
    """Mixed-radix id sum(s_j * N^(k-j)): the address's position in ``build``'s nodes."""
    i = 0
    for digit in addr:
        i = i * n + digit
    return i


def validate_address(addr: SatAddress, cfg: ConstellationConfig) -> None:
    """RangeError unless addr has k+1 digits in [0, N); cfg may also be a BitLayout."""
    if len(addr) != cfg.k + 1:
        raise RangeError(f"address {addr} has {len(addr)} digits, expected {cfg.k + 1}")
    for digit in addr:
        if not (0 <= digit < cfg.n):
            raise RangeError(f"digit {digit} out of range [0, {cfg.n}) in {addr}")


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
    and RAAN, indexed by :func:`sat_id`; built from the config alone."""

    def __init__(self, cfg: ConstellationConfig) -> None:
        check_size(cfg)
        s0, phase = _orbit_units(np.arange(cfg.n_sats), cfg)
        raan, phase = TWO_PI * s0 / cfg.n, TWO_PI * phase / cfg.n_sats
        self.cfg = cfg
        self.cp, self.sp = np.cos(phase), np.sin(phase)
        self.ca, self.sa = np.cos(raan), np.sin(raan)
        for a in (self.cp, self.sp, self.ca, self.sa):
            a.flags.writeable = False  # shared by every caller of orbit_state

    @functools.cached_property
    def link_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K, D*cos(phi), D*sin(phi)) of every :func:`ring_table` edge, from
        ``geom.range_terms`` of its tail and +1 head: edge e spans
        sin^2(r/2) = K + Dc*cos(4*pi*t/T) - Ds*sin(4*pi*t/T)."""
        cfg, half = self.cfg, self.cfg.n_sats // 2
        heads = ring_table(cfg)[0][:, 0::2]  # row i: the heads of i's edges
        s0, phase = _orbit_units(np.arange(cfg.n_sats), cfg)
        steps = np.stack([phase[heads] - phase[:, None], (s0[heads] - s0[:, None]) * cfg.n**cfg.k])
        # each within half a turn, so no half angle passes 5*pi/6 and every sine stays accurate
        du, draan = (steps + half) % cfg.n_sats - half
        k, d = range_terms(du, draan, cfg.n_sats, cfg.inclination_rad)
        phi = TWO_PI * ((phase[heads] + phase[:, None]) % cfg.n_sats) / cfg.n_sats
        terms = tuple(a.ravel() for a in (k, d * np.cos(phi), d * np.sin(phi)))
        for a in terms:
            a.flags.writeable = False
        return terms

    def unit_positions(self, t, rows=slice(None)) -> np.ndarray:
        """Inertial unit vectors of the given rows: (R, 3) at a scalar t,
        (T, R, 3) for times of shape (T, 1)."""
        cfg = self.cfg
        return orbit_positions(
            self.cp[rows], self.sp[rows], self.ca[rows], self.sa[rows],
            cfg.inclination_rad, TWO_PI * t / cfg.period_s,
        )


@functools.lru_cache(maxsize=8)
def orbit_state(cfg: ConstellationConfig) -> OrbitState:
    """The config's orbit state, built once per distinct config."""
    return OrbitState(cfg)


def min_altitude_coverage(cfg: ConstellationConfig) -> float:
    """Smallest altitude giving full ground coverage at the config's elevation."""
    total = cfg.n_sats
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
    return 2.0 * altitude_km / consts.light_speed_km_s


def format_address(addr: SatAddress) -> str:
    return ".".join(str(d) for d in addr)


_ROW_CHUNK = 2048


def _stream_topology(topo: Topology, fh) -> None:
    """Write the topology document to fh in chunks: the one writer of its bytes.

    The document is {"config", "nodes", "edges"}: every satellite's dotted
    name by id, then every ``Topology.edges`` link as ``[a, b, layer]``, on
    one line. Each level appends a digit and "." (the last a closing quote)
    to every name, giving an object array of quoted names by id; digits and
    dots need no JSON escaping. Each 2,048-satellite chunk of edges is one
    ``[a, b, L]`` string column per layer, built by object-array concatenation.
    """
    cfg = topo.config
    name = ['"']
    for level in range(cfg.k + 1):
        tails = [str(d) + ('"' if level == cfg.k else ".") for d in range(cfg.n)]
        name = [a + tail for a in name for tail in tails]
    name = np.array(name, dtype=object)
    up = ring_table(cfg)[0][:, 0::2]
    fh.write('{"config": ')
    json.dump(config_to_dict(cfg), fh)
    fh.write(', "nodes": [' + ", ".join(name.tolist()) + '], "edges": [')
    for start in range(0, len(up), _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        head = "[" + name[rows] + ", "
        cols = [head + name[j] + f", {layer}]" for layer, j in enumerate(up[rows].T)]
        fh.write(", " if start else "")
        fh.write(", ".join(np.column_stack(cols).ravel().tolist()))
    fh.write("]}\n")


def topology_to_dict(topo: Topology) -> dict:
    """The topology document as :func:`_stream_topology` writes it, parsed."""
    doc = io.StringIO()
    _stream_topology(topo, doc)
    return json.loads(doc.getvalue())


def topology_to_json(topo: Topology) -> str:
    """The topology document re-indented by two spaces."""
    return json.dumps(topology_to_dict(topo), indent=2)
