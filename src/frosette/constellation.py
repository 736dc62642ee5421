"""F-Rosette_k construction: satellites, layered rings, orbits, altitude sizing."""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import TWO_PI, ConstellationConfig, PhysicalConstants, config_to_dict
from .errors import DomainError, InfeasibleError, RangeError
from .geom import OrbitalElements, central_angles, orbit_positions

SatAddress = tuple[int, ...]

R_MAX_TIME_SAMPLES = 4096
R_MAX_REFINE_TOL = 1e-12
# 64 times the paper's largest constellation (N=16, k=3). Below it the
# integer phase m*s0*N^k + N*(id mod N^k) < N^(k+2) <= (N^(k+1))^2 fits int64.
MAX_SATELLITES = 1 << 22


def check_size(cfg: ConstellationConfig) -> None:
    """Raise DomainError, before anything is allocated, above MAX_SATELLITES."""
    if cfg.n_sats > MAX_SATELLITES:
        raise DomainError(
            f"N^(k+1) = {cfg.n_sats} satellites exceeds the limit of {MAX_SATELLITES}"
        )


def sat_id(addr: SatAddress, n: int) -> int:
    """Mixed-radix id sum(s_j * N^(k-j)): the address's position in ``build``'s nodes."""
    i = 0
    for digit in addr:
        i = i * n + digit
    return i


def validate_address(addr: SatAddress, cfg: ConstellationConfig) -> None:
    if len(addr) != cfg.k + 1:
        raise RangeError(
            f"address {addr} has {len(addr)} digits, expected {cfg.k + 1}"
        )
    for digit in addr:
        if not (0 <= digit < cfg.n):
            raise RangeError(f"digit {digit} out of range [0, {cfg.n}) in {addr}")


def ring_table(cfg: ConstellationConfig) -> tuple[np.ndarray, np.ndarray]:
    """(nbr, edge): the ring links of every satellite id, as read-only (M, 2(k+1)) arrays.

    ``nbr[i]`` holds i's neighbours in ``neighbors()`` order (layers ascending,
    +1 before -1); ``edge[i]`` the matching edge ids, where edge i*(k+1)+L,
    entry i*(k+1)+L of ``Topology.edges``, joins i to its +1 neighbour on layer L.
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

    @functools.cached_property
    def _id_adjacency(self) -> list[list[tuple[int, int]]]:
        nbr, edge = ring_table(self.config)
        return [list(zip(a, e)) for a, e in zip(nbr.tolist(), edge.tolist())]

    def adjacency(self, ids: bool = False):
        """node -> [(layer, direction, neighbor)], layers ascending, +1 first; with
        ids=True, per satellite id [(neighbor id, edge id)] from :func:`ring_table`."""
        if ids:
            return self._id_adjacency
        return {addr: neighbors(addr, self.config) for addr in self.nodes}

    def has_edge(self, a: SatAddress, b: SatAddress) -> bool:
        return b in {nb for _, _, nb in neighbors(a, self.config)}


def build(cfg: ConstellationConfig) -> Topology:
    """The N^(k+1)-node, (k+1)-ring-per-node topology of a config."""
    check_size(cfg)
    return Topology(cfg)


def ring_neighbor(addr: SatAddress, layer: int, direction: int, n: int) -> SatAddress:
    digits = list(addr)
    digits[layer] = (digits[layer] + direction) % n
    return tuple(digits)


def neighbors(
    addr: SatAddress, cfg: ConstellationConfig
) -> list[tuple[int, int, SatAddress]]:
    """The 2(k+1) ring neighbors of addr as (layer, direction, address)."""
    validate_address(addr, cfg)
    out = []
    for layer in range(cfg.k + 1):
        for direction in (+1, -1):
            out.append((layer, direction, ring_neighbor(addr, layer, direction, cfg.n)))
    return out


def _orbit_angles(ids, cfg: ConstellationConfig):
    """(RAAN, epoch phase) of satellite ids, ints or an int array.

    Digit 0 selects the base-Rosette slot (RAAN 2*pi*s0/N, phase m*RAAN);
    each deeper digit s_j adds 2*pi*s_j/N^j. The phase is summed in integer
    units of 2*pi/N^(k+1) and reduced exactly before one conversion.
    """
    n, span = cfg.n, cfg.n**cfg.k
    s0 = ids // span
    units = (cfg.m * s0 * span + n * (ids % span)) % (n * span)
    return TWO_PI * s0 / n, TWO_PI * units / (n * span)


def address_to_elements(addr: SatAddress, cfg: ConstellationConfig) -> OrbitalElements:
    """Map a hierarchical address to its orbit (see :func:`_orbit_angles`)."""
    validate_address(addr, cfg)
    raan, phase = _orbit_angles(sat_id(addr, cfg.n), cfg)
    return OrbitalElements(
        raan_rad=raan,
        inclination_rad=cfg.inclination_rad,
        phase0_rad=phase,
        period_s=cfg.period_s,
        orbit_radius_km=cfg.orbit_radius_km,
    )


class OrbitState:
    """Every satellite's orbit as read-only cos/sin arrays of its epoch phase
    and RAAN, indexed by :func:`sat_id`; built from the config alone."""

    def __init__(self, cfg: ConstellationConfig) -> None:
        check_size(cfg)
        raan, phase = _orbit_angles(np.arange(cfg.n_sats), cfg)
        self.cfg = cfg
        self.cp, self.sp = np.cos(phase), np.sin(phase)
        self.ca, self.sa = np.cos(raan), np.sin(raan)
        for a in (self.cp, self.sp, self.ca, self.sa):
            a.flags.writeable = False  # shared by every caller of orbit_state

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


def _max_layer0_range(cfg: ConstellationConfig) -> float:
    """Numeric max over t of the inter-orbit link range, per adjacent pair."""
    period = cfg.period_s
    times = np.arange(R_MAX_TIME_SAMPLES)[:, None] * period / R_MAX_TIME_SAMPLES
    state, span = orbit_state(cfg), cfg.n**cfg.k
    best = 0.0
    for i in range(cfg.n):
        rows = [i * span, (i + 1) % cfg.n * span]  # (i, 0, ..., 0) and its layer-0 neighbour

        def range_at(t: float) -> float:
            p = state.unit_positions(t, rows)
            return float(central_angles(p[0], p[1]))

        p = state.unit_positions(times, rows)
        ranges = central_angles(p[:, 0], p[:, 1])
        s_peak = int(np.argmax(ranges))
        peak = float(ranges[s_peak])
        lo = (s_peak - 1) * period / R_MAX_TIME_SAMPLES
        hi = (s_peak + 1) * period / R_MAX_TIME_SAMPLES
        # golden-section refinement of the bracketed peak
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - gr * (b - a)
        d = a + gr * (b - a)
        fc, fd = range_at(c), range_at(d)
        while b - a > R_MAX_REFINE_TOL * period:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = range_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = range_at(d)
        best = max(best, peak, fc, fd)
    return best


def _intra_orbit_arcs(cfg: ConstellationConfig) -> list[float]:
    arcs = []
    for j in range(1, cfg.k + 1):
        step = TWO_PI / cfg.n**j
        arcs.append(step)  # non-wrap edge
        wrap = (cfg.n - 1) * step % TWO_PI
        arcs.append(min(wrap, TWO_PI - wrap))  # digit N-1 -> 0 edge
    return arcs


def _closed_form_r_max(cfg: ConstellationConfig) -> float:
    b2 = cfg.inclination_rad / 2.0
    c2, s2 = math.cos(b2) ** 2, math.sin(b2) ** 2
    m, unit = cfg.m, math.pi / cfg.n
    s = (
        c2 * c2 * math.sin(m * (m + 1) * unit) ** 2
        + 2.0 * s2 * c2 * math.sin(m * m * unit) ** 2
        + s2 * s2 * math.sin(m * (m - 1) * unit) ** 2
        + 2.0 * s2 * c2 * math.sin(m * unit) ** 2
    )
    return math.asin(math.sqrt(max(0.0, min(1.0, s))))


def stability_report(cfg: ConstellationConfig) -> StabilityReport:
    """Numeric worst-case link range and the altitude floors it implies.

    r_max is maximized over layer-0 edges across a full period plus the fixed
    intra-orbit arcs (wrap edges included). A closed-form estimate is also
    evaluated and reported for comparison, but never used for the result.
    """
    r_max = max(_max_layer0_range(cfg), *(_intra_orbit_arcs(cfg) or [0.0]))
    if r_max >= math.pi:
        raise InfeasibleError("worst-case link spans a half circle or more")
    re = cfg.consts.earth_radius_km
    h_stab = (1.0 / math.cos(r_max / 2.0) - 1.0) * re
    h_cov = min_altitude_coverage(cfg)
    return StabilityReport(
        r_max_rad=r_max,
        r_max_closed_form_rad=_closed_form_r_max(cfg),
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


def topology_to_dict(topo: Topology) -> dict:
    return {
        "config": config_to_dict(topo.config),
        "nodes": [format_address(a) for a in topo.nodes],
        "edges": [
            [format_address(a), format_address(b), layer] for a, b, layer in topo.edges
        ],
    }


def topology_to_json(topo: Topology) -> str:
    return json.dumps(topology_to_dict(topo), indent=2)
