"""Scenario geometry: indoor room-grid districts, outdoor hexagonal cells,
and their multi-BSS tilings.  Each generator lays out the BSSs, STAs and
sizes of a ScenarioConfig."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import ScenarioConfig

# An indoor district is a square grid of ROOMS_PER_SIDE x ROOMS_PER_SIDE
# rooms ROOM_GAP_M apart; districts sit DISTRICT_GAP_M apart.
ROOMS_PER_SIDE = 4
ROOM_GAP_M = 1.0
DISTRICT_GAP_M = 1.0


@dataclass(frozen=True)
class Placement:
    node_id: int
    bss_id: int
    is_ap: bool
    x: float
    y: float

    @property
    def pos(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Topology:
    placements: list[Placement]
    colors: dict[int, int] = field(default_factory=dict)   # bss_id -> BSS colour

    @property
    def aps(self) -> list[Placement]:
        return [p for p in self.placements if p.is_ap]

    @property
    def stas(self) -> list[Placement]:
        return [p for p in self.placements if not p.is_ap]

    def of_bss(self, bss_id: int) -> list[Placement]:
        return [p for p in self.placements if p.bss_id == bss_id]


def _indoor_district(rng, bss_id, ap_xy, next_id, cfg: ScenarioConfig):
    """One AP centred among a symmetric grid of rooms, STAs uniform per room."""
    side = math.sqrt(cfg.room_area_m2)
    pitch = side + ROOM_GAP_M
    origin = -indoor_district_extent_m(cfg.room_area_m2) / 2
    placements = [Placement(next_id, bss_id, True, *ap_xy)]
    next_id += 1
    n_rooms = ROOMS_PER_SIDE * ROOMS_PER_SIDE
    per_room, extra = divmod(cfg.stas_per_bss, n_rooms)
    room_index = 0
    for j in range(ROOMS_PER_SIDE):
        for i in range(ROOMS_PER_SIDE):
            x0 = ap_xy[0] + origin + i * pitch
            y0 = ap_xy[1] + origin + j * pitch
            count = per_room + (1 if room_index < extra else 0)
            for _ in range(count):
                placements.append(Placement(
                    next_id, bss_id, False,
                    x0 + rng.uniform(0.0, side), y0 + rng.uniform(0.0, side)))
                next_id += 1
            room_index += 1
    return placements, next_id


def indoor_district_extent_m(room_area_m2: float) -> float:
    side = math.sqrt(room_area_m2)
    return ROOMS_PER_SIDE * side + (ROOMS_PER_SIDE - 1) * ROOM_GAP_M


def point_in_hexagon(x: float, y: float, inradius: float) -> bool:
    """Whether (x, y) lies in the flat-top hexagon about the origin with the
    given inradius (centre-to-edge distance)."""
    dx, dy = abs(x), abs(y)
    if dy > inradius:
        return False
    # remaining two edge pairs at +-60 degrees
    return dx * math.sin(math.pi / 3) + dy * math.cos(math.pi / 3) <= inradius


def _hex_uniform(rng, inradius, cx, cy):
    circum = inradius / math.cos(math.pi / 6)
    while True:
        x = rng.uniform(-circum, circum)
        y = rng.uniform(-inradius, inradius)
        if point_in_hexagon(x, y, inradius):
            return (cx + x, cy + y)


def _outdoor_cell(rng, bss_id, ap_xy, next_id, stas_per_bss, inradius_m):
    placements = [Placement(next_id, bss_id, True, *ap_xy)]
    next_id += 1
    for _ in range(stas_per_bss):
        x, y = _hex_uniform(rng, inradius_m, *ap_xy)
        placements.append(Placement(next_id, bss_id, False, x, y))
        next_id += 1
    return placements, next_id


def _assign_colors(n_bss: int) -> dict[int, int]:
    return {b: 1 + (b % 63) for b in range(n_bss)}


def gen_indoor_single(rng, cfg: ScenarioConfig) -> Topology:
    placements, _ = _indoor_district(rng, 0, (0.0, 0.0), 0, cfg)
    return Topology(placements, _assign_colors(1))


def gen_outdoor_single(rng, cfg: ScenarioConfig) -> Topology:
    placements, _ = _outdoor_cell(rng, 0, (0.0, 0.0), 0, cfg.stas_per_bss,
                                  cfg.cell_inradius_m)
    return Topology(placements, _assign_colors(1))


def gen_indoor_multi(rng, cfg: ScenarioConfig) -> Topology:
    """Districts tiled as a near-square matrix (4 x 8 at the full 32)."""
    n_bss = cfg.n_bss
    rows = int(math.sqrt(n_bss))
    while n_bss % rows:
        rows -= 1
    cols = n_bss // rows
    pitch = indoor_district_extent_m(cfg.room_area_m2) + DISTRICT_GAP_M
    placements: list[Placement] = []
    next_id = 0
    bss = 0
    for r in range(rows):
        for c in range(cols):
            ap_xy = (c * pitch, r * pitch)
            district, next_id = _indoor_district(rng, bss, ap_xy, next_id, cfg)
            placements.extend(district)
            bss += 1
    return Topology(placements, _assign_colors(n_bss))


def hex_ring_centers(ap_spacing_m: float, rings: int) -> list[tuple[float, float]]:
    """Centres of a hexagonal lattice out to the given ring count (2 rings = 19)."""
    centers = [(0.0, 0.0)]
    for ring in range(1, rings + 1):
        # walk the six edges of the ring
        x = ap_spacing_m * ring * math.cos(math.pi / 6)
        y = -ap_spacing_m * ring * math.sin(math.pi / 6)
        cx, cy = x, y
        directions = [(0, 1), (-math.cos(math.pi / 6), 0.5),
                      (-math.cos(math.pi / 6), -0.5), (0, -1),
                      (math.cos(math.pi / 6), -0.5), (math.cos(math.pi / 6), 0.5)]
        for dx, dy in directions:
            for _ in range(ring):
                centers.append((cx, cy))
                cx += ap_spacing_m * dx
                cy += ap_spacing_m * dy
    return centers[:1 + 3 * rings * (rings + 1)]


def gen_outdoor_multi(rng, cfg: ScenarioConfig) -> Topology:
    """Hexagonal cells of inradius cell_inradius_m in rings around the first
    (19 cells fill two rings); neighbouring APs sit two inradii apart, so
    the cells tile the plane."""
    n_bss, inradius_m = cfg.n_bss, cfg.cell_inradius_m
    rings = 1
    while 1 + 3 * rings * (rings + 1) < n_bss:
        rings += 1
    centers = hex_ring_centers(2 * inradius_m, rings)[:n_bss]
    placements: list[Placement] = []
    next_id = 0
    for bss, center in enumerate(centers):
        cell, next_id = _outdoor_cell(rng, bss, center, next_id, cfg.stas_per_bss,
                                      inradius_m)
        placements.extend(cell)
    return Topology(placements, _assign_colors(n_bss))
