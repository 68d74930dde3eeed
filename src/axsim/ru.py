"""Resource-unit taxonomy: per-bandwidth layouts, preamble puncturing, MU-MIMO admissibility."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

RU_TONE_SIZES = (26, 52, 106, 242, 484, 996, 1992)

# Data subcarriers per RU.  242 (234 data + 8 pilot) is the anchored value;
# 1960 back-solves from the 9607.8 Mbps peak rate; the rest follow the same
# data/pilot convention and are overridable from the scenario config.
DATA_SUBCARRIERS = {26: 24, 52: 48, 106: 102, 242: 234, 484: 468, 996: 980, 1992: 1960}

# Narrowest channel a tone size fits in.
MIN_BANDWIDTH_MHZ = {26: 20, 52: 20, 106: 20, 242: 20, 484: 40, 996: 80, 1992: 160}

# How many 20 MHz subchannels an RU spans.
SPAN_20MHZ = {26: 1, 52: 1, 106: 1, 242: 1, 484: 2, 996: 4, 1992: 8}

TONE_BUDGET_PER_20MHZ = 242

VALID_BANDWIDTHS_MHZ = (20, 40, 80, 160)

# Recursive split table; a 242-tone block splits into two 106s around a
# center 26, matching the canonical 20 MHz division modes down to 9 x 26.
SPLIT = {1992: (996, 996), 996: (484, 484), 484: (242, 242),
         242: (106, 106, 26), 106: (52, 52), 52: (26, 26)}


class RuPlanError(ValueError):
    pass


@dataclass(frozen=True)
class RuAssignment:
    tones: int
    position: int  # first 20 MHz subchannel the RU occupies

    def __post_init__(self):
        if self.tones not in RU_TONE_SIZES:
            raise RuPlanError(f"unknown RU tone size {self.tones}")

    @property
    def subchannels(self) -> frozenset[int]:
        return frozenset(range(self.position, self.position + SPAN_20MHZ[self.tones]))


@dataclass(frozen=True)
class RuLayout:
    bandwidth_mhz: int
    rus: tuple[RuAssignment, ...]
    punctured_20mhz: frozenset[int] = frozenset()

    @classmethod
    def of(cls, bandwidth_mhz: int, tone_sizes, punctured=()) -> "RuLayout":
        """Place tone sizes left-to-right, packing small RUs into subchannels."""
        rus = []
        position = 0
        used_in_position = 0
        for tones in tone_sizes:
            span = SPAN_20MHZ[tones]
            if span > 1 or used_in_position + tones > TONE_BUDGET_PER_20MHZ:
                if used_in_position:
                    position += 1
                    used_in_position = 0
            rus.append(RuAssignment(tones, position))
            if span > 1:
                position += span
            else:
                used_in_position += tones
                if used_in_position >= TONE_BUDGET_PER_20MHZ:
                    position += 1
                    used_in_position = 0
        return cls(bandwidth_mhz, tuple(rus), frozenset(punctured))

    @property
    def tone_sizes(self) -> tuple[int, ...]:
        return tuple(ru.tones for ru in self.rus)

    def n_subchannels(self) -> int:
        return self.bandwidth_mhz // 20


def data_subcarriers(tones: int) -> int:
    if tones not in DATA_SUBCARRIERS:
        raise RuPlanError(f"unknown RU tone size {tones}")
    return DATA_SUBCARRIERS[tones]


def validate_layout(layout: RuLayout) -> list[str]:
    """Structured violations; an empty list means the layout is valid."""
    violations = []
    if layout.bandwidth_mhz not in VALID_BANDWIDTHS_MHZ:
        violations.append(f"bandwidth {layout.bandwidth_mhz} MHz not in {VALID_BANDWIDTHS_MHZ}")
        return violations
    n_sub = layout.n_subchannels()
    per_sub_tones: dict[int, int] = {}
    per_sub_exclusive: dict[int, RuAssignment] = {}
    for ru in layout.rus:
        if MIN_BANDWIDTH_MHZ[ru.tones] > layout.bandwidth_mhz:
            violations.append(
                f"{ru.tones}-tone RU requires >={MIN_BANDWIDTH_MHZ[ru.tones]} MHz")
            continue
        for sub in ru.subchannels:
            if sub >= n_sub:
                violations.append(f"RU at subchannel {sub} beyond {layout.bandwidth_mhz} MHz")
            if sub in layout.punctured_20mhz:
                violations.append(f"{ru.tones}-tone RU placed in punctured subchannel {sub}")
            if sub in per_sub_exclusive:
                violations.append(
                    f"subchannel {sub} shared with a {per_sub_exclusive[sub].tones}-tone RU")
            if SPAN_20MHZ[ru.tones] > 1 or ru.tones == 242:
                if per_sub_tones.get(sub):
                    violations.append(f"subchannel {sub} already occupied")
                per_sub_exclusive[sub] = ru
            per_sub_tones[sub] = per_sub_tones.get(sub, 0) + (
                ru.tones if SPAN_20MHZ[ru.tones] == 1 else TONE_BUDGET_PER_20MHZ)
    for sub, total in per_sub_tones.items():
        if total > TONE_BUDGET_PER_20MHZ:
            violations.append(
                f"subchannel {sub} holds {total} tones, budget {TONE_BUDGET_PER_20MHZ}")
    return violations


@lru_cache(maxsize=None)
def _placed_expansions(tones: int, position: int) -> tuple[tuple[RuAssignment, ...], ...]:
    """All divisions of one RU into positioned assignments (multiset-deduped)."""
    results: dict[tuple[int, ...], tuple[RuAssignment, ...]] = {
        (tones,): (RuAssignment(tones, position),)}
    if tones in SPLIT:
        children = SPLIT[tones]
        offsets = []
        offset = 0
        for child in children:
            offsets.append(offset)
            if SPAN_20MHZ[tones] > 1:  # children sit side by side in subchannels
                offset += SPAN_20MHZ[child]
        partial: list[tuple[RuAssignment, ...]] = [()]
        for child, child_offset in zip(children, offsets):
            partial = [p + e
                       for p in partial
                       for e in _placed_expansions(child, position + child_offset)]
        for seq in partial:
            key = tuple(sorted(a.tones for a in seq))
            results.setdefault(key, seq)
    return tuple(results[key] for key in sorted(results))


def _uniform_modes(tones: int) -> list[tuple[int, ...]]:
    modes = [(tones,)]
    frontier = (tones,)
    while any(t in SPLIT for t in frontier):
        nxt: list[int] = []
        for t in frontier:
            nxt.extend(SPLIT.get(t, (t,)))
        frontier = tuple(nxt)
        modes.append(frontier)
    return modes


@lru_cache(maxsize=None)
def layout_catalog(bandwidth_mhz: int) -> tuple[RuLayout, ...]:
    """Canonical valid layouts per bandwidth, generated from the split table.

    20/40 MHz enumerate every multiset-distinct division; wider bands keep the
    uniform division modes (full enumeration explodes combinatorially and the
    scheduler only needs representative layouts).
    """
    if bandwidth_mhz not in VALID_BANDWIDTHS_MHZ:
        raise RuPlanError(f"bandwidth {bandwidth_mhz} MHz not in {VALID_BANDWIDTHS_MHZ}")
    root = {20: 242, 40: 484, 80: 996, 160: 1992}[bandwidth_mhz]
    if bandwidth_mhz <= 40:
        assignments = _placed_expansions(root, 0)
    else:
        assignments = tuple(
            RuLayout.of(bandwidth_mhz, mode).rus for mode in _uniform_modes(root))
    layouts = []
    for rus in assignments:
        layout = RuLayout(bandwidth_mhz, tuple(rus))
        assert not validate_layout(layout), (layout.tone_sizes, validate_layout(layout))
        layouts.append(layout)
    return tuple(layouts)


def dump_catalog(bandwidths=VALID_BANDWIDTHS_MHZ) -> str:
    """One layout per line: `BW: tone,tone,...` for golden-file tests."""
    lines = []
    for bw in bandwidths:
        for layout in layout_catalog(bw):
            lines.append(f"{bw}: " + ",".join(str(t) for t in layout.tone_sizes))
    return "\n".join(lines) + "\n"


# --- preamble puncturing ------------------------------------------------------
#
# 20 MHz subchannel indices: 0 = primary 20, 1 = secondary 20, {2,3} =
# secondary 40, {4..7} = secondary 80.  Modes 0-3 are the contiguous legacy
# bandwidths; modes 4-7 puncture as described for the HE MU bandwidth field.
# Mode 7 covers three sub-cases that are only shown in a figure; the catalog
# encodes three placeholder variants (marked figure-derived).

@dataclass(frozen=True)
class PunctureMode:
    mode: int

    def __post_init__(self):
        if not 0 <= self.mode <= 7:
            raise RuPlanError(f"puncture mode {self.mode} out of 0..7")


_ALL_160 = frozenset(range(8))

PUNCTURE_CANDIDATES: dict[int, tuple[frozenset[int], ...]] = {
    0: (frozenset({0}),),
    1: (frozenset({0, 1}),),
    2: (frozenset({0, 1, 2, 3}),),
    3: (_ALL_160,),
    # 80 MHz, secondary 20 punctured
    4: (frozenset({0, 2, 3}),),
    # 80 MHz, one 20 of the secondary 40 punctured
    5: (frozenset({0, 1, 3}), frozenset({0, 1, 2})),
    # 160 MHz, secondary 20 of the primary 80 punctured
    6: (_ALL_160 - {1},),
    # 160 MHz, primary 40 idle; three figure-derived sub-cases
    7: (_ALL_160 - {2, 3}, _ALL_160 - {2}, _ALL_160 - {3}),
}


class NoFitError(RuPlanError):
    pass


def resolve_puncture(mode: PunctureMode, busy_20mhz: frozenset[int] | set[int]) -> frozenset[int]:
    """Usable 20 MHz subchannel set for the mode given currently busy ones."""
    busy = frozenset(busy_20mhz)
    if 0 in busy:
        raise NoFitError("primary 20 MHz must be idle at resolution time")
    for candidate in PUNCTURE_CANDIDATES[mode.mode]:
        if not candidate & busy:
            return candidate
    raise NoFitError(f"busy set {sorted(busy)} incompatible with mode {mode.mode}")


def mu_mimo_admissible(ru_tones: int, n_users: int) -> bool:
    """MU-MIMO only on RUs of >= 106 tones, at most eight simultaneous STAs."""
    if n_users < 1:
        raise RuPlanError("n_users must be >= 1")
    return ru_tones >= 106 and n_users <= 8
