"""Scenario and scheme configuration: dataclass defaults per scenario table,
INI-file loading with strict key checking, and the scheme feature matrix.

This module is the only place that holds a model parameter's value.  The
rule modules take every value from a ``ScenarioConfig`` or one of its
sections, and hold no default of their own."""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from enum import Enum

from .mu import MAX_AID

INDOOR_SINGLE = "indoor_single"
OUTDOOR_SINGLE = "outdoor_single"
INDOOR_MULTI = "indoor_multi"
OUTDOOR_MULTI = "outdoor_multi"

SCENARIO_KINDS = (INDOOR_SINGLE, OUTDOOR_SINGLE, INDOOR_MULTI, OUTDOOR_MULTI)

UL = "ul"
DL = "dl"


class ConfigError(ValueError):
    pass


class Scheme(str, Enum):
    AC_BASELINE = "ac_baseline"
    AX_OFDMA = "ax_ofdma"
    AX_OFDMA_MUMIMO = "ax_ofdma_mumimo"
    AX_SR = "ax_sr"


@dataclass(frozen=True)
class SchemeFeatures:
    ofdma: bool
    ul_mu_mimo: bool
    spatial_reuse: bool
    max_mcs: int
    ampdu_cap: int


# Feature matrix: 11ac tops out at 256-QAM and 64-MPDU aggregates; the HE
# schemes unlock 1024-QAM and the 256-frame BA window, and their PPDUs carry
# a BSS colour; the SR scheme adds two NAVs and OBSS_PD on top of plain OFDMA.
SCHEME_FEATURES = {
    Scheme.AC_BASELINE: SchemeFeatures(False, False, False, max_mcs=9, ampdu_cap=64),
    Scheme.AX_OFDMA: SchemeFeatures(True, False, False, max_mcs=11, ampdu_cap=256),
    Scheme.AX_OFDMA_MUMIMO: SchemeFeatures(True, True, False, max_mcs=11, ampdu_cap=256),
    Scheme.AX_SR: SchemeFeatures(True, False, True, max_mcs=11, ampdu_cap=256),
}


@dataclass
class RadioSection:
    ap_tx_power_dbm: float = 18.0
    sta_tx_power_dbm: float = 18.0
    ap_antennas: int = 8
    sta_antennas: int = 4
    frequency_ghz: float = 5.57
    noise_figure_db: float = 7.0


@dataclass
class MacSection:
    cw_min: int = 15
    cw_max: int = 1023
    txop_limit_us: int = 3008
    ocw_min: int = 7
    ocw_max: int = 31
    ra_ru_fraction: float = 0.0
    uora_boundary_eligible: bool = True


@dataclass
class PhySection:
    cca_threshold_dbm: float = -82.0
    pathloss_near_exponent: float = 2.0   # indoor dual slope; outdoor overrides
    pathloss_far_exponent: float = 3.5
    pathloss_breakpoint_m: float = 10.0
    shadowing_sigma_db: float = 5.0
    per_threshold_base_db: float = 2.0
    per_threshold_step_db: float = 2.5
    per_slope_db: float = 1.0
    mcs_target_per: float = 0.1
    mu_stream_penalty_db: float = 3.0


@dataclass
class SrSection:
    obss_pd_min_dbm: float = -82.0
    obss_pd_max_dbm: float = -62.0
    txpwr_ref_dbm: float = 21.0


@dataclass
class ScenarioConfig:
    kind: str = INDOOR_SINGLE
    bandwidth_mhz: int = 20
    n_bss: int = 1
    stas_per_bss: int = 64
    per_sta_rate_mbps: float = 13.0
    direction: str = UL
    duration_s: float = 10.0
    warmup_fraction: float = 0.1
    seed: int = 1
    packet_bytes: int = 1500
    room_area_m2: float = 4.0
    cell_inradius_m: float = 65.0
    radio: RadioSection = field(default_factory=RadioSection)
    mac: MacSection = field(default_factory=MacSection)
    phy: PhySection = field(default_factory=PhySection)
    sr: SrSection = field(default_factory=SrSection)

    def validate(self) -> list[str]:
        problems = []
        if self.kind not in SCENARIO_KINDS:
            problems.append(f"unknown scenario kind {self.kind!r}")
        if self.bandwidth_mhz not in (20, 40, 80, 160):
            problems.append(f"bandwidth {self.bandwidth_mhz} MHz unsupported")
        if self.direction not in (UL, DL):
            problems.append(f"direction must be ul or dl, got {self.direction!r}")
        if self.n_bss < 1 or self.stas_per_bss < 1:
            problems.append("need at least one BSS and one STA")
        if self.stas_per_bss > MAX_AID:     # a STA's AID is its position in its BSS
            problems.append(f"at most {MAX_AID} STAs per BSS, the largest AID")
        if not 0 < self.duration_s:
            problems.append("duration must be positive")
        if not 0 <= self.warmup_fraction < 1:
            problems.append("warmup fraction must be in [0, 1)")
        if self.per_sta_rate_mbps < 0:
            problems.append("per-STA rate must be non-negative")
        if self.packet_bytes < 1:
            problems.append("packets must hold at least one byte")
        if self.room_area_m2 <= 0 or self.cell_inradius_m <= 0:
            problems.append("room area and cell inradius must be positive")
        if self.radio.frequency_ghz <= 0:
            problems.append("carrier frequency must be positive")
        if self.radio.ap_antennas < 1 or self.radio.sta_antennas < 1:
            problems.append("every AP and STA needs at least one antenna")
        if self.mac.cw_min < 0 or self.mac.ocw_min < 0:
            problems.append("contention window min must be non-negative")
        if self.mac.cw_min > self.mac.cw_max or self.mac.ocw_min > self.mac.ocw_max:
            problems.append("contention window min above max")
        if not 0 <= self.mac.ra_ru_fraction <= 1:
            problems.append("random-access RU fraction must be in [0, 1]")
        if self.phy.pathloss_breakpoint_m <= 0 or self.phy.per_slope_db <= 0:
            problems.append("path-loss breakpoint and PER slope must be positive")
        if self.sr.obss_pd_min_dbm > self.sr.obss_pd_max_dbm:
            problems.append("OBSS_PD min above max")
        return problems

    @property
    def duration_ns(self) -> int:
        return round(self.duration_s * 1e9)

    @property
    def warmup_ns(self) -> int:
        return round(self.duration_s * self.warmup_fraction * 1e9)


def default_config(kind: str, **overrides) -> ScenarioConfig:
    """Scenario defaults per the four parameter tables: the multi-BSS tables
    change the BSS count, load and antennas, the outdoor ones the path loss
    and the MU-MIMO stream penalty."""
    if kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    cfg = ScenarioConfig(kind=kind)
    if kind in (INDOOR_MULTI, OUTDOOR_MULTI):
        cfg.n_bss = 32 if kind == INDOOR_MULTI else 19
        cfg.per_sta_rate_mbps = 3.0
        cfg.radio.ap_antennas = cfg.radio.sta_antennas = 2
    if kind in (OUTDOOR_SINGLE, OUTDOOR_MULTI):
        cfg.phy.pathloss_near_exponent = cfg.phy.pathloss_far_exponent = 3.0
        cfg.phy.pathloss_breakpoint_m = 1.0
        cfg.phy.shadowing_sigma_db = 8.0
        cfg.phy.mu_stream_penalty_db = 5.5
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown scenario field {key!r}")
        setattr(cfg, key, value)
    return cfg


# Per-bandwidth service-rate sweeps (Mbps per STA); the 80 MHz row of the
# indoor table repeats the 20 MHz label, read here as the 80 MHz sweep.
RATE_SWEEPS_MBPS = {20: (1, 4, 7, 10, 13), 80: (4, 16, 28, 40, 52),
                    160: (8, 32, 56, 80, 104)}
MULTI_BSS_SWEEP_MBPS = (0.05, 0.5, 1.0, 2.0, 3.0)


_SECTION_TYPES = {"radio": RadioSection, "mac": MacSection,
                  "phy": PhySection, "sr": SrSection}


def _coerce(value: str, target_type):
    if target_type is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {value!r}")
    return target_type(value)


def load_config(path: str) -> ScenarioConfig:
    """Read an INI scenario file; unknown sections or keys are rejected."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "scenario" not in parser:
        raise ConfigError("missing [scenario] section")
    kind = parser["scenario"].get("kind", INDOOR_SINGLE)
    cfg = default_config(kind)

    top_fields = {f.name: f for f in dataclasses.fields(ScenarioConfig)
                  if f.name not in _SECTION_TYPES}
    for key, raw in parser["scenario"].items():
        if key == "kind":
            continue
        if key not in top_fields:
            raise ConfigError(f"unknown key {key!r} in [scenario]")
        current = getattr(cfg, key)
        setattr(cfg, key, _coerce(raw, type(current)))

    for section_name, section_type in _SECTION_TYPES.items():
        if section_name not in parser:
            continue
        section = getattr(cfg, section_name)
        known = {f.name for f in dataclasses.fields(section_type)}
        for key, raw in parser[section_name].items():
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section_name}]")
            setattr(section, key, _coerce(raw, type(getattr(section, key))))

    for section_name in parser.sections():
        if section_name not in ("scenario", *_SECTION_TYPES):
            raise ConfigError(f"unknown section [{section_name}]")

    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def scheme_features(scheme: Scheme | str) -> SchemeFeatures:
    return SCHEME_FEATURES[Scheme(scheme)]
