"""Link abstraction: path loss, noise, the MCS table with PER and link
adaptation, PPDU formats as preamble durations, and the MU-MIMO receive
abstraction.  Data rates are the engines' arithmetic: data bits per OFDM
symbol (``BssEngine._link``) over the symbol time (``frames``)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import PhySection

SPEED_OF_LIGHT = 299_792_458.0

# HE numerology: 78.125 kHz spacing, 12.8 us symbol.  Legacy/VHT: 312.5 kHz, 3.2 us.
HE_SYMBOL_US = 12.8
LEGACY_SYMBOL_US = 3.2
LEGACY_GI_US = 0.8

# (bits per modulation symbol, coding rate) per MCS index.  Indices 10-11 are
# 1024-QAM and additionally require an RU of at least 242 tones.
MCS_TABLE: dict[int, tuple[int, Fraction]] = {
    0: (1, Fraction(1, 2)),
    1: (2, Fraction(1, 2)),
    2: (2, Fraction(3, 4)),
    3: (4, Fraction(1, 2)),
    4: (4, Fraction(3, 4)),
    5: (6, Fraction(2, 3)),
    6: (6, Fraction(3, 4)),
    7: (6, Fraction(5, 6)),
    8: (8, Fraction(3, 4)),
    9: (8, Fraction(5, 6)),
    10: (10, Fraction(3, 4)),
    11: (10, Fraction(5, 6)),
}

MIN_RU_TONES_FOR_1024QAM = 242

# PER is a logistic in SINR at a 1500-byte reference length, stretched to a
# frame's length; below PER_FLOOR_MARGIN slope units under an MCS's
# threshold it pins to 1.  The thresholds and the slope are PhySection's.
PER_REF_BITS = 1500 * 8
PER_FLOOR_MARGIN = 2.0

# Distances below this are taken as this, so the log-distance loss stays finite.
MIN_DISTANCE_M = 0.1


class InvalidPhyConfig(ValueError):
    pass


@dataclass(frozen=True)
class Mcs:
    index: int

    def __post_init__(self):
        if self.index not in MCS_TABLE:
            raise InvalidPhyConfig(f"unknown MCS index {self.index}")

    @property
    def bits_per_symbol(self) -> int:
        return MCS_TABLE[self.index][0]

    @property
    def coding_rate(self) -> Fraction:
        return MCS_TABLE[self.index][1]


# PPDU formats as a duration model: a preamble, then whole OFDM symbols of
# the format's numerology.  HE-MU carries the per-user resource map, so its
# preamble is longer than HE-TB's, whose schedule arrived in the trigger
# frame.
@dataclass(frozen=True)
class PpduFormat:
    kind: str
    preamble_us: float
    symbol_us: float        # one OFDM symbol with its guard interval


def vht_ppdu(nss: int) -> PpduFormat:
    """VHT data preamble: legacy part + SIG-A + STF + per-stream LTFs + SIG-B."""
    return PpduFormat("VHT", 20.0 + 8.0 + 4.0 + 4.0 * nss + 4.0,
                      LEGACY_SYMBOL_US + LEGACY_GI_US)

HE_FULL_SYMBOL_US = HE_SYMBOL_US + 0.8     # every HE PPDU uses the 0.8 us GI
HE_MU_PPDU = PpduFormat("HE-MU", 56.0, HE_FULL_SYMBOL_US)
HE_TB_PPDU = PpduFormat("HE-TB", 48.0, HE_FULL_SYMBOL_US)


class PathLossModel:
    """Log-distance loss around a 1 m free-space reference, with lognormal
    shadowing and a dual-slope breakpoint, as the PhySection sets them.

    Below ``breakpoint_m`` the near exponent applies; beyond it the far
    exponent takes over, continuously.  Outdoor uses a single slope.
    """

    def __init__(self, phy: PhySection):
        self.near_exponent = phy.pathloss_near_exponent
        self.far_exponent = phy.pathloss_far_exponent
        self.breakpoint_m = phy.pathloss_breakpoint_m
        self.shadowing_sigma_db = phy.shadowing_sigma_db

    def loss_db(self, distance_m: float | np.ndarray, frequency_ghz: float,
                shadow_db: float | np.ndarray = 0.0) -> float | np.ndarray:
        """Loss in dB at a distance, or element-wise over an array of
        distances (with a shadowing term or an array of them); a scalar
        distance gives a float."""
        d = np.maximum(distance_m, MIN_DISTANCE_M)
        ref = fspl_db(1.0, frequency_ghz)
        near = ref + 10.0 * self.near_exponent * np.log10(d)
        far = ref + 10.0 * self.near_exponent * math.log10(self.breakpoint_m) \
            + 10.0 * self.far_exponent * np.log10(d / self.breakpoint_m)
        loss = np.where(d <= self.breakpoint_m, near, far) + shadow_db
        return float(loss) if loss.ndim == 0 else loss


def fspl_db(distance_m: float, frequency_ghz: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_ghz * 1e9 / SPEED_OF_LIGHT)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float | np.ndarray) -> float | np.ndarray:
    """dBm of a power sum in mW, or of each of an array of them: the one way
    back from a sum.  numpy's log10 gives an element the same value alone as
    in an array of any length, so a scalar and a vector caller agree to the
    bit; math.log10 need not agree with it."""
    return 10.0 * np.log10(mw)


def noise_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


class PerModel:
    """Logistic reference-length PER stretched to frame length by bit-error
    independence, and link adaptation against it, as the PhySection sets
    them: MCS i's threshold (PER 0.5 at the reference length) lies at
    base + step * i dB."""

    def __init__(self, phy: PhySection):
        self.thresholds_db = {i: phy.per_threshold_base_db + phy.per_threshold_step_db * i
                              for i in MCS_TABLE}
        self.slope_db = phy.per_slope_db
        self.target_per = phy.mcs_target_per

    def per_ref(self, effective_sinr: float, mcs: Mcs) -> float:
        x = (effective_sinr - self.thresholds_db[mcs.index]) / self.slope_db
        if x > 500.0:
            return 0.0
        if x < -500.0:
            return 1.0
        return 1.0 / (1.0 + math.exp(x))

    def per(self, effective_sinr: float, mcs: Mcs, frame_bits: int) -> float:
        if frame_bits <= 0:
            raise InvalidPhyConfig("frame_bits must be positive")
        x = (effective_sinr - self.thresholds_db[mcs.index]) / self.slope_db
        if x <= -PER_FLOOR_MARGIN:
            # below the waterfall the bit-error independence assumption breaks;
            # short frames must not length-scale their way into surviving
            return 1.0
        p_ref = self.per_ref(effective_sinr, mcs)
        if p_ref >= 1.0:
            return 1.0
        return 1.0 - (1.0 - p_ref) ** (frame_bits / PER_REF_BITS)

    def select_mcs(self, effective_sinr: float, ru_tones: int, max_index: int) -> Mcs:
        """Highest-index MCS up to `top_mcs(ru_tones, max_index)` with
        reference-length PER at most the target PER; MCS0 floor.

        The scan runs from the top down and returns the first MCS that
        meets the target: the highest that does, whether or not the
        thresholds rise with the index.  The floor MCS0 may exceed the PER
        target on a degraded link; that is a degraded link, not an error.
        """
        target_per = self.target_per
        for index in range(top_mcs(ru_tones, max_index).index, 0, -1):
            candidate = MCS_CANDIDATES[index]
            if self.per_ref(effective_sinr, candidate) <= target_per:
                return candidate
        return MCS_CANDIDATES[0]


# select_mcs's candidates by index, built once: Mcs is frozen, so they are
# shared.
MCS_CANDIDATES = tuple(Mcs(i) for i in sorted(MCS_TABLE))


def top_mcs(ru_tones: int, max_index: int) -> Mcs:
    """The highest MCS link adaptation may pick on an RU of ru_tones (0: a
    whole VHT channel) under max_index: 1024-QAM (MCS 10/11) needs an RU of
    at least 242 tones; max_index below 0 leaves MCS0."""
    top = min(max_index, len(MCS_CANDIDATES) - 1)
    if ru_tones < MIN_RU_TONES_FOR_1024QAM:
        top = min(top, 9)
    return MCS_CANDIDATES[max(top, 0)]


# MU-MIMO receive abstraction: the receiver's array gives 10*log10(rx_ant /
# streams) of combining headroom, and streams sharing an RU pay a fixed
# separation penalty (PhySection.mu_stream_penalty_db).  This recreates
# "MU-MIMO underperforms in poor channels" without waveform simulation.


def array_gain_db(rx_antennas: int, total_streams: int) -> float:
    if total_streams < 1 or rx_antennas < 1:
        raise InvalidPhyConfig("antennas and streams must be positive")
    return 10.0 * math.log10(rx_antennas / min(total_streams, rx_antennas))


def mu_mimo_sinr_adjustment_db(rx_antennas: int, total_streams: int, shared: bool,
                               penalty_db: float) -> float:
    adj = array_gain_db(rx_antennas, total_streams)
    if shared:
        adj -= penalty_db
    return adj
