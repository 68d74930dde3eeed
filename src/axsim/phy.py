"""Link abstraction: path loss, noise, the MCS table, PER and PPDU formats,
plus HE/VHT rate arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# HE numerology: 78.125 kHz spacing, 12.8 us symbol.  Legacy/VHT: 312.5 kHz, 3.2 us.
HE_SYMBOL_US = 12.8
LEGACY_SYMBOL_US = 3.2
HE_GI_CHOICES = (0.8, 1.6, 3.2)
LEGACY_GI_US = 0.8

NOISE_FIGURE_DB = 7.0

DCM_ALLOWED_INDICES = frozenset({0, 1, 3, 4})
DCM_MAX_NSS = 2
DEFAULT_DCM_GAIN_DB = 3.5  # stated for MCS0; applied to all allowed indices by default

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

# Per-MCS SINR thresholds (dB) where PER at the 1500-byte reference length is
# 0.5; spaced 2.5 dB from 2 dB, logistic slope 1 dB.  Acceptance checks use
# throughput ratios, so only monotonicity and spacing matter.
PER_REF_BYTES = 1500
PER_SLOPE_DB = 1.0
MCS_SINR_THRESHOLD_DB = {i: 2.0 + 2.5 * i for i in MCS_TABLE}


class InvalidPhyConfig(ValueError):
    pass


@dataclass(frozen=True)
class Mcs:
    index: int
    dcm: bool = False

    def __post_init__(self):
        if self.index not in MCS_TABLE:
            raise InvalidPhyConfig(f"unknown MCS index {self.index}")
        if self.dcm and self.index not in DCM_ALLOWED_INDICES:
            raise InvalidPhyConfig(f"DCM not allowed for MCS {self.index}")

    @property
    def bits_per_symbol(self) -> int:
        return MCS_TABLE[self.index][0]

    @property
    def coding_rate(self) -> Fraction:
        return MCS_TABLE[self.index][1]


@dataclass(frozen=True)
class OfdmNumerology:
    subcarrier_spacing_hz: float
    symbol_duration_us: float

    def __post_init__(self):
        if abs(self.subcarrier_spacing_hz * self.symbol_duration_us * 1e-6 - 1.0) > 1e-9:
            raise InvalidPhyConfig("spacing * symbol duration must equal 1")


HE_NUMEROLOGY = OfdmNumerology(78_125.0, HE_SYMBOL_US)
LEGACY_NUMEROLOGY = OfdmNumerology(312_500.0, LEGACY_SYMBOL_US)


# PPDU formats as a duration model.  HE-MU carries the per-user resource map,
# so its preamble is longer than HE-TB's, whose schedule arrived in the
# trigger frame.
@dataclass(frozen=True)
class PpduFormat:
    kind: str
    preamble_us: float


LEGACY_PPDU = PpduFormat("legacy", 20.0)


def vht_ppdu(nss: int) -> PpduFormat:
    """VHT data preamble: legacy part + SIG-A + STF + per-stream LTFs + SIG-B."""
    return PpduFormat("VHT", 20.0 + 8.0 + 4.0 + 4.0 * nss + 4.0)

HE_MU_PPDU = PpduFormat("HE-MU", 56.0)
HE_TB_PPDU = PpduFormat("HE-TB", 48.0)


@dataclass
class PathLossModel:
    """Log-distance loss around a 1 m free-space reference, with optional
    lognormal shadowing and an indoor dual-slope breakpoint.

    Below ``breakpoint_m`` the near exponent applies; beyond it the far
    exponent takes over, continuously.  Outdoor uses a single slope.
    """

    near_exponent: float = 2.0
    far_exponent: float = 3.5
    breakpoint_m: float = 10.0
    shadowing_sigma_db: float = 0.0
    min_distance_m: float = 0.1

    @classmethod
    def indoor(cls, sigma_db: float = 0.0) -> "PathLossModel":
        return cls(2.0, 3.5, 10.0, sigma_db)

    @classmethod
    def outdoor(cls, sigma_db: float = 0.0) -> "PathLossModel":
        return cls(3.0, 3.0, 1.0, sigma_db)

    def loss_db(self, distance_m: float | np.ndarray, frequency_ghz: float,
                shadow_db: float | np.ndarray = 0.0) -> float | np.ndarray:
        """Loss in dB at a distance, or element-wise over an array of
        distances (with a shadowing term or an array of them); a scalar
        distance gives a float."""
        d = np.maximum(distance_m, self.min_distance_m)
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


def mw_to_dbm(mw: float) -> float:
    if mw <= 0.0:
        return -math.inf
    return 10.0 * math.log10(mw)


def sinr_db(signal_dbm: float, interferers_dbm: list[float], noise_dbm: float) -> float:
    denom_mw = dbm_to_mw(noise_dbm) + sum(dbm_to_mw(p) for p in interferers_dbm)
    return signal_dbm - mw_to_dbm(denom_mw)


def noise_dbm(bandwidth_hz: float, noise_figure_db: float = NOISE_FIGURE_DB) -> float:
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def he_rate(mcs: Mcs, data_subcarriers: int, nss: int, gi_us: float = 0.8) -> float:
    """HE data rate in bits/s over all spatial streams."""
    if not 1 <= nss <= 8:
        raise InvalidPhyConfig(f"nss {nss} out of [1, 8]")
    if gi_us not in HE_GI_CHOICES:
        raise InvalidPhyConfig(f"GI {gi_us} not one of {HE_GI_CHOICES}")
    if mcs.dcm and nss > DCM_MAX_NSS:
        raise InvalidPhyConfig("DCM limited to 2 spatial streams")
    rate = data_subcarriers * mcs.bits_per_symbol * float(mcs.coding_rate) * nss
    rate /= (HE_SYMBOL_US + gi_us) * 1e-6
    if mcs.dcm:
        rate /= 2.0  # the same information rides both subcarriers of each pair
    return rate


def legacy_rate(mcs: Mcs, data_subcarriers: int, nss: int = 1) -> float:
    """Legacy/VHT data rate in bits/s (3.2 us symbol + 0.8 us GI)."""
    rate = data_subcarriers * mcs.bits_per_symbol * float(mcs.coding_rate) * nss
    return rate / ((LEGACY_SYMBOL_US + LEGACY_GI_US) * 1e-6)


def spectral_efficiency(gi_us: float, numerology: OfdmNumerology = HE_NUMEROLOGY) -> float:
    if numerology is LEGACY_NUMEROLOGY and gi_us != LEGACY_GI_US:
        raise InvalidPhyConfig("legacy numerology only supports 0.8 us GI")
    if numerology is HE_NUMEROLOGY and gi_us not in HE_GI_CHOICES:
        raise InvalidPhyConfig(f"GI {gi_us} invalid for HE")
    return numerology.symbol_duration_us / (numerology.symbol_duration_us + gi_us)


def dcm_rotation(k: int, n_sd: int) -> int:
    """Rotation factor e^{j(k + n_sd/2)pi} applied to the paired subcarrier: +1 or -1."""
    if n_sd % 2 != 0:
        raise InvalidPhyConfig(f"DCM needs an even subcarrier count, got {n_sd}")
    if not 0 <= k < n_sd // 2:
        raise InvalidPhyConfig(f"subcarrier index {k} out of [0, {n_sd // 2})")
    return 1 if (k + n_sd // 2) % 2 == 0 else -1


@dataclass
class PerModel:
    """Logistic reference-length PER stretched to frame length by bit-error independence."""

    thresholds_db: dict[int, float] = field(default_factory=lambda: dict(MCS_SINR_THRESHOLD_DB))
    slope_db: float = PER_SLOPE_DB
    ref_bits: int = PER_REF_BYTES * 8
    floor_margin: float = 2.0       # slope units below threshold where PER pins to 1
    dcm_gain_db: dict[int, float] = field(
        default_factory=lambda: {i: DEFAULT_DCM_GAIN_DB for i in DCM_ALLOWED_INDICES})

    def effective_sinr(self, sinr: float, mcs: Mcs) -> float:
        if mcs.dcm:
            return sinr + self.dcm_gain_db[mcs.index]
        return sinr

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
        if x <= -self.floor_margin:
            # below the waterfall the bit-error independence assumption breaks;
            # short frames must not length-scale their way into surviving
            return 1.0
        p_ref = self.per_ref(effective_sinr, mcs)
        if p_ref >= 1.0:
            return 1.0
        return 1.0 - (1.0 - p_ref) ** (frame_bits / self.ref_bits)

    def select_mcs(self, effective_sinr: float, ru_tones: int,
                   target_per: float = 0.1, max_index: int = 11,
                   dcm: bool = False) -> Mcs:
        """Highest-index MCS with reference-length PER <= target; MCS0 floor.

        1024-QAM (MCS 10/11) is only eligible on RUs of >= 242 tones.  The
        floor MCS0 may exceed the PER target on a degraded link; that is a
        degraded link, not an error.
        """
        candidates = MCS_CANDIDATES[dcm]
        best = candidates[0]
        for candidate in candidates:
            index = candidate.index
            if index > max_index:
                break
            if index >= 10 and ru_tones < MIN_RU_TONES_FOR_1024QAM:
                continue
            if self.per_ref(self.effective_sinr(effective_sinr, candidate), candidate) <= target_per:
                best = candidate
        return best


# select_mcs's candidates in ascending index, per DCM setting (DCM only
# where an index allows it), built once: Mcs is frozen, so they are shared.
MCS_CANDIDATES = {dcm: tuple(Mcs(i, dcm=dcm and i in DCM_ALLOWED_INDICES)
                             for i in sorted(MCS_TABLE))
                  for dcm in (False, True)}

# MU-MIMO receive abstraction: the receiver's array gives 10*log10(rx_ant /
# streams) of combining headroom, and streams sharing an RU pay a fixed
# separation penalty.  This recreates "MU-MIMO underperforms in poor channels"
# without waveform simulation.
MU_MIMO_STREAM_PENALTY_DB = 3.0


def array_gain_db(rx_antennas: int, total_streams: int) -> float:
    if total_streams < 1 or rx_antennas < 1:
        raise InvalidPhyConfig("antennas and streams must be positive")
    return 10.0 * math.log10(rx_antennas / min(total_streams, rx_antennas))


def mu_mimo_sinr_adjustment_db(rx_antennas: int, total_streams: int, shared: bool,
                               penalty_db: float = MU_MIMO_STREAM_PENALTY_DB) -> float:
    adj = array_gain_db(rx_antennas, total_streams)
    if shared:
        adj -= penalty_db
    return adj
