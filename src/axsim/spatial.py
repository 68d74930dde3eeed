"""BSS color classification, dual-NAV virtual carrier sensing, OBSS_PD CCA, SRP gating."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phy import CCA_THRESHOLD_DBM

INTRA_BSS = "intra_bss"
INTER_BSS = "inter_bss"
UNKNOWN = "unknown"

COLOR_MIN, COLOR_MAX = 1, 63


class SpatialReuseError(ValueError):
    pass


@dataclass(frozen=True)
class BssColor:
    value: int
    disabled: bool = False

    def __post_init__(self):
        if not COLOR_MIN <= self.value <= COLOR_MAX:
            raise SpatialReuseError(f"BSS color {self.value} out of [1, 63]")


@dataclass(frozen=True)
class FrameSight:
    """What a receiver could read out of a (sufficiently) decoded frame."""

    color: int | None = None
    ra: int | None = None
    ta: int | None = None
    bssid: int | None = None
    partial_aid: int | None = None
    group_id: int | None = None
    is_mu_ppdu: bool = False
    is_control_without_ta: bool = False
    duration_ns: int = 0
    is_cf_end: bool = False
    srp_allowed: bool = False
    srp_value_dbm: float | None = None


def classify_frame(frame: FrameSight, my_bssid: int, my_color: int | None,
                   i_am_ap: bool = False, txop_holder: int | None = None,
                   multiple_bssid_set: frozenset[int] = frozenset(),
                   partial_bss_color: int | None = None) -> str:
    """Intra/inter/unknown decision, applying the determination rows in order."""
    members = multiple_bssid_set | {my_bssid}

    if frame.color is not None and my_color is not None:
        if frame.color == my_color:
            return INTRA_BSS
        if frame.color != 0:
            return INTER_BSS

    addresses = [a for a in (frame.ra, frame.ta, frame.bssid) if a is not None]
    if addresses:
        if any(a in members for a in addresses):
            return INTRA_BSS
        if frame.bssid is not None and frame.bssid not in members:
            return INTER_BSS
        if len(addresses) >= 2 and not any(a in members for a in addresses):
            return INTER_BSS

    if frame.partial_aid is not None and frame.group_id == 0:
        # partial AID mirrors BSSID[39:47] for group 0
        return INTRA_BSS if frame.partial_aid == (my_bssid & 0x1FF) else INTER_BSS
    if frame.partial_aid is not None and frame.group_id == 63 and partial_bss_color is not None:
        return INTRA_BSS if frame.partial_aid == partial_bss_color else INTER_BSS

    # TXOP-holder row grants only intra; its inter-BSS cell is empty.
    if frame.is_control_without_ta and txop_holder is not None and frame.ra == txop_holder:
        return INTRA_BSS

    if i_am_ap and frame.is_mu_ppdu:
        return INTER_BSS

    return UNKNOWN


# --- colour conflict detection and change ------------------------------------------

@dataclass
class ColorConflictReport:
    reporter: int
    observed_colors: frozenset[int]


def color_conflict_watch(observed_colors: frozenset[int] | set[int], my_color: int,
                         reporter: int) -> ColorConflictReport | None:
    """A STA seeing a foreign BSS wearing its own colour reports everything it saw."""
    if my_color in observed_colors:
        return ColorConflictReport(reporter, frozenset(observed_colors))
    return None


def pick_new_color(observed_colors: frozenset[int] | set[int]) -> int:
    for value in range(COLOR_MIN, COLOR_MAX + 1):
        if value not in observed_colors:
            return value
    raise SpatialReuseError("all 63 colours observed; no conflict-free colour")


@dataclass(frozen=True)
class BeaconColorFields:
    color: int
    disabled: bool
    new_color: int | None
    countdown: int


@dataclass
class ColorChangeState:
    current: BssColor
    pending_new: BssColor
    n_color_change: int
    _remaining: int = field(init=False)

    def __post_init__(self):
        self._remaining = self.n_color_change

    @property
    def done(self) -> bool:
        return self.current.value == self.pending_new.value and not self.current.disabled

    def advance(self) -> BeaconColorFields:
        """Fields for the next announcement; the new colour never changes mid-process."""
        if self._remaining > 0:
            fields = BeaconColorFields(self.current.value, True,
                                       self.pending_new.value, self._remaining)
            self._remaining -= 1
            return fields
        self.current = BssColor(self.pending_new.value)
        return BeaconColorFields(self.current.value, False, None, 0)


def sta_adopt_color(fields: BeaconColorFields, previous: int | None) -> int | None:
    """A STA needs only the final announcement (Disabled=0) to switch."""
    if not fields.disabled:
        return fields.color
    return previous


# --- two NAVs ------------------------------------------------------------------------

@dataclass
class TwoNav:
    intra_expiry_ns: int = 0
    basic_expiry_ns: int = 0

    def update(self, frame_class: str, now_ns: int, duration_ns: int,
               is_cf_end: bool = False) -> None:
        if frame_class == INTRA_BSS:
            if is_cf_end:
                self.intra_expiry_ns = 0  # CF-End cancels the intra-BSS NAV only
                return
            self.intra_expiry_ns = max(self.intra_expiry_ns, now_ns + duration_ns)
        else:  # inter-BSS and unknown both load the basic NAV
            self.basic_expiry_ns = max(self.basic_expiry_ns, now_ns + duration_ns)

    def idle(self, now_ns: int, scheduled_in_intra_tf: bool = False) -> bool:
        """Virtual CS is idle iff both NAVs expired; a STA scheduled by an
        intra-BSS trigger frame may ignore its intra-BSS NAV."""
        basic_clear = self.basic_expiry_ns <= now_ns
        intra_clear = self.intra_expiry_ns <= now_ns or scheduled_in_intra_tf
        return basic_clear and intra_clear


# --- OBSS_PD ---------------------------------------------------------------------------

@dataclass
class ObssPdConfig:
    level_min_dbm: float = -82.0
    level_max_dbm: float = -62.0
    txpwr_ref_dbm: float = 21.0

    def __post_init__(self):
        if self.level_min_dbm > self.level_max_dbm:
            raise SpatialReuseError("OBSS_PD min above max")


def obss_pd_level(txpwr_dbm: float, cfg: ObssPdConfig = ObssPdConfig()) -> float:
    return max(cfg.level_min_dbm,
               min(cfg.level_max_dbm,
                   cfg.level_min_dbm + (cfg.txpwr_ref_dbm - txpwr_dbm)))


def max_sr_tx_power(rx_power_dbm: float, cfg: ObssPdConfig = ObssPdConfig()) -> float | None:
    """Largest transmit power whose OBSS_PD level still exceeds the sensed frame."""
    if rx_power_dbm >= cfg.level_max_dbm:
        return None
    return cfg.txpwr_ref_dbm + cfg.level_min_dbm - rx_power_dbm


def max_sr_tx_power_row(rx_power_dbm: np.ndarray,
                        cfg: ObssPdConfig = ObssPdConfig()) -> np.ndarray:
    """max_sr_tx_power element-wise over an array of sensed levels, with NaN
    where it is None."""
    return np.where(rx_power_dbm >= cfg.level_max_dbm, np.nan,
                    cfg.txpwr_ref_dbm + cfg.level_min_dbm - rx_power_dbm)


DEFER = "defer"
CONTEND_NORMALLY = "contend_normally"
CONTEND_SR = "contend_sr"


@dataclass(frozen=True)
class SrDecision:
    action: str
    txpwr_cap_dbm: float | None = None


def sr_decision(frame_class: str, rx_power: float, nav_idle: bool,
                candidate_txpwr_dbm: float, cfg: ObssPdConfig = ObssPdConfig(),
                cca_dbm: float = CCA_THRESHOLD_DBM) -> SrDecision:
    """Five-step decision for a frame not addressed to this STA."""
    if not nav_idle:
        return SrDecision(DEFER)
    if rx_power < cca_dbm:
        return SrDecision(CONTEND_NORMALLY)
    if frame_class in (INTRA_BSS, UNKNOWN):
        return SrDecision(DEFER)
    if rx_power < obss_pd_level(candidate_txpwr_dbm, cfg):
        return SrDecision(CONTEND_SR, candidate_txpwr_dbm)
    return SrDecision(DEFER)


# --- SRP -------------------------------------------------------------------------------

SRP_BLOCKED = "blocked"


@dataclass(frozen=True)
class SrpOpportunity:
    deadline_ns: int       # any SRP transmission must end by the current PPDU's end
    txpwr_cap_dbm: float


def srp_gate(srp_allowed: bool, srp_value_dbm: float | None, rpl_dbm: float,
             intended_txpwr_dbm: float, ppdu_end_ns: int) -> SrpOpportunity | str:
    """Opportunity iff the inter-BSS TF allows SRP and power fits under value - RPL."""
    if not srp_allowed or srp_value_dbm is None:
        return SRP_BLOCKED
    cap = srp_value_dbm - rpl_dbm
    if intended_txpwr_dbm > cap:
        return SRP_BLOCKED
    return SrpOpportunity(ppdu_end_ns, cap)
