"""BSS color classification, dual-NAV virtual carrier sensing, OBSS_PD CCA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTRA_BSS = "intra_bss"
INTER_BSS = "inter_bss"
UNKNOWN = "unknown"


class SpatialReuseError(ValueError):
    pass


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

