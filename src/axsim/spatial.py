"""BSS colour classification, the two NAVs of virtual carrier sense, and the
OBSS_PD level and spatial-reuse power cap."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTRA_BSS = "intra_bss"
INTER_BSS = "inter_bss"


class SpatialReuseError(ValueError):
    pass


def classify_frame(frame_color: int, my_color: int) -> str:
    """Intra- or inter-BSS by BSS colour.  The engines' frames always carry
    a colour of 1..63, so the colour decides every frame."""
    return INTRA_BSS if frame_color == my_color else INTER_BSS


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
        else:  # inter-BSS frames load the basic NAV
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

