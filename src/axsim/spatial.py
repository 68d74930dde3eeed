"""BSS colour classification, the two NAVs of virtual carrier sense, and the
OBSS_PD level and spatial-reuse power cap."""

from __future__ import annotations

import numpy as np

from .config import SrSection

INTRA_BSS = "intra_bss"
INTER_BSS = "inter_bss"


def intra_bss(frame_color: int, colors: int | np.ndarray) -> bool | np.ndarray:
    """Whether a frame of frame_color is intra-BSS at a node of colour
    colors, or element-wise over an array of colours.  The engines' frames
    always carry a colour of 1..63, so the colour decides every frame."""
    return colors == frame_color


def classify_frame(frame_color: int, my_color: int) -> str:
    """INTRA_BSS or INTER_BSS, as a node of my_color classifies a frame."""
    return INTRA_BSS if intra_bss(frame_color, my_color) else INTER_BSS


# --- two NAVs ------------------------------------------------------------------------

class TwoNav:
    """The intra-BSS and basic NAV expiry of every node, indexed by node id."""

    def __init__(self, n_nodes: int):
        self.intra_expiry_ns = np.zeros(n_nodes, dtype=np.int64)
        self.basic_expiry_ns = np.zeros(n_nodes, dtype=np.int64)

    def update(self, nodes: np.ndarray, intra_mask: np.ndarray, now_ns: int,
               duration_ns: int, *, is_cf_end: bool) -> None:
        """A frame of duration_ns heard at nodes, intra-BSS where intra_mask
        holds: intra-BSS frames load the intra-BSS NAV and inter-BSS frames
        the basic NAV, each keeping the later expiry."""
        expiry = now_ns + duration_ns
        self.load_intra(nodes[intra_mask], expiry, is_cf_end=is_cf_end)
        inter = nodes[~intra_mask]
        self.basic_expiry_ns[inter] = np.maximum(self.basic_expiry_ns[inter], expiry)

    def load_intra(self, nodes: np.ndarray, expiry_ns: int, *, is_cf_end: bool) -> None:
        """An intra-BSS frame heard at nodes loads their intra-BSS NAV up to
        expiry_ns, keeping the later expiry; a CF-End cancels it instead."""
        if is_cf_end:
            self.intra_expiry_ns[nodes] = 0     # CF-End cancels the intra-BSS NAV only
        else:
            self.intra_expiry_ns[nodes] = np.maximum(self.intra_expiry_ns[nodes], expiry_ns)

    def idle(self, node: int, now_ns: int, scheduled_in_intra_tf: bool = False) -> bool:
        """Virtual CS at node is idle iff both NAVs expired; a STA scheduled
        by an intra-BSS trigger frame may ignore its intra-BSS NAV."""
        basic_clear = self.basic_expiry_ns.item(node) <= now_ns
        intra_clear = self.intra_expiry_ns.item(node) <= now_ns or scheduled_in_intra_tf
        return basic_clear and intra_clear


# --- OBSS_PD ---------------------------------------------------------------------------

def obss_pd_level(txpwr_dbm: float, sr: SrSection) -> float:
    return max(sr.obss_pd_min_dbm,
               min(sr.obss_pd_max_dbm,
                   sr.obss_pd_min_dbm + (sr.txpwr_ref_dbm - txpwr_dbm)))


def max_sr_tx_power(rx_power_dbm: float, sr: SrSection) -> float | None:
    """Largest transmit power whose OBSS_PD level still exceeds the sensed frame."""
    if rx_power_dbm >= sr.obss_pd_max_dbm:
        return None
    return sr.txpwr_ref_dbm + sr.obss_pd_min_dbm - rx_power_dbm


def max_sr_tx_power_row(rx_power_dbm: np.ndarray, sr: SrSection) -> np.ndarray:
    """max_sr_tx_power element-wise over an array of sensed levels, with NaN
    where it is None."""
    return np.where(rx_power_dbm >= sr.obss_pd_max_dbm, np.nan,
                    sr.txpwr_ref_dbm + sr.obss_pd_min_dbm - rx_power_dbm)
