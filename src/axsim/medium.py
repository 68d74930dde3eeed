"""Shared radio medium: active-transmission bookkeeping, per-RU interference,
carrier-sense queries, and decode SINR evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import phy
from .core import Simulator
from .ru import RuAssignment

SUBCHANNEL_HZ = 20e6


@dataclass
class RuPart:
    """One resource unit inside a PPDU: who it serves and at what power."""

    ru_index: int
    assignment: RuAssignment        # tones and the 20 MHz subchannels covered
    power_dbm: float                # transmit power on this RU
    users: tuple[int, ...] = ()

    @property
    def bandwidth_hz(self) -> float:
        return self.assignment.tones * 78_125.0


@dataclass
class Transmission:
    tx_id: int
    tx_node: int
    bss_id: int
    kind: str
    start_ns: int
    end_ns: int
    subchannels: frozenset[int]
    power_dbm: float                # total radiated power
    color: int | None = None
    round_id: int = -1              # aligned MU round marker; -1 = standalone
    ru: RuPart | None = None        # set for per-RU (HE-TB style) transmissions
    ru_parts: tuple[RuPart, ...] = ()   # set for HE-MU downlink PPDUs
    nav_duration_ns: int = 0
    involves: frozenset[int] = frozenset()
    payload: object = None
    interferers: list["Transmission"] = field(default_factory=list)

    def power_per_subchannel_dbm(self) -> float:
        return self.power_dbm - 10.0 * math.log10(max(1, len(self.subchannels)))

    def power_into_hz(self, band_hz: float, subchannel: int) -> float | None:
        """Power this transmission leaks into band_hz of the given subchannel."""
        if subchannel not in self.subchannels:
            return None
        per_sub = self.power_per_subchannel_dbm()
        return per_sub + 10.0 * math.log10(min(band_hz, SUBCHANNEL_HZ) / SUBCHANNEL_HZ)


class Medium:
    """Keeps the set of in-flight transmissions and answers power questions.

    Interference accounting is symmetric: when a transmission starts it is
    recorded on every concurrently active transmission and vice versa, so at
    any frame's end its interferer list holds every overlap.
    """

    def __init__(self, sim: Simulator, loss_db: np.ndarray):
        self.sim = sim
        self.loss_db = loss_db
        self.active: dict[int, Transmission] = {}
        self.listeners: list = []    # callables (event, transmission)
        self._next_id = 0

    def rx_power_dbm(self, tx_node: int, rx_node: int, power_dbm: float) -> float:
        return power_dbm - float(self.loss_db[tx_node, rx_node])

    def transmit(self, tx: Transmission) -> Transmission:
        tx.tx_id = self._next_id
        self._next_id += 1
        for other in self.active.values():
            other.interferers.append(tx)
            tx.interferers.append(other)
        self.active[tx.tx_id] = tx
        for listener in self.listeners:
            listener("start", tx)
        self.sim.at(tx.end_ns, "tx-end", tx.tx_node, lambda: self._finish(tx),
                    detail=tx.kind)
        return tx

    def _finish(self, tx: Transmission) -> None:
        del self.active[tx.tx_id]
        for listener in self.listeners:
            listener("end", tx)

    # --- carrier sensing -------------------------------------------------------

    def sensed(self, node: int, now_ns: int) -> list[tuple[Transmission, float]]:
        """Active transmissions (not the node's own) with their power at node,
        measured on the primary 20 MHz subchannel.  Transmissions starting at
        exactly `now_ns` are not yet sensed: decisions taken in the same slot
        boundary collide rather than defer."""
        out = []
        for tx in self.active.values():
            if tx.tx_node == node or tx.start_ns >= now_ns:
                continue
            if 0 not in tx.subchannels:
                continue
            p = self.rx_power_dbm(tx.tx_node, node, tx.power_per_subchannel_dbm())
            out.append((tx, p))
        return out

    # --- decoding ---------------------------------------------------------------

    def sinr_db(self, tx: Transmission, rx_node: int, desired_dbm: float,
                band_hz: float, subchannel: int, ru_index: int | None = None,
                noise_figure_db: float = phy.NOISE_FIGURE_DB,
                co_group: frozenset[int] = frozenset()) -> float | None:
        """Decode SINR for one reception; None means hard corruption.

        Transmissions of one MU round on different RUs are orthogonal, and
        MU-MIMO partner streams are covered by the stream penalty.  Two
        transmitters on one random-access RU always corrupt each other (no
        capture on RA RUs).  Any other overlap enters the interference sum,
        time-averaged over the frame.
        """
        noise_mw = phy.dbm_to_mw(phy.noise_dbm(band_hz, noise_figure_db))
        interference_mw = 0.0
        for other in tx.interferers:
            if other.tx_node == tx.tx_node:
                continue
            if other.bss_id == tx.bss_id and other.round_id == tx.round_id \
                    and tx.round_id >= 0:
                other_ru = other.ru.ru_index if other.ru else None
                if other_ru is not None and ru_index is not None:
                    if other_ru != ru_index:
                        continue            # orthogonal RU, same round
                    if other.tx_node in co_group:
                        continue            # MU-MIMO partner stream
                    return None             # same RU: random-access collision
                continue                    # aligned control/ack structure
            leak = other.power_into_hz(band_hz, subchannel)
            if leak is None:
                continue
            overlap = min(tx.end_ns, other.end_ns) - max(tx.start_ns, other.start_ns)
            span = tx.end_ns - tx.start_ns
            if overlap <= 0 or span <= 0:
                continue
            interference_mw += phy.dbm_to_mw(
                self.rx_power_dbm(other.tx_node, rx_node, leak)) * (overlap / span)
        return desired_dbm - phy.mw_to_dbm(noise_mw + interference_mw)

    def nav_sinr_vector(self, tx: Transmission) -> tuple[bool, np.ndarray]:
        """Frame-readability SINR at every node at once, for NAV bookkeeping.

        Returns (hard_corrupt, sinr_db_per_node) over the primary 20 MHz; a
        random-access collision corrupts the frame for every listener.
        """
        n = self.loss_db.shape[0]
        desired = tx.power_per_subchannel_dbm() - self.loss_db[tx.tx_node]
        noise_mw = phy.dbm_to_mw(phy.noise_dbm(SUBCHANNEL_HZ))
        interference_mw = np.zeros(n)
        span = tx.end_ns - tx.start_ns
        for other in tx.interferers:
            if other.tx_node == tx.tx_node:
                continue
            if other.bss_id == tx.bss_id and other.round_id == tx.round_id \
                    and tx.round_id >= 0:
                other_ru = other.ru.ru_index if other.ru else None
                my_ru = tx.ru.ru_index if tx.ru else None
                if other_ru is not None and my_ru is not None:
                    if other_ru != my_ru:
                        continue
                    if other.tx_node in (tx.ru.users if tx.ru else ()):
                        continue
                    return True, np.full(n, -np.inf)
                continue
            if 0 not in other.subchannels:
                continue
            overlap = min(tx.end_ns, other.end_ns) - max(tx.start_ns, other.start_ns)
            if overlap <= 0 or span <= 0:
                continue
            p = other.power_per_subchannel_dbm() - self.loss_db[other.tx_node]
            interference_mw += np.power(10.0, p / 10.0) * (overlap / span)
        sinr = desired - 10.0 * np.log10(noise_mw + interference_mw)
        return False, sinr

    def interference_dbm(self, rx_node: int, band_hz: float, subchannel: int,
                         exclude_bss: int, now_ns: int) -> float:
        """Current other-BSS energy at a receiver, for link adaptation."""
        total_mw = 0.0
        for tx in self.active.values():
            if tx.bss_id == exclude_bss or tx.end_ns <= now_ns:
                continue
            leak = tx.power_into_hz(band_hz, subchannel)
            if leak is None:
                continue
            total_mw += phy.dbm_to_mw(self.rx_power_dbm(tx.tx_node, rx_node, leak))
        return phy.mw_to_dbm(total_mw)
