"""Shared radio medium: active-transmission bookkeeping, per-RU interference,
carrier-sense queries, and decode SINR evaluation.

Power lives in two domains.  Thresholds and link budgets are in dB: carrier
sense at CCA, the OBSS_PD levels and SR caps, MCS0 readability and every
desired signal compare or subtract dB values.  Every sum is in mW: a
frame's interference at a decode, at the NAV pass and at link adaptation
adds received powers in mW.  A received power crosses from dBm to mW once,
in `Medium.transmit`, which makes each frame's row over all nodes; thermal
noise, one value per band, is the only other crossing (`Medium.noise_mw`).
Every sum goes back to dB through `phy.mw_to_dbm`, the one function decode,
NAV and link adaptation all call.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import NamedTuple

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


class Interferer(NamedTuple):
    """A frame as the interferer lists of the frames it overlaps hold it:
    what their decodes read of it, and nothing that keeps it alive."""

    tx_node: int
    bss_id: int
    round_id: int
    ru_index: int | None
    subchannels: frozenset[int]
    start_ns: int
    end_ns: int
    rx_mw: np.ndarray               # received power per 20 MHz subchannel, by node

    @classmethod
    def of(cls, tx: Transmission, rx_mw: np.ndarray) -> Interferer:
        # straight to tuple.__new__, past the NamedTuple's Python-level
        # __new__: one record is made per frame
        return tuple.__new__(cls, (tx.tx_node, tx.bss_id, tx.round_id,
                                   tx.ru.ru_index if tx.ru else None, tx.subchannels,
                                   tx.start_ns, tx.end_ns, rx_mw))


@dataclass(eq=False)          # a frame equals only itself
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
    # Duration, counted from the frame's end: BssEngine.send sets it to what
    # is left of the frame's TXOP then, and to 0 outside a TXOP
    nav_duration_ns: int = 0
    involves: frozenset[int] = frozenset()
    payload: object = None
    # while on the air: the frames on the air with it at any time, in the
    # order they were handed over; emptied at its end
    interferers: list[Interferer] = field(default_factory=list)
    # from its end: what every decode and its NAV pass read of interferers
    overlaps: Overlaps | None = None
    # received power on the primary 20 MHz at every node, while active; its
    # mW twin lives in `heard`
    rx_dbm: np.ndarray | None = None
    # carrier-sense rows derived from rx_dbm by the run (RunContext)
    cs_rows: tuple | None = None
    # this frame in the interferer lists of others, made at handover
    heard: Interferer | None = None
    _per_subchannel_dbm: float = field(init=False, repr=False)

    def __post_init__(self):
        self._per_subchannel_dbm = self.power_dbm - 10.0 * math.log10(
            max(1, len(self.subchannels)))

    def power_per_subchannel_dbm(self) -> float:
        return self._per_subchannel_dbm


class Overlaps:
    """The frames that interfere with one frame, in interferer order: each
    one's received power row in mW, share of the frame's airtime and
    subchannels; and the (RU, transmitter) pairs of the frame's own MU
    round, which decide a random-access collision."""

    __slots__ = ("rows", "shares", "subchannels", "round_pairs", "_common")

    def __init__(self, rows: list[np.ndarray], shares: list[float],
                 subchannels: list[frozenset[int]], round_pairs: list[tuple[int, int]]):
        self.rows = rows
        self.shares = shares
        self.subchannels = subchannels
        self.round_pairs = round_pairs
        # the subchannels every interferer covers
        self._common = frozenset.intersection(*subchannels) if subchannels else None

    def corrupts(self, ru_index: int | None, co_group: Collection[int]) -> bool:
        """Whether a transmitter outside co_group shares the decoded RU of
        the frame's round: two transmitters on one random-access RU always
        corrupt each other (no capture on RA RUs)."""
        for ru, node in self.round_pairs:
            if ru == ru_index and node not in co_group:
                return True
        return False

    def on(self, subchannel: int) -> tuple[list[np.ndarray], list[float]]:
        """(rows, shares) of the interferers on subchannel."""
        if self._common is None or subchannel in self._common:
            return self.rows, self.shares
        keep = [k for k, subs in enumerate(self.subchannels) if subchannel in subs]
        return [self.rows[k] for k in keep], [self.shares[k] for k in keep]


def overlapping(tx: Transmission) -> Overlaps:
    """The one walk over `tx`'s interferer list.

    Transmissions of one MU round on different RUs are orthogonal, and
    MU-MIMO partner streams are covered by the stream penalty, so frames of
    `tx`'s round enter only the round pairs; aligned control frames of the
    round (no RU) not even those.  Frames of `tx`'s own transmitter and
    frames that do not overlap it in time are left out.
    """
    me, bss, start, end = tx.tx_node, tx.bss_id, tx.start_ns, tx.end_ns
    span = end - start
    round_id = tx.round_id if tx.round_id >= 0 else None    # None: no round
    rows, shares, subchannels, round_pairs = [], [], [], []
    for node, other_bss, other_round, ru_index, subs, other_start, other_end, rx_mw \
            in tx.interferers:
        if node == me:
            continue
        if other_round == round_id and other_bss == bss:
            if ru_index is not None:
                round_pairs.append((ru_index, node))
            continue
        overlap = (other_end if other_end < end else end) \
            - (other_start if other_start > start else start)
        if overlap <= 0 or span <= 0:
            continue
        rows.append(rx_mw)
        shares.append(overlap / span)
        subchannels.append(subs)
    return Overlaps(rows, shares, subchannels, round_pairs)


class Medium:
    """Keeps the frames handed over and not yet ended (`active`) and answers
    power questions.  A frame is on the air from its start event to its end
    event; carrier sense and link adaptation read one list of the primary
    channel's frames on the air, as ns-3's ChannelAccessManager hears of
    every signal at its start.

    Each frame keeps its own overlaps, as ns-3's InterferenceHelper does;
    there are no running power sums.  When a frame is handed over, its
    record (`Interferer`, made once) joins the interferer list of every
    active frame, and theirs join its list, so at its end the list holds
    every overlap.  `_finish` walks it once (`overlapping`), before the end
    listeners run, and empties it: every decode of the frame and its NAV
    pass read that walk.  A frame read while still on the air gets the same
    walk over what its list holds so far.

    The lists hold records, not frames, so an ended frame, with its walk,
    dies after its last decode.  A frame carries its received power at
    every node in dBm (`rx_dbm`), for the thresholds, only while it is
    active; its record carries the same row in mW (`Interferer.rx_mw`),
    made once at handover, for every sum, and every sum goes back to dB
    through `phy.mw_to_dbm`.  ns-3's InterferenceHelper likewise keeps
    powers linear and converts once in each direction.
    """

    def __init__(self, sim: Simulator, loss_db: np.ndarray, noise_figure_db: float):
        self.sim = sim
        self.loss_db = loss_db
        self.noise_figure_db = noise_figure_db
        self.active: dict[int, Transmission] = {}
        self.listeners: list = []    # callables (event, transmission)
        self._next_id = 0
        # the primary-channel frames on the air, in the order they started
        self._on_air: list[Transmission] = []
        self._noise_by_band: dict[float, float] = {}

    def rx_power_dbm(self, tx_node: int, rx_node: int, power_dbm: float) -> float:
        return power_dbm - float(self.loss_db[tx_node, rx_node])

    def transmit(self, tx: Transmission, then=None) -> Transmission:
        """Hand tx over: it joins the interferer lists now, and its start and
        end events, which run the listeners, are pushed in that order; then(tx),
        if given, runs at the end of its end event.  An attempt armed at t
        fires no earlier than t + DIFS, and a frame starts at most SIFS after
        its handover, so an attempt that fires at a frame's start instant
        was armed before the handover: it pops before the start event,
        senses the medium idle, transmits and collides."""
        tx.tx_id = self._next_id
        self._next_id += 1
        tx.rx_dbm = tx.power_per_subchannel_dbm() - self.loss_db[tx.tx_node]
        heard = tx.heard = Interferer.of(tx, np.power(10.0, tx.rx_dbm / 10.0))
        for other in self.active.values():
            other.interferers.append(heard)
            tx.interferers.append(other.heard)
        self.active[tx.tx_id] = tx
        self.sim.at(tx.start_ns, lambda: self._start(tx))
        self.sim.at(tx.end_ns, lambda: self._finish(tx, then))
        return tx

    def _start(self, tx: Transmission) -> None:
        if 0 in tx.subchannels:
            self._on_air.append(tx)
        for listener in self.listeners:
            listener("start", tx)

    def _finish(self, tx: Transmission, then) -> None:
        del self.active[tx.tx_id]
        if 0 in tx.subchannels:
            self._on_air.remove(tx)
        tx.overlaps = overlapping(tx)
        tx.interferers.clear()
        for listener in self.listeners:
            listener("end", tx)
        tx.rx_dbm = tx.cs_rows = None
        if then is not None:
            then(tx)

    # --- carrier sensing -------------------------------------------------------

    def sensed(self) -> list[Transmission]:
        """The frames on the air on the primary 20 MHz, whose power at every
        node is their `rx_dbm`; a node ignores its own.  One list, changed
        only by start and end events and shared by every caller."""
        return self._on_air

    # --- decoding ---------------------------------------------------------------

    def noise_mw(self, band_hz: float) -> float:
        """Thermal noise in band_hz at every receiver, worked out once per band."""
        noise = self._noise_by_band.get(band_hz)
        if noise is None:
            noise = self._noise_by_band[band_hz] = phy.dbm_to_mw(
                phy.noise_dbm(band_hz, self.noise_figure_db))
        return noise

    def sinr_db(self, tx: Transmission, rx_node: int, power_dbm: float,
                band_hz: float, subchannel: int, ru_index: int | None = None,
                co_group: Collection[int] = ()) -> float | None:
        """Decode SINR at rx_node of the part of tx sent at power_dbm; None
        means hard corruption (see `Overlaps.corrupts`).  Every overlap enters
        the interference sum, time-averaged over the frame, in interferer
        order, as `nav_sinr_vector` sums it."""
        overlaps = tx.overlaps or overlapping(tx)
        if overlaps.corrupts(ru_index, co_group):
            return None
        rows, shares = overlaps.on(subchannel)
        interference_mw = 0.0
        for row, share in zip(rows, shares):
            interference_mw += row.item(rx_node) * share
        if band_hz < SUBCHANNEL_HZ:     # the band's share of a subchannel
            interference_mw *= band_hz / SUBCHANNEL_HZ
        return float(self.rx_power_dbm(tx.tx_node, rx_node, power_dbm)
                     - phy.mw_to_dbm(self.noise_mw(band_hz) + interference_mw))

    def nav_sinr_vector(self, tx: Transmission,
                        nodes: np.ndarray) -> tuple[bool, np.ndarray]:
        """Frame-readability SINR at the given nodes at once, for NAV
        bookkeeping: each node's value is what `sinr_db` reads for it.

        Returns (hard_corrupt, sinr_db per node of `nodes`) over the primary
        20 MHz; a random-access collision corrupts the frame for every
        listener.
        """
        overlaps = tx.overlaps or overlapping(tx)
        if overlaps.corrupts(tx.ru.ru_index if tx.ru else None,
                             tx.ru.users if tx.ru else ()):
            return True, np.full(len(nodes), -np.inf)
        rows, shares = overlaps.on(0)
        desired = tx.power_per_subchannel_dbm() - self.loss_db[tx.tx_node, nodes]
        interference_mw = 0.0
        if rows:
            # every interferer's power at every node, weighted by its share
            # and added in interferer order, one row after another, whatever
            # the number of nodes (a sum over axis 0 adds pairwise or by
            # rows depending on the shape)
            terms = np.concatenate([row[nodes] for row in rows]).reshape(len(rows), -1)
            terms *= np.array(shares)[:, None]
            interference_mw = np.add.accumulate(terms)[-1]
        return False, desired - phy.mw_to_dbm(self.noise_mw(SUBCHANNEL_HZ)
                                              + interference_mw)

    def interference_dbm(self, rx_node: int, band_hz: float, exclude_bss: int) -> float:
        """Noise in band_hz plus the other-BSS energy on the air in the part
        of band_hz on the primary 20 MHz, at a receiver, in dBm: the level
        link adaptation selects the MCS against.  The frames add in the
        order they started."""
        interference_mw = 0.0
        for tx in self._on_air:
            if tx.bss_id != exclude_bss:
                interference_mw += tx.heard.rx_mw.item(rx_node)
        if band_hz < SUBCHANNEL_HZ:     # the band's share of a subchannel
            interference_mw *= band_hz / SUBCHANNEL_HZ
        return float(phy.mw_to_dbm(self.noise_mw(band_hz) + interference_mw))
