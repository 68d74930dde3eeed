"""Shared radio medium: active-transmission bookkeeping, per-RU interference,
carrier-sense queries, and decode SINR evaluation.

Power lives in two domains.  Thresholds and link budgets are in dB: carrier
sense at CCA, the OBSS_PD levels and SR caps, MCS0 readability and every
desired signal compare or subtract dB values.  Every sum is in mW: a
frame's interference at a decode, at the NAV pass and at link adaptation
adds received powers in mW.  A received power crosses from dBm to mW once,
in `Medium.transmit`, which writes each frame's row over all nodes into the
medium's power slab; thermal noise, one value per band, is the only other
crossing (`Medium.noise_mw`).  Every sum goes back to dB through
`phy.mw_to_dbm`, the one function decode, NAV and link adaptation all call.

Every frame handed over takes the next position of one handover log, which
keeps the frame's record (transmitter, BSS, round, RU, subchannels, start,
end, slab row) there, and one row of the slab, which keeps its received
power in mW at every node.  A frame's interferers are the frames on the air
at its handover and those handed over until its end, in that order; decode
and the NAV pass add them in it, so both add the same terms in the same
order, and link adaptation adds the other-BSS frames on the air in the
order they started.  A row is held while a frame that can still be read
(on the air, or ended at the current instant) may overlap its frame; the
slab reuses the rows let go and doubles in place when every row is held
(`Medium`).
"""

from __future__ import annotations

import math
import mmap
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import phy
from .core import Simulator
from .ru import RuAssignment

if TYPE_CHECKING:
    from .engine import Reach

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


@dataclass(eq=False)          # a frame equals only itself
class Transmission:
    tx_id: int                      # its position in the handover log
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
    # while on the air: the log records of the frames on the air at its
    # handover, in handover order; the log holds those handed over since
    peers: list[Record] | None = None
    # from its end: what every decode and its NAV pass read of its interferers
    overlaps: Overlaps | None = None
    # its received power in mW at every node: the medium's slab row at
    # `row`, held from the handover
    row: int = -1
    # what it does at the nodes that hear it, shared with every frame of its
    # key; set the first time the run reads it (RunContext.reach)
    reach: Reach | None = None
    _per_subchannel_dbm: float = field(init=False, repr=False)

    def __post_init__(self):
        self._per_subchannel_dbm = self.power_dbm - 10.0 * math.log10(
            max(1, len(self.subchannels)))

    def power_per_subchannel_dbm(self) -> float:
        return self._per_subchannel_dbm


# A frame's log record: (tx_node, bss_id, round_id, ru_index or None,
# subchannels, start_ns, end_ns, slab row).  It holds nothing of the frame
# that keeps it alive.
Record = tuple[int, int, int, int | None, frozenset[int], int, int, int]


class Overlaps:
    """The frames that interfere with one frame, in interferer order: each
    one's slab row, share of the frame's airtime and subchannels; and the
    (RU, transmitter) pairs of the frame's own MU round, which decide a
    random-access collision."""

    __slots__ = ("rows", "shares", "subchannels", "round_pairs", "_common")

    def __init__(self, rows: list[int], shares: list[float],
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

    def on(self, subchannel: int) -> tuple[list[int], list[float]]:
        """(rows, shares) of the interferers on subchannel."""
        if self._common is None or subchannel in self._common:
            return self.rows, self.shares
        keep = [k for k, subs in enumerate(self.subchannels) if subchannel in subs]
        return [self.rows[k] for k in keep], [self.shares[k] for k in keep]


# Slab rows at the first handover; the slab doubles whenever every row is held.
INITIAL_CAPACITY = 4


class Medium:
    """Keeps the frames handed over and not yet ended (`active`) and answers
    power questions.  A frame is on the air from its start event to its end
    event; carrier sense and link adaptation read one list of the primary
    channel's frames on the air, as ns-3's ChannelAccessManager hears of
    every signal at its start.

    Each frame keeps its own overlaps, as ns-3's InterferenceHelper does;
    there are no running power sums.  At handover a frame takes the next
    log position (its `tx_id`) and a free slab row (its `row`), its record
    joins the log, its mW row is written into the slab, and it keeps a copy
    of the records of the frames then on the air (`peers`).  At its end its
    interferers are that copy and the log after its position; `_finish`
    walks them once (`overlapping`), before the end listeners run, and
    every decode of the frame and its NAV pass read that walk.  A frame
    read while still on the air gets the same walk over what has been
    handed over so far.  A frame carries no array over all nodes: its
    received power in mW lives in its slab row, for every sum, and every
    sum goes back to dB through `phy.mw_to_dbm`.  ns-3's InterferenceHelper
    likewise keeps powers linear and converts once in each direction.  The
    run works the thresholds out once per (transmitter, power per
    subchannel, colour), from the link budget in dB, as the frame's reach
    (`RunContext.reach`); the frame keeps a reference to it, which later
    frames of that key share.

    A frame can be read while it is on the air and, after its end, in the
    rest of the instant it ended at (its decodes and NAV pass).  Only the
    frames handed over before a frame's end can overlap it, and each of
    them ends by the latest end handed over so far, so a frame's row is
    held from its handover to the end of that instant (taken at its own
    end) and is free for a later handover after it.  When every row is
    held, the slab doubles in place: a private anonymous mapping keeps its
    rows and their index, and takes a page only when a row on it is first
    written, so the slab's memory is the rows held at once, not its
    capacity.  The log keeps the records from the oldest frame on the air
    on.  `Overlaps` keep rows, not arrays, and a read of an ended frame
    after the instant it ended at raises `LookupError` rather than return a
    row another frame may have taken since.
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
        # the handover log: the records of positions _log_start onwards, and
        # those of the active frames by position
        self._log: list[Record] = []
        self._log_start = 0
        self._trim_at = 64
        self._active_records: dict[int, Record] = {}
        # the slab and its mapping, made at the first handover, its free
        # rows (taken from the end), the (instant, row) of the rows held
        # until an instant, in order, and the latest end of a frame handed over
        self._map: mmap.mmap | None = None
        self._slab = np.empty((0, loss_db.shape[0]))
        self._free: list[int] = []
        self._held: deque[tuple[int, int]] = deque()
        self._latest_end = 0

    def rx_power_dbm(self, tx_node: int, rx_node: int, power_dbm: float) -> float:
        return power_dbm - float(self.loss_db[tx_node, rx_node])

    def transmit(self, tx: Transmission, then=None) -> Transmission:
        """Hand tx over: it joins the log now, and its start and end events,
        which run the listeners, are pushed in that order; then(tx), if
        given, runs at the end of its end event.  An attempt armed at t
        fires no earlier than t + DIFS, and a frame starts at most SIFS after
        its handover, so an attempt that fires at a frame's start instant
        was armed before the handover: it pops before the start event,
        senses the medium idle, transmits and collides."""
        position = tx.tx_id = self._next_id
        self._next_id += 1
        held, now = self._held, self.sim.now
        while held and held[0][0] < now:
            self._free.append(held.popleft()[1])
        if not self._free:
            self._grow()
        row = tx.row = self._free.pop()
        if tx.end_ns > self._latest_end:
            self._latest_end = tx.end_ns
        mw = self._slab[row]
        np.subtract(tx.power_per_subchannel_dbm(), self.loss_db[tx.tx_node], out=mw)
        np.divide(mw, 10.0, out=mw)
        np.power(10.0, mw, out=mw)
        if len(self._log) >= self._trim_at:
            self._trim_log(position)
        record = (tx.tx_node, tx.bss_id, tx.round_id, tx.ru.ru_index if tx.ru else None,
                  tx.subchannels, tx.start_ns, tx.end_ns, row)
        self._log.append(record)
        tx.peers = list(self._active_records.values())
        self._active_records[position] = record
        self.active[position] = tx
        self.sim.at(tx.start_ns, lambda: self._start(tx))
        self.sim.at(tx.end_ns, lambda: self._finish(tx, then))
        return tx

    def _grow(self) -> None:
        """Make the slab, or double it in place; the new rows take no memory
        until they are written."""
        capacity, n = self._slab.shape
        grown = 2 * capacity or INITIAL_CAPACITY
        self._slab = None           # the mapping resizes only with no view on it
        if self._map is None:
            self._map = mmap.mmap(-1, grown * n * 8, flags=mmap.MAP_PRIVATE)
        else:
            self._map.resize(grown * n * 8)
        self._slab = np.frombuffer(self._map, dtype=np.float64).reshape(grown, n)
        self._free.extend(range(grown - 1, capacity - 1, -1))

    def _trim_log(self, position: int) -> None:
        """Drop the records before the oldest frame on the air, which no walk
        reads, as the log doubles."""
        oldest = next(iter(self.active), position)
        del self._log[:oldest - self._log_start]
        self._log_start = oldest
        self._trim_at = 2 * len(self._log) + 64

    def overlapping(self, tx: Transmission) -> Overlaps:
        """The one walk over tx's interferers handed over so far: the frames
        on the air at its handover, then the log after its own position.

        Transmissions of one MU round on different RUs are orthogonal, and
        MU-MIMO partner streams are covered by the stream penalty, so frames
        of tx's round enter only the round pairs; aligned control frames of
        the round (no RU) not even those.  Frames of tx's own transmitter
        and frames that do not overlap it in time are left out.
        """
        me, bss, start, end = tx.tx_node, tx.bss_id, tx.start_ns, tx.end_ns
        span = end - start
        round_id = tx.round_id if tx.round_id >= 0 else None    # None: no round
        rows, shares, subchannels, round_pairs = [], [], [], []
        for node, other_bss, other_round, ru_index, subs, other_start, other_end, row \
                in chain(tx.peers, self._log[tx.tx_id + 1 - self._log_start:]):
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
            rows.append(row)
            shares.append(overlap / span)
            subchannels.append(subs)
        return Overlaps(rows, shares, subchannels, round_pairs)

    def _start(self, tx: Transmission) -> None:
        if 0 in tx.subchannels:
            self._on_air.append(tx)
        for listener in self.listeners:
            listener("start", tx)

    def _finish(self, tx: Transmission, then) -> None:
        del self.active[tx.tx_id]
        del self._active_records[tx.tx_id]
        if 0 in tx.subchannels:
            self._on_air.remove(tx)
        tx.overlaps = self.overlapping(tx)
        tx.peers = None
        self._held.append((self._latest_end, tx.row))
        for listener in self.listeners:
            listener("end", tx)
        if then is not None:
            then(tx)

    # --- carrier sensing -------------------------------------------------------

    def sensed(self) -> list[Transmission]:
        """The frames on the air on the primary 20 MHz, which block or cap
        the nodes their reach says; a node ignores its own.  One list,
        changed only by start and end events and shared by every caller."""
        return self._on_air

    # --- decoding ---------------------------------------------------------------

    def noise_mw(self, band_hz: float) -> float:
        """Thermal noise in band_hz at every receiver, worked out once per band."""
        noise = self._noise_by_band.get(band_hz)
        if noise is None:
            noise = self._noise_by_band[band_hz] = phy.dbm_to_mw(
                phy.noise_dbm(band_hz, self.noise_figure_db))
        return noise

    def _overlaps(self, tx: Transmission) -> Overlaps:
        """tx's walk, for a read now: the one made at its end, or one over
        what has been handed over so far while it is on the air.  Raises
        LookupError after the instant tx ended at, when its interferers'
        rows may belong to other frames."""
        overlaps = tx.overlaps
        if overlaps is None:
            return self.overlapping(tx)
        if tx.end_ns != self.sim.now:
            raise LookupError(f"frame {tx.tx_id} ended at {tx.end_ns} ns, before "
                              f"{self.sim.now} ns: its interferers' rows are let go")
        return overlaps

    def _interference_at(self, rows: list[int], shares: list[float],
                         rx_node: int) -> float:
        """The power at rx_node of the interferers in rows, each weighted by
        its share, added in interferer order."""
        slab = self._slab
        interference_mw = 0.0
        for row, share in zip(rows, shares):
            interference_mw += slab.item(row, rx_node) * share
        return interference_mw

    def sinr_db(self, tx: Transmission, rx_node: int, power_dbm: float,
                band_hz: float, subchannel: int, ru_index: int | None = None,
                co_group: Collection[int] = ()) -> float | None:
        """Decode SINR at rx_node of the part of tx sent at power_dbm; None
        means hard corruption (see `Overlaps.corrupts`).  Every overlap enters
        the interference sum, time-averaged over the frame, in interferer
        order, as `nav_sinr_vector` sums it."""
        overlaps = self._overlaps(tx)
        if overlaps.corrupts(ru_index, co_group):
            return None
        rows, shares = overlaps.on(subchannel)
        interference_mw = self._interference_at(rows, shares, rx_node)
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
        overlaps = self._overlaps(tx)
        if overlaps.corrupts(tx.ru.ru_index if tx.ru else None,
                             tx.ru.users if tx.ru else ()):
            return True, np.full(len(nodes), -np.inf)
        rows, shares = overlaps.on(0)
        desired = tx.power_per_subchannel_dbm() - self.loss_db[tx.tx_node].take(nodes)
        if not rows:
            interference_mw = 0.0
        elif len(nodes) == 1:           # the scalar sum, as decode adds it
            interference_mw = self._interference_at(rows, shares, int(nodes[0]))
        elif len(rows) == 1:
            interference_mw = self._slab[rows[0]].take(nodes) * shares[0]
        else:
            # every interferer's power at every node, weighted by its share;
            # a sum over axis 0 of a C-ordered (k, m >= 2) block adds row
            # after row, in interferer order (of a (k, 1) block, pairwise)
            slab = self._slab
            starts = np.multiply(rows, slab.shape[1])
            terms = slab.ravel().take(np.add.outer(starts, nodes))
            terms *= np.array(shares)[:, None]
            interference_mw = np.add.reduce(terms, axis=0)
        return False, desired - phy.mw_to_dbm(self.noise_mw(SUBCHANNEL_HZ)
                                              + interference_mw)

    def interference_dbm(self, rx_node: int, band_hz: float, exclude_bss: int) -> float:
        """Noise in band_hz plus the other-BSS energy on the air in the part
        of band_hz on the primary 20 MHz, at a receiver, in dBm: the level
        link adaptation selects the MCS against.  The frames add in the
        order they started."""
        slab = self._slab
        interference_mw = 0.0
        for tx in self._on_air:
            if tx.bss_id != exclude_bss:
                interference_mw += slab.item(tx.row, rx_node)
        if band_hz < SUBCHANNEL_HZ:     # the band's share of a subchannel
            interference_mw *= band_hz / SUBCHANNEL_HZ
        return float(phy.mw_to_dbm(self.noise_mw(band_hz) + interference_mw))
