"""Comparison-scheme MAC: EDCA backoff, carrier sensing, RTS/CTS-protected
single-user TXOPs with A-MPDU aggregation and selective block-ack retry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import SIFS, TXOP_LIMIT
from .frames import (BA_BYTES, CTS_BYTES, RTS_BYTES, Ampdu, Mpdu,
                     data_duration_ns, legacy_frame_duration_ns, mpdus_that_fit)
from .phy import LEGACY_PPDU, Mcs, PpduFormat

if TYPE_CHECKING:
    from .engine import SimNode
    from .traffic import CbrFlow

CW_MIN = 15
CW_MAX = 1023

DEFAULT_AMPDU_CAP = 64     # baseline scheme; the HE cap is configured separately


@dataclass
class BackoffState:
    cw_min: int = CW_MIN
    cw_max: int = CW_MAX
    cw: int = field(default=-1)

    def __post_init__(self):
        if self.cw < 0:
            self.cw = self.cw_min

    def draw(self, rng) -> int:
        return rng.randint(0, self.cw)

    def on_success(self) -> None:
        self.cw = self.cw_min

    def on_failure(self) -> None:
        self.cw = min(2 * (self.cw + 1) - 1, self.cw_max)


@dataclass
class Txop:
    """A running TXOP: its holder, the instant its reservation ends, and
    whether any data got through yet.  A single-user exchange also fixes its
    peer, the flow it serves and the link (MCS, data bits per symbol)."""

    holder: SimNode
    deadline_ns: int
    any_data: bool = False
    peer: SimNode | None = None
    flow: CbrFlow | None = None
    link: tuple[Mcs, float] | None = None


@dataclass(frozen=True)
class SuLink:
    """What the exchange needs to know about one link."""

    bits_per_symbol: float          # data bits per OFDM symbol over all streams
    he: bool = False                # baseline uses legacy timing
    data_ppdu: PpduFormat = LEGACY_PPDU
    gi_us: float = 0.8


@dataclass
class LedgerEntry:
    kind: str
    duration_ns: int


@dataclass
class TxopResult:
    delivered: list[Mpdu]
    requeued: list[Mpdu]
    ledger: list[LedgerEntry]
    success: bool                  # at least the protection exchange completed

    @property
    def airtime_ns(self) -> int:
        return sum(e.duration_ns for e in self.ledger)


def su_txop_exchange(queue: list[Mpdu], link: SuLink, rng,
                     per_of=lambda bits: 0.0,
                     ampdu_cap: int = DEFAULT_AMPDU_CAP,
                     txop_limit_ns: int = TXOP_LIMIT,
                     backoff: BackoffState | None = None) -> TxopResult:
    """RTS -> CTS -> (A-MPDU -> BA)* until the queue drains or the TXOP budget
    is spent.  Failed MPDUs stay queued for the next aggregate (selective
    retransmission off the BA bitmap); a lost CTS or BA doubles the
    contention window and ends the exchange."""
    ledger: list[LedgerEntry] = []
    delivered: list[Mpdu] = []
    pending = list(queue)
    rts_ns = legacy_frame_duration_ns(RTS_BYTES)
    cts_ns = legacy_frame_duration_ns(CTS_BYTES)
    ba_ns = legacy_frame_duration_ns(BA_BYTES)
    budget = txop_limit_ns

    def spend(kind: str, duration: int) -> None:
        nonlocal budget
        ledger.append(LedgerEntry(kind, duration))
        budget -= duration

    spend("rts", rts_ns)
    spend("sifs", SIFS)
    if rng.random() < per_of(8 * RTS_BYTES) or rng.random() < per_of(8 * CTS_BYTES):
        # CTS timeout: no reservation, re-contend with a doubled window
        if backoff:
            backoff.on_failure()
        return TxopResult([], pending, ledger, success=False)
    spend("cts", cts_ns)

    while pending:
        round_overhead = 2 * SIFS + ba_ns
        n_fit = mpdus_that_fit(budget - round_overhead, link.data_ppdu,
                               link.bits_per_symbol, pending[0].onair_bits,
                               min(ampdu_cap, len(pending)),
                               gi_us=link.gi_us, he=link.he)
        if n_fit < 1:
            break
        ampdu = Ampdu(pending[:n_fit])
        pending = pending[n_fit:]
        spend("sifs", SIFS)
        spend("ampdu", data_duration_ns(link.data_ppdu, ampdu.total_bits,
                                        link.bits_per_symbol, link.gi_us, link.he))
        survivors = [m for m in ampdu.mpdus if rng.random() >= per_of(m.onair_bits)]
        failed = [m for m in ampdu.mpdus if m not in survivors]
        spend("sifs", SIFS)
        if rng.random() < per_of(8 * BA_BYTES):
            # BA lost: the sender cannot confirm anything from this aggregate
            pending = ampdu.mpdus + pending
            if backoff:
                backoff.on_failure()
            return TxopResult(delivered, pending, ledger, success=False)
        spend("ba", ba_ns)
        delivered.extend(survivors)
        pending = failed + pending

    if backoff:
        backoff.on_success()
    return TxopResult(delivered, pending, ledger, success=True)
