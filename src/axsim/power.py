"""Doze/wake state, intra-PPDU doze and the energy ledger."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import SEC
from .spatial import INTRA_BSS

AWAKE = "awake"
DOZE = "doze"

# relative draw units; only the ordering/ratios are asserted anywhere
DRAW_AWAKE = 1.0
DRAW_TX = 1.8
DRAW_DOZE = 0.05


class PowerError(ValueError):
    pass


@dataclass
class EnergyAccount:
    awake_ns: int = 0
    tx_ns: int = 0
    doze_ns: int = 0

    def add(self, state: str, duration_ns: int, transmitting: bool = False) -> None:
        if duration_ns < 0:
            raise PowerError("negative duration")
        if state == DOZE:
            self.doze_ns += duration_ns
        elif transmitting:
            self.tx_ns += duration_ns
        else:
            self.awake_ns += duration_ns

    @property
    def total_ns(self) -> int:
        return self.awake_ns + self.tx_ns + self.doze_ns

    @property
    def energy_units(self) -> float:
        return (self.awake_ns * DRAW_AWAKE + self.tx_ns * DRAW_TX
                + self.doze_ns * DRAW_DOZE) / SEC


@dataclass
class PowerState:
    """Doze/wake bookkeeping; the NAV always keeps running while dozing."""

    state: str = AWAKE
    since_ns: int = 0
    tx_until_ns: int = 0
    account: EnergyAccount = field(default_factory=EnergyAccount)

    def _settle(self, now_ns: int) -> None:
        span = now_ns - self.since_ns
        if span < 0:
            raise PowerError("clock went backwards")
        if self.state == AWAKE and self.tx_until_ns > self.since_ns:
            tx_span = min(now_ns, self.tx_until_ns) - self.since_ns
            self.account.add(AWAKE, tx_span, transmitting=True)
            self.account.add(AWAKE, span - tx_span)
        else:
            self.account.add(self.state, span)
        self.since_ns = now_ns

    def doze(self, now_ns: int) -> None:
        if self.state == AWAKE:
            self._settle(now_ns)
            self.state = DOZE

    def wake(self, now_ns: int) -> None:
        if self.state == DOZE:
            self._settle(now_ns)
            self.state = AWAKE

    def mark_tx(self, now_ns: int, duration_ns: int) -> None:
        if self.state != AWAKE:
            raise PowerError("a dozing STA cannot transmit")
        self._settle(now_ns)
        self.tx_until_ns = now_ns + duration_ns

    def finish(self, now_ns: int) -> EnergyAccount:
        self._settle(now_ns)
        return self.account

    @property
    def dozing(self) -> bool:
        return self.state == DOZE


def intra_ppdu_doze(power: PowerState, now_ns: int, frame_class: str,
                    ppdu_end_ns: int) -> int | None:
    """Doze through an intra-BSS PPDU, which the caller has found does not
    involve this STA; returns the scheduled wake time (exactly the PPDU end)
    or None."""
    if frame_class != INTRA_BSS:
        return None
    power.doze(now_ns)
    return ppdu_end_ns
