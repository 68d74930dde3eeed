"""TWT service periods, the three TWT power-save modes, intra-PPDU doze, energy ledger."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import SEC
from .spatial import INTRA_BSS

AWAKE = "awake"
DOZE = "doze"

FLOW_UNRESTRICTED = 0
FLOW_NO_UORA = 1         # no random access in the SP's trigger frames
FLOW_UORA = 2            # at least one TF carries random-access RUs
FLOW_TIM_AT_START = 3    # AP opens the SP with a TIM / FILS+TIM frame

# relative draw units; only the ordering/ratios are asserted anywhere
DRAW_AWAKE = 1.0
DRAW_TX = 1.8
DRAW_DOZE = 0.05

MAX_TIME_NS = 2 ** 63 - 1


class TwtError(ValueError):
    pass


def wake_interval(mantissa: int, exponent: int) -> int:
    """Interval between periodic SPs: mantissa * 2^exponent time units."""
    if mantissa < 0:
        raise TwtError("mantissa must be non-negative")
    value = mantissa << exponent if mantissa else 0
    if value > MAX_TIME_NS:
        raise TwtError(f"wake interval {mantissa}*2^{exponent} overflows the time type")
    return value


@dataclass(frozen=True)
class TwtSp:
    target_wake_time_ns: int
    min_wake_duration_ns: int
    trigger: bool = True
    flow_identifier: int = FLOW_UNRESTRICTED
    wake_interval_mantissa: int = 0
    wake_interval_exponent: int = 0

    def __post_init__(self):
        if not 0 <= self.flow_identifier <= 3:
            raise TwtError(f"TWT flow identifier {self.flow_identifier} is reserved")
        if self.flow_identifier == FLOW_UORA and not self.trigger:
            raise TwtError("a UORA SP must contain at least one trigger frame")

    @property
    def interval_ns(self) -> int:
        return wake_interval(self.wake_interval_mantissa, self.wake_interval_exponent)

    @property
    def end_ns(self) -> int:
        return self.target_wake_time_ns + self.min_wake_duration_ns


ACCEPT = "accept"


@dataclass(frozen=True)
class TwtResponse:
    verdict: str               # accept | reject | alternative
    sp: TwtSp | None = None
    next_beacon_ns: int | None = None


def twt_negotiate(request: TwtSp, existing: list[TwtSp],
                  listen_interval: bool = False,
                  next_beacon_ns: int = 0) -> TwtResponse:
    """Individual TWT: echo non-overlapping requests, else shift to the next free slot."""
    if listen_interval:
        # wake-TBTT negotiation: confirm the interval and the next beacon time
        return TwtResponse(ACCEPT, request, next_beacon_ns=next_beacon_ns)
    start = request.target_wake_time_ns
    for sp in sorted(existing, key=lambda s: s.target_wake_time_ns):
        if start < sp.end_ns and sp.target_wake_time_ns < start + request.min_wake_duration_ns:
            start = sp.end_ns  # packed back-to-back after the blocking SP
    if start == request.target_wake_time_ns:
        return TwtResponse(ACCEPT, request)
    moved = TwtSp(start, request.min_wake_duration_ns, request.trigger,
                  request.flow_identifier, request.wake_interval_mantissa,
                  request.wake_interval_exponent)
    return TwtResponse("alternative", moved)


@dataclass
class EnergyAccount:
    awake_ns: int = 0
    tx_ns: int = 0
    doze_ns: int = 0

    def add(self, state: str, duration_ns: int, transmitting: bool = False) -> None:
        if duration_ns < 0:
            raise TwtError("negative duration")
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
            raise TwtError("clock went backwards")
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
            raise TwtError("a dozing STA cannot transmit")
        self._settle(now_ns)
        self.tx_until_ns = now_ns + duration_ns

    def finish(self, now_ns: int) -> EnergyAccount:
        self._settle(now_ns)
        return self.account

    @property
    def dozing(self) -> bool:
        return self.state == DOZE


def uora_twt_doze(power: PowerState, now_ns: int, cascade: bool,
                  transmitted_or_eligible: bool) -> None:
    """After a TF inside a UORA SP: served STAs doze; a waiting STA stays awake
    only while more cascaded TFs are coming."""
    if transmitted_or_eligible or not cascade:
        power.doze(now_ns)
    # cascade and still waiting: remain awake for the next TF


def sp_applies_to_uora_sta(sp: TwtSp) -> bool:
    """UORA-mode STAs never wake for SPs that forbid random access."""
    return sp.flow_identifier != FLOW_NO_UORA


def periodic_twt_tick(power: PowerState, now_ns: int, tim_bit: bool | None) -> None:
    """At an SP start: TIM bit 0 dozes until the next SP; a lost TIM keeps the
    STA conservatively awake."""
    power.wake(now_ns)
    if tim_bit is False:
        power.doze(now_ns)


def intra_ppdu_doze(power: PowerState, now_ns: int, frame_class: str,
                    involves_me: bool, ppdu_end_ns: int) -> int | None:
    """Doze through an intra-BSS PPDU that does not involve this STA; returns
    the scheduled wake time (exactly the PPDU end) or None."""
    if frame_class != INTRA_BSS or involves_me:
        return None
    power.doze(now_ns)
    return ppdu_end_ns
