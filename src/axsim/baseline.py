"""Comparison-scheme MAC state: the EDCA backoff window of a contending
node, and the typed state of a running TXOP.  The engines in ``engine`` run
the exchanges themselves."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .phy import Mcs

if TYPE_CHECKING:
    from .engine import SimNode
    from .traffic import CbrFlow


@dataclass
class BackoffState:
    """A node's EDCA contention window between the MacSection's cw_min and
    cw_max, starting at cw_min."""

    cw_min: int
    cw_max: int
    cw: int = field(init=False)

    def __post_init__(self):
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
    peer, the flow it serves and the link (MCS, data bits per symbol).
    Every frame of the TXOP goes out through ``BssEngine.send`` with it,
    which sets the frame's Duration to what is left of the reservation
    after the frame ends."""

    holder: SimNode
    deadline_ns: int
    any_data: bool = False
    peer: SimNode | None = None
    flow: CbrFlow | None = None
    link: tuple[Mcs, float] | None = None
