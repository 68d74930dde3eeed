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

CW_MIN = 15
CW_MAX = 1023


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
