"""EDCA contention of a whole run: each node's contention window, backoff
counter and armed attempt, held in arrays indexed by node id and stepped
for every node at once at each medium change; the contenders are fixed
when the run is built.

ns-3's ``ChannelAccessManager`` serves every ``Txop`` from one busy/idle
history in the same way."""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .core import DIFS, SLOT_TIME

if TYPE_CHECKING:
    from .engine import BssEngine, RunContext, SimNode


Caps = tuple[tuple[np.ndarray, np.ndarray], ...]    # per frame: (node ids ascending, caps)


def cap_at(caps: Caps | None, i: int) -> float:
    """The SR power cap at node i from the caps of `BssEngine.cs_state`: the
    lowest any sensed frame sets there, inf for none."""
    cap = math.inf
    for ids, allowed in caps or ():
        k = ids.searchsorted(i)
        if k < len(ids) and ids.item(k) == i:
            cap = min(cap, allowed.item(k))
    return cap


def attempt_times(maximum, now, intra_nav_ns, basic_nav_ns, eifs_ns, counter):
    """(AIFS start, fire time) of an attempt armed at `now`: AIFS starts once
    both NAVs and EIFS have expired, and the attempt fires `counter` slots
    after AIFS.  Takes one node's values with maximum=max, or arrays of them
    with maximum=np.maximum."""
    start = maximum(maximum(intra_nav_ns, basic_nav_ns), maximum(eifs_ns, now))
    return start, start + DIFS + counter * SLOT_TIME


class Contender:
    """Arms and freezes the EDCA attempts of every contending node around
    medium changes; a node's AIFS is DIFS.  `engine_of`, fixed at
    construction, maps each node an engine lists as `contending` to it.

    Per node, indexed by node id: whether it wants the channel (`active`),
    whether an attempt is armed (`pending`), its contention window (`cw`),
    its backoff counter (-1 while none is drawn), when its armed attempt's
    AIFS starts (`armed_at`), the seq of that attempt's event, and the SR
    power cap it transmits under (inf for none).  The cap is taken once,
    when the backoff reaches zero (`_fire`), and holds for the TXOP that
    follows (IEEE 802.11ax-2021, 26.10.2); arming and freezing read only
    whether a node is blocked.  An attempt is stale once its node no longer
    holds its seq: a freeze writes -1, a re-arm a new seq.

    The attempts one step arms share one heap entry at a time
    (`_fire_batch`): it sits at the earliest of them, and when it pops it
    pushes the next whose node still holds its seq, so every live attempt
    fires at its own (time, seq) place and stale ones cost no event,
    except a batch head frozen while in the queue, which pops and does
    nothing.  `gen` counts the medium changes that froze or armed a node.
    """

    def __init__(self, ctx: RunContext, n: int):
        self.ctx = ctx
        self.sim = ctx.sim
        self.engine_of: dict[int, BssEngine] = {
            node.node_id: engine for engine in ctx.engines for node in engine.contending}
        self.active = np.zeros(n, dtype=bool)
        self.pending = np.zeros(n, dtype=bool)
        self.n_active = 0
        self.cw = np.full(n, ctx.cfg.mac.cw_min, dtype=np.int64)
        self.counter = np.full(n, -1, dtype=np.int64)
        self.armed_at = np.zeros(n, dtype=np.int64)
        self.seq = np.full(n, -1, dtype=np.int64)
        self.sr_cap_dbm = np.full(n, math.inf)
        self.gen = 0

    def start(self, node: SimNode) -> None:
        """node wants the channel: it draws a counter if it holds none and
        arms an attempt if its medium is idle."""
        i = node.node_id
        if self.active[i] or node.in_txop:
            return
        self.active[i] = True
        self.n_active += 1
        engine = self.engine_of[i]
        if self.counter[i] < 0:
            self.counter[i] = engine.rng_backoff.randint(0, self.cw.item(i))
        if not engine.cs_state()[0].item(i):
            self._arm(i)

    def redraw(self, node: SimNode, success: bool) -> None:
        """node's TXOP ended: its window resets to cw_min on success and
        doubles up to cw_max on failure, and it draws a new counter."""
        i = node.node_id
        mac = self.ctx.cfg.mac
        cw = mac.cw_min if success else min(2 * (self.cw.item(i) + 1) - 1, mac.cw_max)
        self.cw[i] = cw
        self.counter[i] = self.engine_of[i].rng_backoff.randint(0, cw)

    def on_medium_change(self, blocked: np.ndarray) -> None:
        """Bring every active node's attempt in line with its carrier state
        (`blocked`): freeze the armed attempts on a busy medium, keeping the
        whole slots counted down since AIFS, and arm one on an idle medium."""
        ids = (self.active & (self.pending == blocked)).nonzero()[0]
        if not len(ids):
            return
        self.gen += 1
        busy = blocked[ids]
        frozen = ids[busy]
        if len(frozen):
            self.pending[frozen] = False
            self.seq[frozen] = -1
            elapsed = self.sim.now - DIFS - self.armed_at[frozen]
            self.counter[frozen] = np.maximum(
                self.counter[frozen] - np.maximum(elapsed, 0) // SLOT_TIME, 0)
        if len(frozen) < len(ids):
            self._arm_all(ids[~busy])

    def _arm(self, i: int) -> None:
        """Arm an attempt at node i on an idle medium."""
        nav = self.ctx.nav
        start, fire_at = attempt_times(
            max, self.sim.now, nav.intra_expiry_ns.item(i),
            nav.basic_expiry_ns.item(i), self.ctx.eifs_until_ns.item(i),
            self.counter.item(i))
        self.armed_at[i] = start
        self.pending[i] = True
        seq = self.seq[i] = self.sim.scheduled
        self.sim.at(fire_at, partial(self._fire, i, seq))

    def _arm_all(self, ids: np.ndarray) -> None:
        """_arm at every node of `ids`, in numpy expressions: the attempts
        take consecutive seqs in ascending node id, the places as many _arm
        calls would give them, and go into the queue as one batch ordered
        by (fire time, seq).  start and _fire arm their one node through
        _arm, since a numpy call costs about a microsecond however short
        its array: for one node, 6.2 us here against 1.7 us in _arm on a
        2-vCPU host (CPython 3.11, numpy 2.4)."""
        nav = self.ctx.nav
        start, fire_at = attempt_times(
            np.maximum, self.sim.now, nav.intra_expiry_ns[ids],
            nav.basic_expiry_ns[ids], self.ctx.eifs_until_ns[ids],
            self.counter[ids])
        self.armed_at[ids] = start
        self.pending[ids] = True
        first = self.sim.reserve(len(ids))
        self.seq[ids] = np.arange(first, first + len(ids))
        # seqs ascend with ids, so a stable sort on time orders by (time, seq)
        order = np.argsort(fire_at, kind="stable")
        batch = (ids[order].tolist(), fire_at[order].tolist(),
                 (order + first).tolist())
        self.sim.at_seq(batch[1][0], batch[2][0], partial(self._fire_batch, batch, 0))

    def _fire_batch(self, batch: tuple[list[int], list[int], list[int]],
                    k: int) -> None:
        """Fire the k-th attempt of a batch (nodes, fire times, seqs), then
        push the first later one whose node still holds its seq: a stale
        attempt stays stale, as no seq is handed out twice."""
        nodes, times, seqs = batch
        self._fire(nodes[k], seqs[k])
        seq = self.seq
        for j in range(k + 1, len(nodes)):
            if seq.item(nodes[j]) == seqs[j]:
                self.sim.at_seq(times[j], seqs[j], partial(self._fire_batch, batch, j))
                return

    def _fire(self, i: int, seq: int) -> None:
        if self.seq.item(i) != seq:
            return              # frozen or re-armed since
        self.pending[i] = False
        engine = self.engine_of[i]
        blocked, caps = engine.cs_state()
        if blocked.item(i):
            return              # re-armed by the medium change that clears it
        if not self.ctx.nav.idle(i, self.sim.now):
            self._arm(i)
            return
        self.sr_cap_dbm[i] = cap_at(caps, i)
        self.counter[i] = -1
        self.active[i] = False
        self.n_active -= 1
        engine.on_backoff_complete(self.ctx.nodes[i])
