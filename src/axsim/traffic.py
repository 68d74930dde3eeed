"""Traffic as sequence numbers: the constant-bit-rate sources of a BSS,
held as arrays, and the per-flow delivery counts.  A packet is its flow and
its sequence number; queues, A-MPDUs and deliveries are int64 arrays of
seqs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The empty seq array, shared and read-only like every array of seqs here
NO_SEQS = np.empty(0, dtype=np.int64)
NO_SEQS.flags.writeable = False


class FlowTable:
    """The constant-bit-rate flows of one BSS as arrays, one slot per flow
    in AID order: phase, interval (inf at rate 0), next seq and retry
    length, beside each slot's retry queue.  A read over the BSS is one
    numpy expression (`backlog`); a read or write of one flow goes through
    its handle (`flows`, one `CbrFlow` per slot)."""

    def __init__(self, flow_ids: list[int], rate_bps: float, packet_bytes: int,
                 phases_ns: list[int]):
        n = len(flow_ids)
        self.phase_ns = np.array(phases_ns, dtype=np.int64)
        self.interval_ns = np.full(n, math.inf if rate_bps <= 0
                                   else 8 * packet_bytes * 1e9 / rate_bps)
        self.next_seq = np.zeros(n, dtype=np.int64)
        self.retry_len = np.zeros(n, dtype=np.int64)
        self.retry = [NO_SEQS] * n
        self.flows = [CbrFlow(self, k, flow_id, packet_bytes)
                      for k, flow_id in enumerate(flow_ids)]

    def backlog(self, now_ns: int) -> np.ndarray:
        """Queued packets per slot at now_ns, each equal to its flow's
        `CbrFlow.backlog_count`: numpy's float floor division is Python's."""
        # before its phase a flow's floor is -1 or less, at rate 0 it is 0 or -1
        arrived = np.maximum((now_ns - self.phase_ns) // self.interval_ns, -1.0)
        arrived += 1.0
        arrived *= self.interval_ns < math.inf
        return self.retry_len - self.next_seq + arrived.astype(np.int64)

    def backlogged(self, now_ns: int) -> list[int]:
        """The slots with a backlog at now_ns, ascending."""
        return np.flatnonzero(self.backlog(now_ns) > 0).tolist()


class CbrFlow:
    """Constant-bit-rate source evaluated lazily: queue depth is a function of
    time, so arrivals need no events.  A handle on one slot of its BSS's
    FlowTable, whose arrays hold the flow's state.

    A packet is its sequence number: its size and receiver are the flow's,
    and packet seq arrives at round(phase_ns + seq * interval_ns).
    Queues and A-MPDUs are int64 arrays of seqs, never modified in place.
    take serves the retry queue first, then fresh arrivals in seq order;
    failed seqs return to the front of the retry queue (requeue)."""

    def __init__(self, table: FlowTable, slot: int, flow_id: int, packet_bytes: int):
        self.table = table
        self.slot = slot
        self.flow_id = flow_id
        self.packet_bytes = packet_bytes

    @property
    def phase_ns(self) -> int:
        return self.table.phase_ns.item(self.slot)

    @property
    def interval_ns(self) -> float:
        return self.table.interval_ns.item(self.slot)

    @property
    def retry(self) -> np.ndarray:
        return self.table.retry[self.slot]

    def arrivals_by(self, now_ns: int) -> int:
        interval = self.interval_ns
        if interval == math.inf:
            return 0
        phase = self.phase_ns
        if now_ns < phase:
            return 0
        return int((now_ns - phase) // interval) + 1

    def backlog_count(self, now_ns: int) -> int:
        table, k = self.table, self.slot
        return table.retry_len.item(k) + self.arrivals_by(now_ns) - table.next_seq.item(k)

    def backlog_bytes(self, now_ns: int) -> int:
        return self.backlog_count(now_ns) * self.packet_bytes

    def take(self, now_ns: int, n: int) -> np.ndarray:
        """Up to n queued seqs: the front of the retry queue, then fresh
        arrivals by now_ns."""
        table, k = self.table, self.slot
        retry = self.retry
        head = retry[:n]
        if len(head):
            table.retry[k] = retry[len(head):]
            table.retry_len[k] -= len(head)
        next_seq = table.next_seq.item(k)
        fresh = min(n - len(head), self.arrivals_by(now_ns) - next_seq)
        if fresh <= 0:
            return head
        seqs = np.arange(next_seq, next_seq + fresh, dtype=np.int64)
        table.next_seq[k] = next_seq + fresh
        return np.concatenate((head, seqs)) if len(head) else seqs

    def requeue(self, seqs: np.ndarray) -> None:
        """Put seqs back in front of the retry queue, in their order."""
        if len(seqs):
            table, k = self.table, self.slot
            retry = self.retry
            table.retry[k] = np.concatenate((seqs, retry)) if len(retry) else seqs
            table.retry_len[k] += len(seqs)

    def enqueued_ns(self, seqs: np.ndarray) -> np.ndarray:
        """Arrival instants of seqs: round(phase_ns + seq * interval_ns)."""
        return np.rint(self.phase_ns + seqs * self.interval_ns).astype(np.int64)


@dataclass
class FlowStats:
    """One flow's delivery counts.  A seq counts at its first delivery only
    (a bitmap over seqs remembers which were delivered), and only first
    deliveries inside the measurement window add packets, bytes and delay."""

    delivered_bytes: int = 0
    delivered_pkts: int = 0
    delay_sum_ns: int = 0
    mpdu_attempts: int = 0
    mpdu_failures: int = 0
    delivered: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool),
                                  repr=False, compare=False)

    def on_delivery(self, flow: CbrFlow, seqs: np.ndarray, now_ns: int,
                    in_window: bool) -> None:
        """Count the seqs of flow delivered at now_ns; one call holds each
        seq once, as a flow's queue does."""
        top = int(seqs.max()) + 1
        if top > len(self.delivered):
            grown = np.zeros(max(top, 2 * len(self.delivered)), dtype=bool)
            grown[:len(self.delivered)] = self.delivered
            self.delivered = grown
        new = seqs[~self.delivered[seqs]]
        self.delivered[new] = True
        if in_window and len(new):
            self.delivered_bytes += len(new) * flow.packet_bytes
            self.delivered_pkts += len(new)
            self.delay_sum_ns += len(new) * now_ns - int(flow.enqueued_ns(new).sum())
