"""Traffic as sequence numbers: the constant-bit-rate source and the
per-flow delivery counts.  A packet is its flow and its sequence number;
queues, A-MPDUs and deliveries are int64 arrays of seqs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The empty seq array, shared and read-only like every array of seqs here
NO_SEQS = np.empty(0, dtype=np.int64)
NO_SEQS.flags.writeable = False


class CbrFlow:
    """Constant-bit-rate source evaluated lazily: queue depth is a function of
    time, so arrivals need no events.

    A packet is its sequence number: its size and receiver are the flow's,
    and packet seq arrives at round(phase_ns + seq * interval_ns).
    Queues and A-MPDUs are int64 arrays of seqs, never modified in place.
    take serves the retry queue first, then fresh arrivals in seq order;
    failed seqs return to the front of the retry queue (requeue)."""

    def __init__(self, flow_id: int, rate_bps: float, packet_bytes: int,
                 phase_ns: int):
        self.flow_id = flow_id
        self.packet_bytes = packet_bytes
        self.phase_ns = phase_ns
        self.interval_ns = (math.inf if rate_bps <= 0
                            else 8 * packet_bytes * 1e9 / rate_bps)
        self._next_seq = 0
        self.retry = NO_SEQS

    def arrivals_by(self, now_ns: int) -> int:
        if self.interval_ns == math.inf:
            return 0
        if now_ns < self.phase_ns:
            return 0
        return int((now_ns - self.phase_ns) // self.interval_ns) + 1

    def backlog_count(self, now_ns: int) -> int:
        return len(self.retry) + (self.arrivals_by(now_ns) - self._next_seq)

    def backlog_bytes(self, now_ns: int) -> int:
        return self.backlog_count(now_ns) * self.packet_bytes

    def take(self, now_ns: int, n: int) -> np.ndarray:
        """Up to n queued seqs: the front of the retry queue, then fresh
        arrivals by now_ns."""
        head = self.retry[:n]
        self.retry = self.retry[len(head):]
        fresh = min(n - len(head), self.arrivals_by(now_ns) - self._next_seq)
        if fresh <= 0:
            return head
        seqs = np.arange(self._next_seq, self._next_seq + fresh, dtype=np.int64)
        self._next_seq += fresh
        return np.concatenate((head, seqs)) if len(head) else seqs

    def requeue(self, seqs: np.ndarray) -> None:
        """Put seqs back in front of the retry queue, in their order."""
        if len(seqs):
            self.retry = np.concatenate((seqs, self.retry)) if len(self.retry) \
                else seqs

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
