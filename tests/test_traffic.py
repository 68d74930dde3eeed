"""Packets as sequence numbers: CBR queues, a BSS's flows as arrays,
delivery counts and the per-round PER draw, each against the per-packet
form it replaces."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, strategies as st

from axsim import phy
from axsim.config import default_config
from axsim.core import RngSet
from axsim.engine import RunContext
from axsim.traffic import CbrFlow, FlowStats, FlowTable


def cbr(rate_bps: float = 13e6, phase_ns: int = 12_345) -> CbrFlow:
    # 1500-byte packets at 13 Mbps: a non-integer interval, so enqueue
    # times depend on the rounding
    return FlowTable([7], rate_bps, 1500, [phase_ns]).flows[0]


class ScalarQueue:
    """The per-packet queue: retries in a list, fresh arrivals one by one."""

    def __init__(self, flow: CbrFlow):
        self.flow = flow
        self.next_seq = 0
        self.retry: list[int] = []

    def take(self, now_ns: int, n: int) -> list[int]:
        out = self.retry[:n]
        del self.retry[:len(out)]
        for _ in range(min(n - len(out), self.flow.arrivals_by(now_ns) - self.next_seq)):
            out.append(self.next_seq)
            self.next_seq += 1
        return out

    def requeue(self, seqs: list[int]) -> None:
        self.retry = list(seqs) + self.retry


def test_take_and_requeue_follow_the_per_packet_queue():
    flow = cbr()
    ref = ScalarQueue(cbr())
    script = random.Random(5)
    now = 0
    for _ in range(400):
        now += script.randint(0, 3_000_000)
        n = script.choice((0, 1, 2, 3, 5, 40))    # small n builds a retry backlog
        got = flow.take(now, n)
        want = ref.take(now, n)
        assert got.dtype == np.int64
        assert got.tolist() == want
        # the receiver loses some, and the sender may lose the BA
        lost = [script.random() < 0.3 for _ in want]
        failed = [s for s, gone in zip(want, lost) if gone]
        back = want if script.random() < 0.1 else failed
        flow.requeue(np.array(back, dtype=np.int64))
        ref.requeue(back)
        assert flow.retry.tolist() == ref.retry
        assert flow.backlog_count(now) == \
            len(ref.retry) + flow.arrivals_by(now) - ref.next_seq


def test_the_array_backlog_follows_each_flow_of_the_bss():
    """A BSS's flow arrays against a per-packet queue per flow, over a
    random script of times, takes and requeues: 13 Mbps flows (a
    non-integer interval), one whose phase is still ahead for a while, and
    one scripted to rate 0 that only ever holds what it is given back."""
    phases = [0, 12_345, 400_000_000, 0, 923_077]
    table = FlowTable([10, 11, 12, 13, 14], 13e6, 1500, phases)
    table.interval_ns[3] = math.inf
    refs = [ScalarQueue(flow) for flow in table.flows]
    script = random.Random(11)
    now = 0
    for _ in range(600):
        now += script.randint(0, 2_000_000)
        k = script.randrange(len(refs))
        flow, ref = table.flows[k], refs[k]
        n = script.choice((0, 1, 2, 5, 40))
        got = flow.take(now, n)
        want = ref.take(now, n)
        assert got.tolist() == want
        failed = [s for s in want if script.random() < 0.3]
        back = want if script.random() < 0.1 else failed
        if k == 3 and script.random() < 0.2:
            back = back + [1000 + now % 97]    # the rate-0 flow is handed seqs
        flow.requeue(np.array(back, dtype=np.int64))
        ref.requeue(back)
        backlog = table.backlog(now)
        assert backlog.dtype == np.int64
        assert backlog.tolist() == [
            len(r.retry) + r.flow.arrivals_by(now) - r.next_seq for r in refs]
        assert backlog.tolist() == [f.backlog_count(now) for f in table.flows]
        assert table.retry_len.tolist() == [len(r.retry) for r in refs]
    assert now > phases[2] and refs[2].next_seq > 0 and table.backlog(now)[3] >= 0


@given(st.integers(-10**10, 10**10), st.integers(0, 10**10),
       st.floats(1.0, 1e9, allow_nan=False, allow_infinity=False))
def test_numpy_floor_division_is_pythons(now, phase, interval):
    """FlowTable.backlog's arrivals equal CbrFlow.arrivals_by's scalar
    int((now - phase) // interval) to the packet."""
    got = (np.array([now], dtype=np.int64) - np.array([phase], dtype=np.int64)) \
        // np.array([interval])
    assert int(got.astype(np.int64)[0]) == int((now - phase) // interval)


def test_retries_come_before_fresh_arrivals():
    flow = cbr()
    first = flow.take(10_000_000, 5)
    assert first.tolist() == [0, 1, 2, 3, 4]
    flow.requeue(first[[1, 3]])
    assert flow.take(10_000_000, 1).tolist() == [1]
    flow.requeue(np.array([1], dtype=np.int64))     # failed again: in front of 3
    assert flow.take(10_000_000, 4).tolist() == [1, 3, 5, 6]
    assert flow.take(10_000_000, 2).tolist() == [7, 8]


def test_enqueue_times_are_the_rounded_arrival_instants():
    flow = cbr()
    seqs = flow.take(5_000_000_000, 5_000)
    assert len(seqs) == 5_000
    want = [round(flow.phase_ns + s * flow.interval_ns) for s in seqs.tolist()]
    assert flow.enqueued_ns(seqs).tolist() == want


def reference_counts(flow: CbrFlow, deliveries) -> tuple[int, int, int]:
    """(bytes, packets, delay sum) of per-packet deliveries, each seq at its
    first delivery and only inside the window."""
    seen = set()
    total_bytes = pkts = delay = 0
    for seqs, now, in_window in deliveries:
        for s in seqs:
            if s in seen:
                continue
            seen.add(s)
            if in_window:
                total_bytes += flow.packet_bytes
                pkts += 1
                delay += now - round(flow.phase_ns + s * flow.interval_ns)
    return total_bytes, pkts, delay


def test_delivery_counts_match_the_per_packet_reference():
    flow = cbr()
    deliveries = [
        ([0, 1, 2], 5_000_000, False),        # warm-up: marked, not counted
        ([2, 3], 6_000_000, True),            # 2 was delivered in warm-up
        ([3, 4], 7_000_000, True),            # 3 again: a duplicate
        ([900, 5, 899], 900_000_000, True),   # past the bitmap, out of order
        ([6], 901_000_000, False),
        ([6, 7, 900], 902_000_000, True),
    ]
    stats = FlowStats()
    for seqs, now, in_window in deliveries:
        stats.on_delivery(flow, np.array(seqs, dtype=np.int64), now, in_window)
    assert (stats.delivered_bytes, stats.delivered_pkts, stats.delay_sum_ns) == \
        reference_counts(flow, deliveries)
    assert stats.delivered_pkts == 6            # 3, 4, 900, 5, 899 and 7
    assert np.flatnonzero(stats.delivered).tolist() == \
        [0, 1, 2, 3, 4, 5, 6, 7, 899, 900]


def test_a_duplicate_seq_counts_once():
    flow = cbr()
    stats = FlowStats()
    for _ in range(3):
        stats.on_delivery(flow, np.array([4], dtype=np.int64), 50_000_000, True)
    assert stats.delivered_pkts == 1
    assert stats.delivered_bytes == flow.packet_bytes
    assert stats.delay_sum_ns == 50_000_000 - round(flow.phase_ns + 4 * flow.interval_ns)


def test_one_draw_per_mpdu_in_order():
    cfg = default_config("indoor_single", direction="dl", stas_per_bss=4,
                         duration_s=0.05)
    ctx = RunContext(cfg, "ax_ofdma")
    engine = ctx.engines[0]
    flow = engine.stas[0].flow
    mcs = phy.Mcs(5)
    ref = RngSet(cfg.seed).stream(f"per-{engine.bss_id}")
    seqs = np.array([11, 3, 4, 5, 9, 12, 13], dtype=np.int64)
    # an effective SINR on the waterfall, so some MPDUs fail and some survive
    sinr = ctx.per_model.thresholds_db[5] + 1.0
    p_err = ctx.per_model.per(sinr, mcs, engine.mpdu_bits)
    assert 0.05 < p_err < 0.95
    for _ in range(20):
        draws = [ref.random() for _ in seqs]
        [(survivors, failed)] = engine.mpdu_outcomes([(flow, seqs, sinr, mcs)])
        assert survivors.tolist() == [s for s, u in zip(seqs.tolist(), draws)
                                      if u >= p_err]
        assert failed.tolist() == [s for s, u in zip(seqs.tolist(), draws)
                                   if u < p_err]
    # a hard corruption fails everything and draws nothing
    [(survivors, failed)] = engine.mpdu_outcomes([(flow, seqs, None, mcs)])
    assert len(survivors) == 0 and failed.tolist() == seqs.tolist()
    assert engine.rng_per.random() == ref.random()
    stats = ctx.stats[flow.flow_id]
    assert stats.mpdu_attempts == 21 * len(seqs)
