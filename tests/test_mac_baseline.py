import math

import numpy as np
from hypothesis import given, settings, strategies as st

from axsim import baseline
from axsim.baseline import BackoffState, SuLink, su_txop_exchange
from axsim.config import default_config
from axsim.core import DIFS, SIFS, SLOT_TIME, TXOP_LIMIT, US, RngSet
from axsim.engine import Contender, RunContext, cap_at
from axsim.frames import (BA_BYTES, CTS_BYTES, RTS_BYTES, Mpdu,
                          legacy_frame_duration_ns)
from axsim.medium import Transmission


class FixedRng:
    def __init__(self, value=0.5):
        self.value = value

    def random(self):
        return self.value

    def randint(self, a, b):
        return a


def make_queue(n, payload=1500):
    return [Mpdu(destination=0, payload_bytes=payload, seq=i) for i in range(n)]


# --- backoff ---------------------------------------------------------------------

def test_backoff_uniform_chi_square():
    state = BackoffState()
    rng = RngSet(11).stream("backoff")
    n = 100_000
    counts = [0] * 16
    for _ in range(n):
        counts[state.draw(rng)] += 1
    expected = n / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 45.0  # df=15, far beyond the 0.1% critical value 37.7


def test_backoff_degenerate_window():
    state = BackoffState(cw=0)
    assert state.draw(FixedRng()) == 0


def test_cw_doubling_saturates_at_1023():
    state = BackoffState()
    for _ in range(6):
        state.on_failure()
    assert state.cw == min(1023, 2 ** 6 * 16 - 1) == 1023


def test_cw_resets_after_any_success():
    state = BackoffState()
    for _ in range(4):
        state.on_failure()
    assert state.cw > 15
    state.on_success()
    assert state.cw == 15


def test_slot_relation():
    assert DIFS - SIFS == 2 * SLOT_TIME
    assert SLOT_TIME == 9_000


# --- carrier sensing ----------------------------------------------------------------

def sensing_sta(rx_dbm):
    """A one-STA ac_baseline BSS whose STA senses one AP frame at rx_dbm."""
    ctx = RunContext(default_config("indoor_single", stas_per_bss=1,
                                    duration_s=0.01), "ac_baseline")
    engine = ctx.engines[0]
    ap, sta = engine.ap, engine.stas[0]
    ctx.loss_db[ap.node_id, sta.node_id] = ctx.loss_db[sta.node_id, ap.node_id] = 60.0
    ctx.medium.transmit(Transmission(0, ap.node_id, 0, "ampdu", 0, 1000 * US,
                                     ctx.subchannels, rx_dbm + 60.0))
    ctx.sim.run_until(1)        # a frame is sensed from after its first instant
    return engine, sta


def test_cs_idle_below_threshold():
    engine, sta = sensing_sta(-90.0)
    blocked, cap = engine.cs_state()
    assert (blocked.item(sta.node_id), cap_at(cap, sta.node_id)) == (False, None)


def test_cs_threshold_is_busy_inclusive():
    engine, sta = sensing_sta(-82.0)
    blocked, cap = engine.cs_state()
    assert (blocked.item(sta.node_id), cap_at(cap, sta.node_id)) == (True, None)


def test_cs_virtual_dominates():
    engine, sta = sensing_sta(-90.0)
    nav = engine.ctx.nav
    nav.update(np.array([sta.node_id]), np.array([True]), engine.sim.now, 500 * US)
    sta.backoff = BackoffState()
    contender = Contender(engine, sta, DIFS)
    contender.start()
    assert contender.pending
    assert contender.armed_at == nav.intra_expiry_ns[sta.node_id] == 500 * US + 1


# --- TXOP exchange ---------------------------------------------------------------------

VHT20_MCS7_4SS = SuLink(bits_per_symbol=52 * 6 * 0.75 * 4)   # 20 MHz, 4 streams


def test_lossless_single_mpdu_airtime():
    result = su_txop_exchange(make_queue(1), VHT20_MCS7_4SS, FixedRng(0.99),
                              per_of=lambda bits: 0.0)
    assert [m.seq for m in result.delivered] == [0]
    assert result.requeued == []
    kinds = [e.kind for e in result.ledger]
    assert kinds == ["rts", "sifs", "cts", "sifs", "ampdu", "sifs", "ba"]
    # airtime = RTS + CTS + A-MPDU + BA + 3 SIFS, nothing else
    mpdu_bits = make_queue(1)[0].onair_bits
    symbols = math.ceil((mpdu_bits + 22) / VHT20_MCS7_4SS.bits_per_symbol)
    expected = (legacy_frame_duration_ns(RTS_BYTES) + legacy_frame_duration_ns(CTS_BYTES)
                + 20_000 + symbols * 4_000
                + legacy_frame_duration_ns(BA_BYTES) + 3 * SIFS)
    assert result.airtime_ns == expected


def test_total_loss_requeues_and_doubles_cw():
    backoff = BackoffState()
    result = su_txop_exchange(make_queue(1), VHT20_MCS7_4SS, FixedRng(0.99),
                              per_of=lambda bits: 1.0, backoff=backoff)
    assert result.delivered == []
    assert len(result.requeued) == 1
    assert backoff.cw == 31
    assert not result.success


def test_40_mpdus_fit_the_txop_budget_oracle():
    # Independent airtime budget: does a 40-MPDU aggregate at MCS7/20 MHz/4SS
    # complete inside 3.008 ms including protection and acknowledgements?
    queue = make_queue(40)
    bits = sum(m.onair_bits for m in queue)
    symbols = math.ceil((bits + 22) / VHT20_MCS7_4SS.bits_per_symbol)
    oracle_total = (legacy_frame_duration_ns(RTS_BYTES) + SIFS
                    + legacy_frame_duration_ns(CTS_BYTES) + SIFS
                    + 20_000 + symbols * 4_000 + SIFS
                    + legacy_frame_duration_ns(BA_BYTES))
    assert oracle_total <= TXOP_LIMIT  # oracle says all 40 fit in one aggregate

    result = su_txop_exchange(queue, VHT20_MCS7_4SS, FixedRng(0.99),
                              per_of=lambda bits: 0.0)
    assert len(result.delivered) == 40
    assert result.airtime_ns == oracle_total
    assert result.airtime_ns <= TXOP_LIMIT


def test_txop_budget_limits_aggregate_count():
    # At a low rate the budget, not the queue, bounds the exchange.
    slow = SuLink(bits_per_symbol=52 * 6 * 0.75)   # single stream
    queue = make_queue(64)
    result = su_txop_exchange(queue, slow, FixedRng(0.99), per_of=lambda b: 0.0)
    assert result.airtime_ns <= TXOP_LIMIT
    assert 0 < len(result.delivered) < 64
    assert len(result.delivered) + len(result.requeued) == 64


def test_failed_mpdus_retry_within_txop():
    # First aggregate loses everything, the retry succeeds, still one TXOP.
    per_values = iter([0.0, 0.0,             # rts, cts
                       1.0, 1.0, 1.0,        # first aggregate: all lost
                       0.0,                  # ba fine
                       0.0, 0.0, 0.0,        # retry: all pass
                       0.0])                 # ba fine
    result = su_txop_exchange(make_queue(3), VHT20_MCS7_4SS, FixedRng(0.5),
                              per_of=lambda bits: next(per_values))
    assert len(result.delivered) == 3
    assert result.requeued == []
    assert [e.kind for e in result.ledger].count("ampdu") == 2


@settings(deadline=None)
@given(st.integers(0, 80), st.floats(0, 1), st.integers(1, 9999))
def test_conservation_under_random_loss(n, per_value, seed):
    rng = RngSet(seed).stream("per")
    queue = make_queue(n)
    result = su_txop_exchange(queue, VHT20_MCS7_4SS, rng, per_of=lambda b: per_value)
    assert len(result.delivered) + len(result.requeued) == n
    assert sum(m.payload_bytes for m in result.delivered) <= sum(
        m.payload_bytes for m in queue)
    assert result.airtime_ns <= TXOP_LIMIT
    assert {m.seq for m in result.delivered} | {m.seq for m in result.requeued} == \
        {m.seq for m in queue}
