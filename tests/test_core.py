import copy
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axsim.config import MacSection, default_config
from axsim.core import (DIFS, SEC, SIFS, SLOT_TIME, US, PastEventError, RngSet,
                        Simulator)
from axsim.engine import RunContext
from axsim.traffic import FlowStats


def test_protocol_constants_are_exact_ns_multiples():
    assert SIFS == 16_000
    assert DIFS == 34_000
    assert DIFS - SIFS == 2 * SLOT_TIME
    assert MacSection().txop_limit_us * US == 3_008_000


def test_tiebreak_by_insertion_order():
    sim = Simulator()
    fired = []
    sim.at(100, lambda: fired.append("first"))
    sim.at(100, lambda: fired.append("second"))
    sim.run_until(100)
    assert fired == ["first", "second"]


def test_event_at_now_runs_before_later_events():
    sim = Simulator()
    fired = []
    sim.at(50, lambda: fired.append("later"))
    sim.run_until(10)
    sim.at(10, lambda: fired.append("now"))
    sim.run_until(SEC)
    assert fired == ["now", "later"]


def test_scheduling_in_the_past_aborts():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(PastEventError, match="past event"):
        sim.at(99, lambda: None)


def test_reserved_seqs_keep_the_place_at_would_have_given():
    sim = Simulator()
    fired = []
    first = sim.reserve(2)
    sim.at(100, lambda: fired.append("after the reserve"))
    # pushed last and out of order, fired in the order of their seqs
    sim.at_seq(100, first + 1, lambda: fired.append("second reserved"))
    sim.at_seq(100, first, lambda: fired.append("first reserved"))
    assert sim.scheduled == 3
    sim.run_until(100)
    assert fired == ["first reserved", "second reserved", "after the reserve"]


def test_a_push_at_a_reserved_seq_in_the_past_aborts():
    sim = Simulator()
    seq = sim.reserve(1)
    sim.run_until(100)
    with pytest.raises(PastEventError, match="past event"):
        sim.at_seq(99, seq, lambda: None)


def test_a_push_at_a_seq_never_handed_out_is_rejected():
    sim = Simulator()
    sim.reserve(2)
    for seq in (2, -1):
        with pytest.raises(ValueError, match="never handed out"):
            sim.at_seq(0, seq, lambda: None)
    assert sim._heap == []


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(SEC) == 0
    assert sim.now == SEC


def test_run_until_boundary_inclusive():
    sim = Simulator()
    for t in (10, 20, 30, 40):
        sim.at(t, lambda: None)
    assert sim.run_until(30) == 3
    assert sim.now == 30
    assert sim.scheduled - sim.processed == 1


def _trace_of_run(seed: int) -> list[tuple[int, int]]:
    # Small self-scheduling workload: each event records (time, node) and
    # reschedules a random follow-up.
    trace = []
    sim = Simulator()
    rng = RngSet(seed).stream("workload")

    def hop(node: int):
        def fire():
            trace.append((sim.now, node))
            if sim.now < 900 * US:
                delay = rng.randint(1, 50) * US
                sim.after(delay, hop(rng.randint(0, 7)))
        return fire

    for node in range(4):
        sim.at(node * US, hop(node))
    sim.run_until(1000 * US)
    return trace


def test_replayed_run_has_byte_identical_trace():
    assert _trace_of_run(7) == _trace_of_run(7)


def test_different_seed_changes_trace():
    assert _trace_of_run(7) != _trace_of_run(8)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_dequeue_times_monotone_and_no_event_loss(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.at(t, lambda t=t: seen.append(t))
    assert sim.scheduled - sim.processed == len(times)
    sim.run_until(10_000)
    assert sim.scheduled - sim.processed == 0
    assert sim.processed == len(times)
    assert seen == sorted(seen)


def test_rng_streams_are_independent_and_reproducible():
    a = RngSet(42)
    b = RngSet(42)
    assert [a.stream("backoff").randint(0, 1023) for _ in range(20)] == \
           [b.stream("backoff").randint(0, 1023) for _ in range(20)]
    # Draining one stream must not disturb another.
    c = RngSet(42)
    c.stream("uora").randint(0, 1023)
    assert c.stream("backoff").randint(0, 1023) == RngSet(42).stream("backoff").randint(0, 1023)


def test_rng_stream_is_stateful_not_reseeded_per_call():
    s = RngSet(1).stream("placement")
    draws = [s.randint(0, 99) for _ in range(50)]
    assert len(set(draws)) > 1


@pytest.mark.parametrize("sigma", [1.0, 8.0])
def test_gauss_array_equals_repeated_gauss(sigma):
    # odd counts leave a Box-Muller value carried into the next call
    fast = RngSet(3).stream("shadowing")
    slow = RngSet(3).stream("shadowing")
    for k in (0, 1, 2, 7, 0, 7, 1, 2, 2, 1000):
        got = fast.gauss_array(k, sigma)
        want = [slow.gauss(0.0, sigma) for _ in range(k)]
        assert got.shape == (k,)
        # numpy's log, cos and sin may differ from math's in the last ulp
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert fast.gauss_next == slow.gauss_next
        assert fast.random() == slow.random()
    assert fast.gauss(0.0, sigma) == slow.gauss(0.0, sigma)
    assert fast.random() == slow.random()


def test_gauss_array_of_nothing_leaves_the_stream():
    fast = RngSet(3).stream("shadowing")
    assert fast.gauss_array(0, 5.0).shape == (0,)
    assert fast.getstate() == RngSet(3).stream("shadowing").getstate()


@pytest.mark.parametrize("carried", [False, True])
def test_random_array_equals_repeated_random(carried):
    fast = RngSet(3).stream("per-0")
    slow = RngSet(3).stream("per-0")
    if carried:
        # one gauss call leaves the pair's second normal in gauss_next,
        # which uniform draws must neither use nor clear
        assert fast.gauss(0.0, 1.0) == slow.gauss(0.0, 1.0)
        assert fast.gauss_next is not None
    for k in (0, 1, 2, 7, 0, 7, 1, 2, 1000):
        got = fast.random_array(k)
        want = [slow.random() for _ in range(k)]
        assert got.shape == (k,)
        assert got.tolist() == want
        assert fast.gauss_next == slow.gauss_next
        assert fast.random() == slow.random()
    assert fast.gauss(0.0, 2.0) == slow.gauss(0.0, 2.0)
    assert fast.gauss(0.0, 2.0) == slow.gauss(0.0, 2.0)
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (64, 200)])
def test_random_array_splits_as_it_is_dealt(a, b):
    """random_array(a + b) is random_array(a) followed by random_array(b),
    and leaves the stream where the two calls would: one draw per round
    deals out what one call per A-MPDU draws."""
    whole = RngSet(9).stream("per-1")
    parts = RngSet(9).stream("per-1")
    got = whole.random_array(a + b)
    want = np.concatenate((parts.random_array(a), parts.random_array(b)))
    assert got.tolist() == want.tolist()
    assert whole.getstate() == parts.getstate()


def _copied(stats: FlowStats) -> FlowStats:
    out = copy.copy(stats)
    out.delivered = stats.delivered.copy()
    return out


def _stats_fields(stats: FlowStats) -> tuple:
    return (stats.delivered_bytes, stats.delivered_pkts, stats.delay_sum_ns,
            stats.mpdu_attempts, stats.mpdu_failures, stats.delivered.tolist())


def _checked_outcomes(bss, seen: Counter):
    """Replace bss._outcome with a check of each round's call against draws
    made per A-MPDU, in user order, from a copy of rng_per: the same
    survivors and failures, the same FlowStats, and rng_per left where
    the per-A-MPDU draws leave the copy.  PerModel.per reads 0.3 at every
    A-MPDU, so both outcomes occur, and is counted."""
    ctx = bss.ctx
    outcome = bss._outcome
    pers = []

    def per(sinr, mcs, bits):
        pers.append(sinr)
        return 0.3

    ctx.per_model.per = per

    def checked(ampdus):
        ref = random.Random()
        ref.setstate(bss.rng_per.getstate())
        now = ctx.sim.now
        want, want_stats = [], {}
        for flow, seqs, sinr, rx, users, mcs in ampdus:
            stats = want_stats[flow.flow_id] = _copied(ctx.stats[flow.flow_id])
            stats.mpdu_attempts += len(seqs)
            if sinr is None or rx.power.dozing:
                seen["hard corruption" if sinr is None else "dozing receiver"] += 1
                stats.mpdu_failures += len(seqs)
                want.append(([], seqs.tolist()))
                continue
            draws = [ref.random() for _ in seqs]
            survivors = [s for s, u in zip(seqs.tolist(), draws) if u >= 0.3]
            failed = [s for s, u in zip(seqs.tolist(), draws) if u < 0.3]
            if survivors:
                stats.on_delivery(flow, np.array(survivors, dtype=np.int64), now,
                                  now >= ctx.cfg.warmup_ns)
            stats.mpdu_failures += len(failed)
            want.append((survivors, failed))
            seen["survivors"] += bool(survivors)
            seen["failures"] += bool(failed)
        drawing = sum(1 for _, seqs, sinr, rx, _, _ in ampdus
                      if sinr is not None and not rx.power.dozing)
        del pers[:]
        got = outcome(ampdus)
        assert len(pers) == drawing
        assert [(s.tolist(), f.tolist()) for s, f in got] == want
        for flow_id, stats in want_stats.items():
            assert _stats_fields(ctx.stats[flow_id]) == _stats_fields(stats)
        assert bss.rng_per.getstate() == ref.getstate()
        seen["rounds of several drawing A-MPDUs"] += drawing > 1
        return got

    bss._outcome = checked


def test_a_dl_data_end_draws_as_per_ampdu_draws_would():
    """Every DL data end over a run, with the first user of each HE-MU
    PPDU hard-corrupted and its last user dozing at the PPDU's end."""
    cfg = default_config("indoor_single", stas_per_bss=16, duration_s=0.1,
                         direction="dl", warmup_fraction=0.0)
    ctx = RunContext(cfg, "ax_ofdma_mumimo")
    bss = ctx.engines[0]
    seen = Counter()
    _checked_outcomes(bss, seen)
    corrupt = [None, None]       # the PPDU at its data end, and its first user
    sinr_db = ctx.medium.sinr_db
    ctx.medium.sinr_db = lambda tx, rx, *args, **kwargs: None \
        if tx is corrupt[0] and rx == corrupt[1] else sinr_db(tx, rx, *args, **kwargs)
    data_done = bss._dl_data_done

    def dl_data_done(txop, tx, taken, ba_on_ru_ns):
        first, last = taken[0][0].sta, taken[-1][0].sta
        corrupt[:] = [tx, first.node_id]
        if last is not first:
            last.power.doze(ctx.sim.now)
        data_done(txop, tx, taken, ba_on_ru_ns)
        if last.power.dozing:
            last.power.wake(ctx.sim.now)

    bss._dl_data_done = dl_data_done
    ctx.run()
    assert min(seen[key] for key in ("hard corruption", "dozing receiver", "survivors",
                                     "failures", "rounds of several drawing A-MPDUs")) > 0, seen


def test_a_ul_round_end_draws_as_per_ampdu_draws_would():
    """Every UL round end over a run, with the first HE-TB PPDU of each
    round hard-corrupted at the AP."""
    cfg = default_config("indoor_single", stas_per_bss=16, duration_s=0.1,
                         direction="ul", warmup_fraction=0.0)
    ctx = RunContext(cfg, "ax_ofdma")
    bss = ctx.engines[0]
    seen = Counter()
    _checked_outcomes(bss, seen)
    corrupt = [None]             # the round's first HE-TB PPDU
    ru_sinr = bss._ru_sinr
    bss._ru_sinr = lambda tx: None if tx is corrupt[0] else ru_sinr(tx)
    round_end = bss._ul_round_end

    def ul_round_end(txop, txs):
        corrupt[0] = txs[0][1] if txs else None
        round_end(txop, txs)

    bss._ul_round_end = ul_round_end
    ctx.run()
    assert min(seen[key] for key in ("hard corruption", "survivors", "failures",
                                     "rounds of several drawing A-MPDUs")) > 0, seen
