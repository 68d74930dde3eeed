import numpy as np
import pytest
from hypothesis import given, strategies as st

from axsim.config import MacSection
from axsim.core import (DIFS, SEC, SIFS, SLOT_TIME, US, PastEventError, RngSet,
                        Simulator)


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
