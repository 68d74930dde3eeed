import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axsim.config import MacSection, default_config
from axsim.contention import cap_at
from axsim.core import DIFS, SIFS, SLOT_TIME, US, RngSet
from axsim.engine import RunContext
from axsim.medium import Transmission
from axsim.traffic import CbrFlow


MAC = MacSection()


# --- backoff ---------------------------------------------------------------------

def contender(**mac):
    """The contention of a one-STA ac_baseline UL BSS, whose MacSection
    takes the `mac` fields, and its STA."""
    cfg = default_config("indoor_single", stas_per_bss=1, duration_s=0.01)
    for key, value in mac.items():
        setattr(cfg.mac, key, value)
    ctx = RunContext(cfg, "ac_baseline")
    return ctx.contention, ctx.engines[0].stas[0]


def test_backoff_uniform_chi_square():
    contention, sta = contender()
    n = 100_000
    counts = [0] * 16
    for _ in range(n):
        contention.redraw(sta, success=True)
        counts[contention.counter[sta.node_id]] += 1
    expected = n / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 45.0  # df=15, far beyond the 0.1% critical value 37.7


def test_backoff_degenerate_window():
    contention, sta = contender(cw_min=0, cw_max=0)
    contention.start(sta)
    assert contention.counter[sta.node_id] == 0
    contention.redraw(sta, success=False)
    assert (contention.cw[sta.node_id], contention.counter[sta.node_id]) == (0, 0)


def test_cw_doubling_saturates_at_1023():
    contention, sta = contender()
    assert contention.cw[sta.node_id] == MAC.cw_min == 15
    for _ in range(6):
        contention.redraw(sta, success=False)
    assert contention.cw[sta.node_id] == min(1023, 2 ** 6 * 16 - 1) == 1023


def test_cw_resets_after_any_success():
    contention, sta = contender()
    for _ in range(4):
        contention.redraw(sta, success=False)
    assert contention.cw[sta.node_id] > 15
    contention.redraw(sta, success=True)
    assert contention.cw[sta.node_id] == 15


@pytest.mark.parametrize("direction", ["ul", "dl"])
@pytest.mark.parametrize("scheme", ["ac_baseline", "ax_ofdma", "ax_ofdma_mumimo", "ax_sr"])
def test_contenders_are_fixed_when_the_run_is_built(scheme, direction):
    """Before the run, the contention maps exactly the engines' contending
    nodes, each to its own BSS's engine: every STA under the 11ac scheme's
    uplink, every AP otherwise."""
    ctx = RunContext(default_config("indoor_multi", n_bss=3, stas_per_bss=4,
                                    direction=direction, duration_s=0.01), scheme)
    stas_contend = scheme == "ac_baseline" and direction == "ul"
    want = {n.node_id: e for e in ctx.engines for n in e.nodes if n.is_ap != stas_contend}
    assert ctx.contention.engine_of == want
    assert set(want) == {n.node_id for e in ctx.engines for n in e.contending}


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
    ctx.sim.run_until(1)        # past the frame's start event, at 0
    return engine, sta


def test_cs_idle_below_threshold():
    engine, sta = sensing_sta(-90.0)
    blocked, cap = engine.cs_state()
    assert (blocked.item(sta.node_id), cap_at(cap, sta.node_id)) == (False, math.inf)


def test_cs_threshold_is_busy_inclusive():
    engine, sta = sensing_sta(-82.0)
    blocked, cap = engine.cs_state()
    assert (blocked.item(sta.node_id), cap_at(cap, sta.node_id)) == (True, math.inf)


def test_cs_virtual_dominates():
    engine, sta = sensing_sta(-90.0)
    nav = engine.ctx.nav
    nav.update(np.array([sta.node_id]), np.array([True]), engine.sim.now, 500 * US,
               is_cf_end=False)
    contention = engine.ctx.contention
    contention.start(sta)
    assert contention.pending[sta.node_id]
    assert contention.armed_at[sta.node_id] == nav.intra_expiry_ns[sta.node_id] \
        == 500 * US + 1


# --- TXOP exchange ----------------------------------------------------------------------
#
# One ac_baseline UL STA alone with its AP on a 60 dB link: 18 dBm over 60 dB
# against -94 dBm of noise, plus 3 dB of array gain at the AP, selects MCS 9
# (256-QAM 5/6), the 11ac maximum, over nss = min(4, 8) = 4 streams in
# 20 MHz (52 data subcarriers).

NSS = 4
BPS = 52 * 8 * 5 / 6 * NSS                   # data bits per 4 us VHT symbol
MPDU_BITS = 8 * (1500 + 30 + 8)              # payload, MAC header, delimiter + FCS
CAP = 64                                     # 11ac A-MPDU cap


def control_ns(n_bytes):
    """Legacy 6 Mbps control frame: 20 us preamble, then 4 us symbols of
    24 bits carrying the frame, SERVICE and tail."""
    return 20 * US + math.ceil((8 * n_bytes + 22) / 24) * 4 * US


def ampdu_ns(k):
    """A VHT A-MPDU of k MPDUs: 20 + 8 + 4 + 4*nss + 4 us of preamble, then
    ceil((k * mpdu_bits + 22) / bps) symbols of 4 us."""
    return (20 + 8 + 4 + 4 * NSS + 4) * US \
        + math.ceil((k * MPDU_BITS + 22) / BPS) * 4 * US


RTS_NS, CTS_NS, BA_NS = control_ns(20), control_ns(14), control_ns(32)


class Burst(CbrFlow):
    """n packets, all queued at t = 0, and none after: the flow's slot of
    its BSS's flow arrays gets no arrivals (rate 0) and seqs 0 to n - 1 in
    its retry queue, and this handle on the slot counts them enqueued at 0."""

    def __init__(self, flow, n):
        super().__init__(flow.table, flow.slot, flow.flow_id, flow.packet_bytes)
        self.table.interval_ns[self.slot] = math.inf
        self.requeue(np.arange(n, dtype=np.int64))

    def enqueued_ns(self, seqs):
        return np.zeros(len(seqs), dtype=np.int64)


def isolated_txops(queued, loss_db=60.0, until_ns=10_000 * US, engine_setup=None):
    """Run one ac_baseline UL STA with `queued` packets at t = 0 on a
    loss_db link to its AP; returns (engine, STA, every frame sent)."""
    ctx = RunContext(default_config("indoor_single", stas_per_bss=1,
                                    duration_s=0.01, warmup_fraction=0.0),
                     "ac_baseline")
    engine = ctx.engines[0]
    ap, sta = engine.ap, engine.stas[0]
    ctx.loss_db[ap.node_id, sta.node_id] = ctx.loss_db[sta.node_id, ap.node_id] = loss_db
    sta.flow = Burst(sta.flow, queued)
    if engine_setup:
        engine_setup(engine)
    sent = []
    ctx.medium.listeners.append(lambda event, tx: event == "start" and sent.append(tx))
    engine.kick()
    ctx.sim.run_until(until_ns)
    return engine, sta, sent


def first_txop(sent):
    """The frames of the first TXOP: its RTS up to the next RTS or CF-End."""
    assert sent[0].kind == "rts"
    end = next((k for k, tx in enumerate(sent[1:], 1)
                if tx.kind in ("rts", "cf-end")), len(sent))
    return sent[:end], sent[end:]


def closed_form_txop(rts_start, queued, limit_ns):
    """[(kind, start, end)] of one lossless TXOP: RTS, SIFS + CTS, then
    rounds of SIFS + A-MPDU + SIFS + BA, each A-MPDU the largest that the
    queue, the cap and the TXOP budget allow."""
    deadline = rts_start + limit_ns
    out = [("rts", rts_start, rts_start + RTS_NS)]
    t = rts_start + RTS_NS + SIFS
    out.append(("cts", t, t + CTS_NS))
    t += CTS_NS
    while True:
        k = max(k for k in range(min(CAP, queued) + 1)
                if k == 0 or t + SIFS + ampdu_ns(k) + SIFS + BA_NS <= deadline)
        if k == 0:
            return out
        queued -= k
        out.append(("ampdu", t + SIFS, t + SIFS + ampdu_ns(k)))
        t += SIFS + ampdu_ns(k) + SIFS
        out.append(("ba", t, t + BA_NS))
        t += BA_NS


def test_isolated_txop_matches_the_closed_form_airtime():
    # At the default limit and at limits up to one MPDU's airtime (about
    # 36 us) above it, in 4 us steps: at some of them the last aggregate
    # fits with less than a SIFS to spare, so a budget off by a SIFS shows.
    for limit_us in range(3008, 3048 + 1, 4):
        engine, sta, sent = isolated_txops(
            1000, engine_setup=lambda e: setattr(e.cfg.mac, "txop_limit_us", limit_us))
        txop, _ = first_txop(sent)
        got = [(tx.kind, tx.start_ns, tx.end_ns) for tx in txop]
        assert got == closed_form_txop(txop[0].start_ns, 1000, limit_us * US), limit_us
        assert [kind for kind, *_ in got] == ["rts", "cts"] + ["ampdu", "ba"] * 2
        assert [tx.tx_node for tx in txop] == [sta.node_id, engine.ap.node_id] * 3


def test_lossless_single_mpdu_airtime():
    engine, sta, sent = isolated_txops(1)
    txop, rest = first_txop(sent)
    assert [tx.kind for tx in txop] == ["rts", "cts", "ampdu", "ba"]
    # airtime = RTS + CTS + A-MPDU + BA + 3 SIFS, nothing else
    assert txop[-1].end_ns - txop[0].start_ns == \
        RTS_NS + CTS_NS + ampdu_ns(1) + BA_NS + 3 * SIFS
    assert [(tx.kind, tx.start_ns) for tx in rest] == [("cf-end", txop[-1].end_ns)]
    assert engine.ctx.stats[sta.node_id].delivered[:1].tolist() == [True]
    assert sta.flow.backlog_count(engine.sim.now) == 0


def test_total_loss_requeues_and_doubles_cw():
    # the AP cannot hear the RTS: the CTS times out, nothing is sent, the
    # packet stays queued and the window doubles before the next attempt
    engine, sta, sent = isolated_txops(1, loss_db=200.0, until_ns=0)
    while not sent:
        engine.sim.run_until(engine.sim.now + SLOT_TIME)
    engine.sim.run_until(sent[0].end_ns + SIFS + CTS_NS + SLOT_TIME)    # CTS timeout
    assert [tx.kind for tx in sent] == ["rts"]
    assert engine.ctx.contention.cw[sta.node_id] == 31
    assert sta.flow.backlog_count(engine.sim.now) == 1
    stats = engine.ctx.stats[sta.node_id]
    assert stats.mpdu_attempts == 0 and not stats.delivered.any()


def test_40_mpdus_fit_the_txop_budget_oracle():
    # Independent airtime budget: does a 40-MPDU aggregate at MCS 9, 20 MHz,
    # 4 streams complete inside 3.008 ms including protection and
    # acknowledgements?
    oracle_total = RTS_NS + SIFS + CTS_NS + SIFS + ampdu_ns(40) + SIFS + BA_NS
    assert oracle_total <= MacSection().txop_limit_us * US
    engine, sta, sent = isolated_txops(40)
    txop, _ = first_txop(sent)
    assert [tx.kind for tx in txop] == ["rts", "cts", "ampdu", "ba"]
    assert txop[-1].end_ns - txop[0].start_ns == oracle_total
    assert engine.ctx.stats[sta.node_id].delivered[:40].all()


def test_txop_budget_limits_aggregate_count():
    # The budget, not the queue, bounds the exchange: the last BA ends within
    # the TXOP limit of the RTS start, the last aggregate is smaller than
    # the cap and the queue, and no further one would fit.
    engine, sta, sent = isolated_txops(1000)
    txop, _ = first_txop(sent)
    limit = engine.cfg.mac.txop_limit_us * US
    deadline = txop[0].start_ns + limit
    assert txop[-1].kind == "ba" and txop[-1].end_ns <= deadline
    ampdus = [tx for tx in txop if tx.kind == "ampdu"]
    sizes = [max(k for k in range(CAP + 1)
                 if ampdu_ns(k) <= tx.end_ns - tx.start_ns) for tx in ampdus]
    assert sizes[:-1] == [CAP] * (len(sizes) - 1)
    assert 0 < sizes[-1] < CAP and sum(sizes) < 1000
    assert txop[-1].end_ns + SIFS + ampdu_ns(1) + SIFS + BA_NS > deadline


class ScriptedPer:
    """rng_per stand-in: control frames always decode, and the k-th A-MPDU's
    MPDU draws are the k-th script entry (then all survive); a single-user
    round draws for its one A-MPDU in one call."""

    def __init__(self, script):
        self.script = list(script)

    def random(self):
        return 0.99

    def random_array(self, k):
        draws = self.script.pop(0) if self.script else [0.99] * k
        assert len(draws) == k
        return np.array(draws)


def test_failed_mpdus_retry_within_txop():
    # The first aggregate loses MPDUs 0 and 2; the BA reports them and the
    # next aggregate of the same TXOP carries them again, first.
    carried = []

    def setup(engine):
        engine.rng_per = ScriptedPer([[0.0, 0.99, 0.0]])
        outcomes = engine.mpdu_outcomes

        def record(ampdus):
            carried.extend(seqs.tolist() for _, seqs, _, _ in ampdus)
            return outcomes(ampdus)
        engine.mpdu_outcomes = record

    engine, sta, sent = isolated_txops(3, engine_setup=setup)
    txop, rest = first_txop(sent)
    assert [tx.kind for tx in txop] == ["rts", "cts"] + ["ampdu", "ba"] * 2
    assert carried == [[0, 1, 2], [0, 2]]
    assert [tx.kind for tx in rest] == ["cf-end"]
    stats = engine.ctx.stats[sta.node_id]
    assert (stats.mpdu_attempts, stats.mpdu_failures) == (5, 2)
    assert stats.delivered[:3].all()


@settings(deadline=None)
@given(st.integers(0, 80), st.floats(0, 1), st.integers(1, 9999))
def test_conservation_under_random_loss(n, per_value, seed):
    # every frame of the exchange fails with per_value; once no TXOP runs,
    # every packet is delivered or still queued, and none is invented
    def setup(engine):
        engine.ctx.per_model.per = lambda sinr, mcs, bits: per_value
        engine.rng_per = RngSet(seed).stream("per")

    engine, sta, sent = isolated_txops(n, until_ns=5_000 * US, engine_setup=setup)
    while sta.in_txop:
        engine.sim.run_until(engine.sim.now + SLOT_TIME)
    now = engine.sim.now
    stats = engine.ctx.stats[sta.node_id]
    delivered = set(np.flatnonzero(stats.delivered).tolist())
    queued = sta.flow.take(now, n).tolist()
    assert len(queued) == len(set(queued))
    assert delivered | set(queued) == set(range(n))
    assert stats.delivered_pkts == len(delivered) <= n
    assert stats.mpdu_attempts - stats.mpdu_failures >= len(delivered)
