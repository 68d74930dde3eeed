"""Link adaptation and the noise floor against closed-form link budgets.

The engines select every data MCS through ``BssEngine._link``.  On a medium
without other-BSS traffic its SNR is the transmit power, minus the path
loss, minus the thermal noise in the band, plus the receive array gain of
the streams, minus the MU-MIMO stream penalty when streams share an RU.
These tests restate that budget and compare.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from axsim import frames, phy, spatial
from axsim.config import RadioSection, default_config
from axsim.core import SIFS, US
from axsim.engine import (MIN_SR_TXPWR_DBM, SCHEDULER_TONE_PLAN, VHT_DATA_SUBCARRIERS,
                          RunContext, Txop)
from axsim.medium import SUBCHANNEL_HZ, Transmission
from axsim.ru import data_subcarriers
from axsim.traffic import CbrFlow

TONE_HZ = 78_125.0


def context(scheme: str, kind: str = "outdoor_single", direction: str = "ul",
            **overrides) -> RunContext:
    cfg = default_config(kind, direction=direction, duration_s=0.05, **overrides)
    return RunContext(cfg, scheme)


def budget_mcs(ctx: RunContext, power_dbm: float, tx, rx, band_hz: float,
               ru_tones: int, streams: int, shared: bool, subcarriers: int):
    """(MCS, data bits per symbol) of the closed-form link budget."""
    cfg = ctx.cfg
    noise = -174.0 + 10.0 * math.log10(band_hz) + cfg.radio.noise_figure_db
    snr = power_dbm - ctx.loss_db[tx.node_id, rx.node_id] - noise \
        + 10.0 * math.log10(rx.antennas / min(streams, rx.antennas))
    if shared:
        snr -= cfg.phy.mu_stream_penalty_db
    mcs = ctx.per_model.select_mcs(snr, ru_tones, ctx.features.max_mcs)
    nss = min(cfg.radio.sta_antennas, cfg.radio.ap_antennas)
    return mcs, subcarriers * mcs.bits_per_symbol * float(mcs.coding_rate) * nss


def test_vht_link_uses_the_whole_channel():
    ctx = context("ac_baseline", bandwidth_mhz=80, stas_per_bss=12)
    engine = ctx.engines[0]
    seen = set()
    for sta in engine.stas:
        for tx, rx in ((sta, engine.ap), (engine.ap, sta)):
            power = engine.node_power(tx)
            mcs, bps = engine._link(power, tx, rx)
            want_mcs, want_bps = budget_mcs(ctx, power, tx, rx, 80e6, 0,
                                            engine.nss, False,
                                            VHT_DATA_SUBCARRIERS[80])
            assert mcs == want_mcs and bps == pytest.approx(want_bps)
            seen.add(mcs.index)
    assert len(seen) >= 3


@pytest.mark.parametrize("bandwidth", [20, 80])
def test_he_uplink_link_on_its_ru(bandwidth):
    """A STA alone on its RU, and the same STA sharing it by MU-MIMO: the
    shared link loses the stream penalty and its array gain."""
    ctx = context("ax_ofdma_mumimo", bandwidth_mhz=bandwidth, stas_per_bss=12)
    engine = ctx.engines[0]
    ap = engine.ap
    assert engine.users_per_ru == 2
    seen = set()
    lower_when_shared = 0
    for sta in engine.stas:
        power = engine.node_power(sta)
        for tones in {r.tones for r in engine.layout.rus}:
            alone = engine._link(power, sta, ap, tones)
            shared = engine._link(power, sta, ap, tones, 2)
            for (mcs, bps), streams in ((alone, engine.nss), (shared, 2 * engine.nss)):
                want_mcs, want_bps = budget_mcs(
                    ctx, power, sta, ap, tones * TONE_HZ, tones, streams,
                    streams > engine.nss, data_subcarriers(tones))
                assert mcs == want_mcs and bps == pytest.approx(want_bps)
                assert tones >= 242 or mcs.index <= 9    # no 1024-QAM below 242
                seen.add(mcs.index)
            lower_when_shared += shared[0].index < alone[0].index
    assert len(seen) >= 3 and lower_when_shared > 0


def test_he_downlink_link_splits_the_ap_power():
    """The AP divides its power over the RUs of the layout, and over the
    users of an RU; each user decodes its share."""
    ctx = context("ax_ofdma_mumimo", direction="dl", stas_per_bss=12)
    engine = ctx.engines[0]
    ap = engine.ap
    n_rus = len(engine.layout.rus)
    seen = set()
    for sta in engine.stas:
        for tones in {r.tones for r in engine.layout.rus}:
            for users in (1, 2):
                power = ap.tx_power_dbm - 10.0 * math.log10(n_rus) \
                    - 10.0 * math.log10(users)
                mcs, bps = engine._link(power, ap, sta, tones, users)
                want_mcs, want_bps = budget_mcs(
                    ctx, power, ap, sta, tones * TONE_HZ, tones,
                    engine.nss * users, users > 1, data_subcarriers(tones))
                assert mcs == want_mcs and bps == pytest.approx(want_bps)
                seen.add(mcs.index)
    assert len(seen) >= 3


@pytest.mark.parametrize("scheme, direction", [
    ("ac_baseline", "ul"), ("ac_baseline", "dl"),
    ("ax_ofdma_mumimo", "ul"), ("ax_ofdma_mumimo", "dl"),
])
def test_every_link_of_a_single_bss_run_follows_the_budget(scheme, direction):
    """With one BSS no other-BSS energy reaches link adaptation, so every
    MCS the engine selects during a run is the closed-form one, at the
    power its scheme gives the link: a node's own power, split over the
    RUs and the users of an RU in HE downlink."""
    ctx = context(scheme, direction=direction, kind="indoor_single",
                  stas_per_bss=16)
    engine = ctx.engines[0]
    ap = engine.ap
    calls = []
    link = engine._link

    def recorded(power, tx, rx, tones=None, users=1):
        result = link(power, tx, rx, tones, users)
        calls.append((power, tx, rx, tones, users, result))
        return result

    engine._link = recorded
    ctx.run()
    assert calls
    ofdma = ctx.features.ofdma
    for power, tx, rx, tones, users, result in calls:
        assert (rx is ap) == (direction == "ul")
        want_power = tx.tx_power_dbm
        if tx is ap and ofdma:
            want_power -= 10.0 * math.log10(len(engine.layout.rus)) \
                + 10.0 * math.log10(users)
        assert power == pytest.approx(want_power)
        if ofdma:
            band, subcarriers = tones * TONE_HZ, data_subcarriers(tones)
        else:
            assert tones is None
            tones, band, subcarriers = 0, 20e6, VHT_DATA_SUBCARRIERS[20]
        assert result == budget_mcs(ctx, power, tx, rx, band, tones,
                                    engine.nss * users, users > 1, subcarriers)
    if ofdma:
        assert any(users > 1 for *_, users, _ in calls)


# --- the shortest DL round -----------------------------------------------------------

HE_SCHEMES = ("ax_ofdma", "ax_ofdma_mumimo", "ax_sr")


def dl_engine(scheme: str, bandwidth: int, nss: int):
    cfg = default_config("indoor_single", direction="dl", duration_s=0.05,
                         bandwidth_mhz=bandwidth, stas_per_bss=12)
    cfg.radio.sta_antennas = nss
    engine = RunContext(cfg, scheme).engines[0]
    assert engine.nss == nss
    return engine


def rate(engine, tones: int, index: int) -> tuple[phy.Mcs, float]:
    """(MCS, data bits per symbol) that _link would give at MCS index on an
    RU of tones."""
    mcs = phy.Mcs(index)
    return mcs, engine._bits_per_symbol(data_subcarriers(tones), mcs)


def dl_round(engine, budget_ns: int, backlogs: dict[int, int], index_of) -> tuple[bool, int]:
    """One _dl_round with budget_ns left of the TXOP: STA aid holds
    backlogs[aid] queued MPDUs, and _link gives the STA the MCS
    index_of(node id, tones), not the one its link would select.  send and
    _finish_txop record the outcome instead of acting, and the schedule's
    shuffle draws the same values at every call.  Returns (whether the
    round sent, how many users link adaptation read)."""
    for sta in engine.stas:
        sta.flow = CbrFlow(sta.flow.flow_id, 0.0, engine.cfg.packet_bytes, 0)
        sta.flow.retry = np.arange(backlogs.get(sta.aid, 0), dtype=np.int64)
    links = []

    def link(power, tx, rx, tones=None, users=1):
        links.append(rx)
        return rate(engine, tones, index_of(rx.node_id, tones))

    sent = []
    engine._link = link
    engine.send = lambda *args, **kwargs: sent.append(True)
    engine._finish_txop = lambda txop, success: sent.append(False)
    state = engine.rng_sched.getstate()
    engine._dl_round(Txop(engine.ap, engine.sim.now + budget_ns))
    engine.rng_sched.setstate(state)
    assert len(sent) == 1
    return sent[0], len(links)


@pytest.mark.parametrize("nss", [1, 2])
@pytest.mark.parametrize("scheme", HE_SCHEMES)
@pytest.mark.parametrize("bandwidth", sorted(SCHEDULER_TONE_PLAN))
def test_the_shortest_dl_round_is_at_the_fastest_rate_of_the_layout(bandwidth, scheme,
                                                                     nss):
    """min_dl_round_ns is SIFS, one MPDU and the BA at the highest rate of
    any MCS the scheme allows on any RU of the layout, scanned here over
    every MCS."""
    engine = dl_engine(scheme, bandwidth, nss)
    fastest = max(rate(engine, tones, index)[1]
                  for tones in SCHEDULER_TONE_PLAN[bandwidth]
                  for index in phy.MCS_TABLE
                  if index <= engine.features.max_mcs
                  and (tones >= phy.MIN_RU_TONES_FOR_1024QAM or index <= 9))
    assert engine.min_dl_round_ns == SIFS \
        + frames.data_duration_ns(phy.HE_MU_PPDU, engine.mpdu_bits, fastest) \
        + frames.data_duration_ns(phy.HE_TB_PPDU, 8 * frames.BA_BYTES, fastest)


@pytest.mark.parametrize("nss", [1, 2])
@pytest.mark.parametrize("scheme", HE_SCHEMES)
@pytest.mark.parametrize("bandwidth", sorted(SCHEDULER_TONE_PLAN))
def test_a_dl_round_under_the_floor_fails_the_exact_rule_too(bandwidth, scheme, nss):
    """Over plans of users at MCSs their RUs allow and budgets on both sides
    of min_dl_round_ns, the round decides as the exact rule alone decides
    (min_dl_round_ns 0), and a round under the floor reads no link."""
    engine = dl_engine(scheme, bandwidth, nss)
    floor = engine.min_dl_round_ns
    max_mcs = engine.features.max_mcs
    rng = random.Random(31 * bandwidth + nss)
    seen = Counter()
    for _ in range(10):
        aids = rng.sample(range(1, len(engine.stas) + 1), rng.randint(1, len(engine.stas)))
        backlogs = {aid: rng.choice((1, 2, 5, 64, 256)) for aid in aids}
        share = {sta.node_id: rng.random() for sta in engine.stas}

        def index_of(node_id, tones):
            return int(share[node_id] * (phy.top_mcs(tones, max_mcs).index + 1))

        for extra in (-100 * US, -1, 0, 1, 20 * US, 60 * US, 150 * US, 400 * US,
                      2000 * US):
            budget = floor + extra
            engine.min_dl_round_ns = 0
            exact = dl_round(engine, budget, backlogs, index_of)
            engine.min_dl_round_ns = floor
            got = dl_round(engine, budget, backlogs, index_of)
            if budget < floor:
                assert got == (False, 0) and not exact[0]
                seen["under the floor"] += 1
            else:
                assert got == exact
                seen["sent" if got[0] else "over the floor, too short"] += 1
    assert min(seen.values()) > 0 and len(seen) == 3, seen


@pytest.mark.parametrize("nss", [1, 2])
@pytest.mark.parametrize("scheme", HE_SCHEMES)
@pytest.mark.parametrize("bandwidth", sorted(SCHEDULER_TONE_PLAN))
def test_the_floor_is_tight(bandwidth, scheme, nss):
    """Users on the layout's first RU, the widest, at its top MCS: the exact
    rule alone sends at a budget of min_dl_round_ns and not at one ns less,
    so the floor is that rule's own limit."""
    engine = dl_engine(scheme, bandwidth, nss)
    tones = engine.layout.rus[0].tones
    assert tones == max(engine.layout.tone_sizes)
    backlogs = {aid: 1 for aid in range(1, engine.users_per_ru + 1)}

    def top(node_id, ru_tones):
        assert ru_tones == tones
        return phy.top_mcs(ru_tones, engine.features.max_mcs).index

    floor = engine.min_dl_round_ns
    users = engine.users_per_ru
    assert dl_round(engine, floor, backlogs, top) == (True, users)
    assert dl_round(engine, floor - 1, backlogs, top) == (False, 0)
    engine.min_dl_round_ns = 0
    assert dl_round(engine, floor, backlogs, top) == (True, users)
    assert dl_round(engine, floor - 1, backlogs, top) == (False, users)


# --- the configured noise figure ----------------------------------------------------

def test_configured_noise_figure_sets_every_noise_floor():
    """Decode SINR, NAV readability and spatial-reuse link viability all use
    the configured noise figure, not the 7 dB default."""
    nf = 12.0
    cfg = default_config("outdoor_multi", n_bss=4, stas_per_bss=6, duration_s=0.05)
    cfg.radio.noise_figure_db = nf
    ctx = RunContext(cfg, "ax_sr")
    nodes = np.arange(len(ctx.nodes))

    def frame(node):
        """A frame of node from now for 100 us, on the air alone."""
        now = ctx.sim.now
        tx = ctx.medium.transmit(Transmission(
            0, node.node_id, node.bss_id, "ampdu", now, now + 100 * US,
            ctx.subchannels, node.tx_power_dbm, color=node.color,
            nav_duration_ns=1000 * US))
        ctx.sim.run_until(now)                      # its start event
        assert ctx.medium.sensed() == [tx]
        return tx

    ap = ctx.engines[0].ap
    tx = frame(ap)                                   # alone on the medium
    noise = phy.noise_dbm(SUBCHANNEL_HZ, nf)
    snr = tx.power_per_subchannel_dbm() - ctx.loss_db[ap.node_id] - noise
    for i in nodes[nodes != ap.node_id].tolist():
        got = ctx.medium.sinr_db(tx, i, tx.power_per_subchannel_dbm(),
                                 SUBCHANNEL_HZ, 0)
        assert got == pytest.approx(snr[i], abs=1e-9)
    corrupt, nav = ctx.medium.nav_sinr_vector(tx, nodes)
    assert not corrupt
    np.testing.assert_allclose(nav, snr, atol=1e-9)

    # a frame from every node in turn: each blocks the nodes whose capped
    # power could not close their BSS's worst link over the configured noise
    threshold = ctx.per_model.thresholds_db[0]
    default_nf = RadioSection().noise_figure_db
    differs_at_default = 0
    for node in ctx.nodes.values():
        ctx.sim.run_until(ctx.sim.now + 200 * US)   # the last frame has ended
        tx = frame(node)
        blocked, _ = ctx.engines[0].cs_state()
        rx_dbm = tx.power_per_subchannel_dbm() - ctx.loss_db[node.node_id]
        for i in nodes.tolist():
            p = rx_dbm[i]
            if i == node.node_id or p < cfg.phy.cca_threshold_dbm:
                assert not blocked[i]
                continue
            allowed = spatial.max_sr_tx_power(p, cfg.sr)
            if ctx.colors[i] == node.color or allowed is None \
                    or allowed < MIN_SR_TXPWR_DBM:
                assert blocked[i]
                continue
            margin = allowed - ctx.worst_loss[i] - threshold
            assert blocked[i] == (margin < phy.noise_dbm(20e6, nf))
            differs_at_default += blocked[i] != (margin < phy.noise_dbm(20e6, default_nf))
    assert differs_at_default > 0
