"""Link adaptation and the noise floor against closed-form link budgets.

The engines select every data MCS through ``BssEngine._link``.  On a medium
without other-BSS traffic its SNR is the transmit power, minus the path
loss, minus the thermal noise in the band, plus the receive array gain of
the streams, minus the MU-MIMO stream penalty when streams share an RU.
These tests restate that budget and compare.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from axsim import phy, spatial
from axsim.config import RadioSection, default_config
from axsim.core import US
from axsim.engine import MIN_SR_TXPWR_DBM, VHT_DATA_SUBCARRIERS, RunContext
from axsim.medium import SUBCHANNEL_HZ, Transmission
from axsim.ru import data_subcarriers

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
            shared = engine._link(power, sta, ap, tones, 2 * engine.nss, True)
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
                mcs, bps = engine._link(power, ap, sta, tones,
                                        engine.nss * users, users > 1)
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

    def recorded(power, tx, rx, tones=None, streams=None, shared=False):
        result = link(power, tx, rx, tones, streams, shared)
        calls.append((power, tx, rx, tones, streams or engine.nss, shared, result))
        return result

    engine._link = recorded
    ctx.run()
    assert calls
    ofdma = ctx.features.ofdma
    for power, tx, rx, tones, streams, shared, result in calls:
        users = streams // engine.nss
        assert shared == (users > 1)
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
        assert result == budget_mcs(ctx, power, tx, rx, band, tones, streams,
                                    shared, subcarriers)
    if ofdma:
        assert any(shared for *_, shared, _ in calls)


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
        for i in nodes.tolist():
            p = tx.rx_dbm[i]
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
