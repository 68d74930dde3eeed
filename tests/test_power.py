import numpy as np
import pytest
from hypothesis import given, strategies as st

from axsim import frames
from axsim.config import default_config
from axsim.core import MS, SEC, SIFS, US
from axsim.engine import RunContext
from axsim.medium import Transmission
from axsim.power import (AWAKE, EnergyAccount, PowerError, PowerState,
                         intra_ppdu_doze)
from axsim.spatial import INTER_BSS, INTRA_BSS


# --- energy ledger -----------------------------------------------------------------

def test_energy_ledger_closure():
    ps = PowerState()
    ps.mark_tx(2 * MS, 2 * MS, 3 * MS)
    ps.doze(5 * MS)
    ps.wake(9 * MS)
    account = ps.finish(10 * MS)
    assert account.total_ns == 10 * MS
    assert account.tx_ns == 1 * MS
    assert account.doze_ns == 4 * MS
    assert account.awake_ns == 5 * MS


def test_transmit_time_is_the_window_from_the_ppdu_start():
    """A PPDU handed over before its start charges only [start, end) as
    transmit time; the idle gap before it and the time after it are awake
    time, settled up to each call and never past it."""
    ps = PowerState()
    ps.mark_tx(1 * MS, 1 * MS + 16 * US, 2 * MS)
    assert ps.since_ns == 1 * MS
    account = ps.finish(1 * MS + 500 * US)     # settles halfway through the PPDU
    assert (account.tx_ns, account.awake_ns) == (484 * US, 1 * MS + 16 * US)
    account = ps.finish(4 * MS)
    assert (account.tx_ns, account.awake_ns) == (984 * US, 3 * MS + 16 * US)


def test_a_cts_handed_over_sifs_early_charges_exactly_its_airtime():
    cfg = default_config("indoor_single", stas_per_bss=4, duration_s=0.01)
    ctx = RunContext(cfg, "ac_baseline")
    engine = ctx.engines[0]
    sta = engine.stas[0]
    tx = engine.send_control(sta, "cts", frames.CTS_BYTES, ctx.sim.now + SIFS)
    assert tx.end_ns - tx.start_ns == frames.legacy_frame_duration_ns(frames.CTS_BYTES)
    ctx.sim.run_until(tx.end_ns + SIFS)
    account = sta.power.finish(ctx.sim.now)
    assert account.tx_ns == tx.end_ns - tx.start_ns
    assert account.awake_ns == 2 * SIFS


def test_energy_units_weighting():
    account = EnergyAccount(awake_ns=SEC, tx_ns=SEC, doze_ns=SEC)
    assert account.energy_units == pytest.approx(1.0 + 1.8 + 0.05)


def test_dozing_sta_cannot_transmit():
    ps = PowerState()
    ps.doze(0)
    with pytest.raises(PowerError):
        ps.mark_tx(1 * MS, 1 * MS, 2 * MS)


def test_doze_reduces_energy():
    active = PowerState()
    sleeper = PowerState()
    sleeper.doze(1 * MS)
    sleeper.wake(9 * MS)
    assert sleeper.finish(10 * MS).energy_units < active.finish(10 * MS).energy_units


@given(st.lists(st.tuples(st.sampled_from(["doze", "wake", "tx"]),
                          st.integers(1, 1000)), max_size=30))
def test_ledger_closure_under_random_transitions(steps):
    ps = PowerState()
    now = 0
    for op, dt in steps:
        now += dt
        if op == "doze":
            ps.doze(now)
        elif op == "wake":
            ps.wake(now)
        elif ps.state == AWAKE:
            ps.mark_tx(now, now + dt // 2, now + dt)
    total = now + 5
    assert ps.finish(total).total_ns == total


# --- intra-PPDU doze ---------------------------------------------------------------------

def test_intra_ppdu_doze_until_exact_end():
    sta = PowerState()
    wake_at = intra_ppdu_doze(sta, 100 * US, INTRA_BSS, ppdu_end_ns=900 * US)
    assert wake_at == 900 * US
    assert sta.dozing
    sta.wake(wake_at)
    assert sta.finish(MS).doze_ns == 800 * US


def bss_hearing_an_ap_ppdu():
    """A 3-STA ax_ofdma BSS whose STAs all hear one HE-MU PPDU of their AP
    that involves the first STA."""
    ctx = RunContext(default_config("indoor_single", stas_per_bss=3,
                                    duration_s=0.01), "ax_ofdma")
    engine = ctx.engines[0]
    ap = engine.ap
    for sta in engine.stas:
        ctx.loss_db[ap.node_id, sta.node_id] = ctx.loss_db[sta.node_id, ap.node_id] = 60.0
    tx = ctx.medium.transmit(Transmission(
        0, ap.node_id, engine.bss_id, "he-mu", 0, MS, ctx.subchannels, 20.0,
        color=ap.color, involves=frozenset({engine.stas[0].node_id})))
    return ctx, engine, tx


def test_no_doze_when_addressed():
    _, engine, tx = bss_hearing_an_ap_ppdu()
    engine.on_air(tx)
    addressed, *others = engine.stas
    assert not addressed.power.dozing
    assert all(sta.power.dozing for sta in others)


def test_no_doze_for_inter_bss_ppdu():
    sta = PowerState()
    assert intra_ppdu_doze(sta, 0, INTER_BSS, ppdu_end_ns=MS) is None
    assert not sta.dozing


def test_nav_untouched_by_doze_transitions():
    ctx, engine, tx = bss_hearing_an_ap_ppdu()
    sta = engine.stas[1]
    ctx.nav.update(np.array([sta.node_id]), np.array([True]), 0, 5 * MS,
                   is_cf_end=False)
    before = (ctx.nav.intra_expiry_ns.tolist(), ctx.nav.basic_expiry_ns.tolist())
    engine.on_air(tx)
    assert sta.power.dozing
    ctx.sim.run_until(MS)                   # the PPDU ends and the STA wakes
    assert not sta.power.dozing
    assert (ctx.nav.intra_expiry_ns.tolist(), ctx.nav.basic_expiry_ns.tolist()) == before
