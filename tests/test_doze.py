"""Intra-PPDU doze saves energy and changes nothing else.

A STA dozes only through an intra-BSS PPDU that does not involve it, and
the HE-TB PPDUs of a round involve every STA its trigger solicited, so no
responder dozes through another's response.  Turning doze on must leave
every report field but the energy as it was.  Every HE PPDU carries its
BSS's colour, so under every HE scheme a STA tells another BSS's PPDUs
from its own and stays awake through them.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from axsim import engine, runner
from axsim.config import default_config
from axsim.core import US


@pytest.mark.parametrize("direction", ["ul", "dl"])
@pytest.mark.parametrize("scheme", ["ax_ofdma", "ax_ofdma_mumimo", "ax_sr"])
def test_doze_changes_only_the_energy(scheme, direction):
    cfg = default_config("indoor_single", stas_per_bss=16, duration_s=0.2,
                         direction=direction)
    awake = runner.report_row(runner.run(cfg, scheme))
    dozing = runner.report_row(runner.run(cfg, scheme, intra_ppdu_doze=True))
    assert dozing["energy_units"] < awake["energy_units"]
    del awake["energy_units"], dozing["energy_units"]
    assert dozing == awake


@pytest.mark.parametrize("scheme", ["ax_ofdma", "ax_ofdma_mumimo", "ax_sr"])
def test_no_doze_through_another_bss_ppdu(monkeypatch, scheme):
    cfg = default_config("indoor_multi", n_bss=3, stas_per_bss=8,
                         per_sta_rate_mbps=13, direction="dl", duration_s=0.1)
    ctx = engine.RunContext(cfg, scheme, intra_ppdu_doze=True)
    bss_of = {id(node.power): node.bss_id for node in ctx.nodes.values()}
    on_air = []
    entries = Counter()
    doze = engine.intra_ppdu_doze

    def counted(power, now_ns, frame_class, ppdu_end_ns):
        wake_at = doze(power, now_ns, frame_class, ppdu_end_ns)
        if wake_at is not None:
            entries["own" if on_air[-1].bss_id == bss_of[id(power)] else "other"] += 1
        return wake_at

    monkeypatch.setattr(engine, "intra_ppdu_doze", counted)
    ctx.medium.listeners.insert(0, lambda _event, tx: on_air.append(tx))
    ctx.run()
    assert entries["own"] > 0 and entries["other"] == 0, entries


@pytest.mark.parametrize("scheme", ["ac_baseline", "ax_ofdma", "ax_ofdma_mumimo"])
def test_a_receiver_dozing_at_the_data_end_fails_every_mpdu_and_sends_no_ba(scheme):
    """The AP wins the channel with 4 MPDUs queued for each STA.  The first
    receiver of its data PPDU dozes from the handover, so at the PPDU's end
    every MPDU it was sent counts as attempted and failed, and it answers
    with no BA; the other receivers of the HE-MU PPDU still do."""
    cfg = default_config("indoor_single", stas_per_bss=8, duration_s=0.1, direction="dl")
    ctx = engine.RunContext(cfg, scheme)
    bss = ctx.engines[0]
    bss.flows.interval_ns[:] = math.inf      # no arrivals, 4 retries each
    for sta in bss.stas:
        sta.flow.requeue(np.arange(4, dtype=np.int64))
    sent, data = [], []
    send = bss.send

    def recorded(node, kind, start, end, then=None, **fields):
        tx = send(node, kind, start, end, then, **fields)
        sent.append(tx)
        if kind in ("ampdu", "he-mu") and not data:
            dozer = ctx.nodes[min(tx.involves)]
            data.append((tx, dozer, 4 - len(dozer.flow.retry)))
            dozer.power.doze(ctx.sim.now)
        return tx

    bss.send = recorded
    bss.on_backoff_complete(bss.ap)
    while not data and ctx.sim.now < cfg.duration_ns:
        ctx.sim.run_until(ctx.sim.now + 10 * US)
    tx, dozer, n = data[0]
    ctx.sim.run_until(tx.end_ns)
    stats = ctx.stats[dozer.flow.flow_id]
    assert n > 0 and stats.mpdu_attempts == stats.mpdu_failures == n
    replies = [t for t in sent if t.start_ns > tx.end_ns]
    assert all(t.tx_node != dozer.node_id for t in replies)
    if len(tx.involves) > 1:
        assert any(t.kind == "he-tb" for t in replies), [t.kind for t in replies]
