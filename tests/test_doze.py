"""Intra-PPDU doze saves energy and changes nothing else.

A STA dozes only through an intra-BSS PPDU that does not involve it, and
the HE-TB PPDUs of a round involve every STA its trigger solicited, so no
responder dozes through another's response.  Turning doze on must leave
every report field but the energy as it was.  Every HE PPDU carries its
BSS's colour, so under every HE scheme a STA tells another BSS's PPDUs
from its own and stays awake through them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from axsim import engine, runner
from axsim.config import default_config


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
