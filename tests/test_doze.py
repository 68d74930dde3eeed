"""Intra-PPDU doze saves energy and changes nothing else.

A STA dozes only through an intra-BSS PPDU that does not involve it, and
the HE-TB PPDUs of a round involve every STA its trigger solicited, so no
responder dozes through another's response.  Turning doze on must leave
every report field but the energy as it was.
"""

from __future__ import annotations

import pytest

from axsim import runner
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
