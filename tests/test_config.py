"""INI loading: every section is read, and anything the simulator does not
know is rejected rather than ignored."""

import pytest

from axsim.config import ConfigError, default_config, load_config


def write_ini(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return str(path)


def test_ini_round_trip_sets_one_field_per_section(tmp_path):
    path = write_ini(tmp_path, """
[scenario]
kind = indoor_multi
n_bss = 3
[radio]
ap_antennas = 4
[mac]
uora_boundary_eligible = no
[phy]
shadowing_sigma_db = 3.5
[sr]
obss_pd_max_dbm = -65
""")
    expected = default_config("indoor_multi", n_bss=3)
    expected.radio.ap_antennas = 4
    expected.mac.uora_boundary_eligible = False
    expected.phy.shadowing_sigma_db = 3.5
    expected.sr.obss_pd_max_dbm = -65.0
    assert load_config(path) == expected


@pytest.mark.parametrize("text", [
    "[scenario]\n[beacon]\ninterval_ms = 100\n",       # unknown section
    "[scenario]\n[mac]\ncw_mid = 63\n",                 # unknown key
    "[scenario]\n[mac]\nuora_boundary_eligible = maybe\n",   # bad boolean
    "[scenario]\n[mac]\nslot_us = 20\n",                # removed knob
], ids=["unknown-section", "unknown-key", "bad-boolean", "removed-knob"])
def test_rejects(tmp_path, text):
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, text))


# Each of these passed validation once and then failed the run: a negative
# RU index, a zero packet interval, a negative draw range, the log of a zero
# frequency in set-up, zero spatial streams partway through, a STA placement
# that never lands in a cell of negative inradius, the root of a negative
# room area and the log of a zero breakpoint in set-up, a division by a zero
# PER slope at the first decode, and a BSS's 2045th STA, whose AID 2045 a
# trigger reads as a random-access RU, so that the first schedule raises.
@pytest.mark.parametrize("text", [
    "[scenario]\n[mac]\nra_ru_fraction = 1.5\n",
    "[scenario]\n[mac]\nra_ru_fraction = -0.1\n",
    "[scenario]\npacket_bytes = 0\n",
    "[scenario]\n[mac]\ncw_min = -1\n",
    "[scenario]\n[mac]\nocw_min = -1\n",
    "[scenario]\n[radio]\nfrequency_ghz = 0\n",
    "[scenario]\n[radio]\nap_antennas = 0\n",
    "[scenario]\n[radio]\nsta_antennas = 0\n",
    "[scenario]\nkind = outdoor_single\ncell_inradius_m = -5\n",
    "[scenario]\nroom_area_m2 = -1\n",
    "[scenario]\n[phy]\npathloss_breakpoint_m = 0\n",
    "[scenario]\n[phy]\nper_slope_db = 0\n",
    "[scenario]\nstas_per_bss = 2045\n",
    "[scenario]\nstas_per_bss = 2008\n",
], ids=["ra-ru-fraction-above-1", "ra-ru-fraction-below-0", "zero-packet-bytes",
        "negative-cw-min", "negative-ocw-min", "zero-frequency", "zero-ap-antennas",
        "zero-sta-antennas", "negative-cell-inradius", "negative-room-area",
        "zero-pathloss-breakpoint", "zero-per-slope", "unassociated-aid",
        "aid-above-2007"])
def test_rejects_values_a_run_cannot_use(tmp_path, text):
    with pytest.raises(ConfigError):
        load_config(write_ini(tmp_path, text))


def test_a_bss_may_hold_as_many_stas_as_there_are_aids():
    assert default_config("indoor_single", stas_per_bss=2007).validate() == []
