import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axsim import phy, ru
from axsim.config import (INDOOR_SINGLE, OUTDOOR_SINGLE, PhySection, RadioSection,
                          default_config)
from axsim.core import Simulator
from axsim.medium import SUBCHANNEL_HZ, Medium, Transmission
from axsim.phy import Mcs, PathLossModel, PerModel

NOISE_FIGURE_DB = RadioSection().noise_figure_db


def loss_model(kind: str) -> PathLossModel:
    """The path loss of a scenario's default parameter table."""
    return PathLossModel(default_config(kind).phy)


# --- path loss -------------------------------------------------------------

def fspl_oracle(d_m, f_hz):
    return 20 * math.log10(4 * math.pi * d_m * f_hz / 299_792_458.0)


def test_free_space_reference_at_1m():
    expected = fspl_oracle(1.0, 5.57e9)
    assert expected == pytest.approx(47.36, abs=0.05)
    assert phy.fspl_db(1.0, 5.57) == pytest.approx(expected, abs=1e-9)


def test_single_slope_indoor_formula():
    # exponent-3.5 log-distance evaluation: FSPL(1 m) + 35 dB at 10 m
    model = PathLossModel(PhySection(pathloss_near_exponent=3.5, pathloss_far_exponent=3.5,
                                     pathloss_breakpoint_m=1.0))
    assert model.loss_db(10.0, 5.57) == pytest.approx(fspl_oracle(1.0, 5.57e9) + 35.0, abs=1e-6)


def test_outdoor_exponent_3():
    model = loss_model(OUTDOOR_SINGLE)
    assert model.loss_db(100.0, 5.57) == pytest.approx(fspl_oracle(1.0, 5.57e9) + 60.0, abs=1e-6)


def test_distance_clamped_below_10cm():
    model = loss_model(OUTDOOR_SINGLE)
    assert model.loss_db(0.01, 5.57) == model.loss_db(0.1, 5.57)


def test_dual_slope_indoor_is_continuous_at_breakpoint():
    model = loss_model(INDOOR_SINGLE)
    assert (model.near_exponent, model.far_exponent, model.breakpoint_m) == \
        (2.0, 3.5, 10.0)
    below = model.loss_db(model.breakpoint_m - 1e-9, 5.57)
    above = model.loss_db(model.breakpoint_m + 1e-9, 5.57)
    assert below == pytest.approx(above, abs=1e-6)


def test_shadowing_term_is_additive():
    model = loss_model(INDOOR_SINGLE)
    assert model.loss_db(5.0, 5.57, shadow_db=4.2) == \
        pytest.approx(model.loss_db(5.0, 5.57) + 4.2)


@pytest.mark.parametrize("kind", [INDOOR_SINGLE, OUTDOOR_SINGLE], ids=["indoor", "outdoor"])
def test_loss_db_on_arrays_equals_loss_db_on_scalars(kind):
    model = loss_model(kind)
    bp = model.breakpoint_m
    d = np.array([0.0, 0.01, phy.MIN_DISTANCE_M / 2, phy.MIN_DISTANCE_M,
                  0.7, bp - 1e-9, bp, bp + 1e-9, 37.0, 480.0])
    shadow = np.linspace(-9.0, 9.0, len(d))
    arr = model.loss_db(d, 5.57, shadow)
    assert isinstance(arr, np.ndarray) and arr.shape == d.shape
    for k in range(len(d)):
        scalar = model.loss_db(float(d[k]), 5.57, float(shadow[k]))
        assert isinstance(scalar, float)
        assert scalar == arr[k]
    no_shadow = model.loss_db(d, 5.57)
    assert [model.loss_db(float(x), 5.57) for x in d] == no_shadow.tolist()
    # below the minimum distance the loss is the loss at it
    assert no_shadow[0] == no_shadow[1] == no_shadow[2] == no_shadow[3]


# --- received power ----------------------------------------------------------

def received(tx_dbm: float, loss_db: float) -> float:
    medium = Medium(Simulator(), np.array([[0.0, loss_db], [loss_db, 0.0]]),
                    NOISE_FIGURE_DB)
    return medium.rx_power_dbm(0, 1, tx_dbm)


def test_rx_power_subtraction():
    assert received(18.0, 82.4) == pytest.approx(-64.4)
    assert received(18.0, 0.0) == 18.0


def test_rx_power_at_cca_threshold():
    # 18 dBm through 100 dB of loss lands exactly on the -82 dBm CCA threshold
    assert received(18.0, 100.0) == pytest.approx(PhySection().cca_threshold_dbm)


# --- SINR -------------------------------------------------------------------
#
# The medium's decode SINR: the desired power over noise plus the linear sum
# of every interferer's power.

def sinr_oracle(signal, interferers, noise):
    lin = lambda x: 10 ** (x / 10)
    return 10 * math.log10(lin(signal) / (sum(map(lin, interferers)) + lin(noise)))


def medium_sinr(signal_dbm, interferers_dbm, noise_dbm):
    """Medium.sinr_db at node 1 of a 20 MHz frame from node 0 received at
    signal_dbm, under frames of the same airtime from nodes 2, 3, ...
    received at interferers_dbm, over noise_dbm of noise in 20 MHz."""
    n = 2 + len(interferers_dbm)
    loss = np.zeros((n, n))
    loss[0, 1] = -signal_dbm                    # every node sends at 0 dBm
    loss[2:, 1] = [-p for p in interferers_dbm]
    noise_figure_db = noise_dbm + 174.0 - 10 * math.log10(SUBCHANNEL_HZ)
    medium = Medium(Simulator(), loss, noise_figure_db)
    sent = [medium.transmit(Transmission(0, node, node, "ampdu", 0, 1000,
                                         frozenset({0}), 0.0))
            for node in range(n) if node != 1]
    return medium.sinr_db(sent[0], 1, 0.0, SUBCHANNEL_HZ, 0)


def test_sinr_without_interference_is_snr():
    assert medium_sinr(-60.0, [], -94.0) == pytest.approx(34.0)


def test_sinr_equal_power_interferer():
    assert medium_sinr(-60.0, [-60.0], -200.0) == pytest.approx(0.0, abs=1e-6)


def test_sinr_matches_linear_sum_oracle():
    got = medium_sinr(-60.0, [-70.0, -70.0], -94.0)
    assert got == pytest.approx(sinr_oracle(-60.0, [-70.0, -70.0], -94.0), abs=1e-9)


@given(st.floats(-90, -30), st.lists(st.floats(-110, -40), max_size=6), st.floats(-110, -80))
def test_sinr_oracle_property(signal, interferers, noise):
    assert medium_sinr(signal, interferers, noise) == \
        pytest.approx(sinr_oracle(signal, interferers, noise), abs=1e-9)


# --- noise --------------------------------------------------------------------

def test_noise_floor():
    # -174 dBm/Hz + 10log10(20 MHz) + the 7 dB NF of the scenario tables
    assert NOISE_FIGURE_DB == 7.0
    assert phy.noise_dbm(20e6, NOISE_FIGURE_DB) == \
        pytest.approx(-174 + 10 * math.log10(20e6) + 7)


# --- rates -------------------------------------------------------------------

def test_he_peak_rate_9607_8_mbps():
    # the engine's rate: data bits per OFDM symbol of a 2x996-tone RU at
    # MCS 11 over 8 streams (BssEngine._link) per 12.8 + 0.8 us HE symbol
    # (frames.data_duration_ns)
    mcs = Mcs(11)
    bits = ru.data_subcarriers(1992) * mcs.bits_per_symbol * float(mcs.coding_rate) * 8
    assert bits / ((phy.HE_SYMBOL_US + 0.8) * 1e-6) == pytest.approx(9607.8e6, rel=5e-4)


# --- PER -----------------------------------------------------

def test_per_half_at_threshold_reference_length():
    model = PerModel(PhySection())
    m = Mcs(4)
    t = model.thresholds_db[4]
    assert model.per(t, m, phy.PER_REF_BITS) == pytest.approx(0.5)


def test_per_vanishes_at_high_sinr():
    model = PerModel(PhySection())
    assert model.per(200.0, Mcs(4), phy.PER_REF_BITS) == 0.0


def test_per_closed_form_above_threshold():
    model = PerModel(PhySection())
    m = Mcs(4)
    t = model.thresholds_db[4]
    p_ref = 1 / (1 + math.exp(10.0))  # sinr = T + 10w
    assert model.per(t + 10 * model.slope_db, m, phy.PER_REF_BITS) == pytest.approx(p_ref, rel=1e-9)
    # length scaling by bit-error independence
    assert model.per(t + 10 * model.slope_db, m, 3 * phy.PER_REF_BITS) == \
        pytest.approx(1 - (1 - p_ref) ** 3, rel=1e-9)


@given(st.floats(-10, 60), st.floats(-10, 60), st.integers(0, 11),
       st.integers(100, 40_000), st.integers(100, 40_000))
def test_per_monotonicity(s1, s2, idx, b1, b2):
    model = PerModel(PhySection())
    m = Mcs(idx)
    lo, hi = sorted((s1, s2))
    assert model.per(hi, m, 12_000) <= model.per(lo, m, 12_000) + 1e-12
    blo, bhi = sorted((b1, b2))
    assert model.per(10.0, m, bhi) >= model.per(10.0, m, blo) - 1e-12


# --- MCS selection -------------------------------------------------------------

def test_select_mcs_saturates_at_11_on_wide_ru():
    assert PerModel(PhySection()).select_mcs(200.0, 1992, max_index=11).index == 11


def test_select_mcs_caps_at_9_below_242_tones():
    assert PerModel(PhySection()).select_mcs(200.0, 106, max_index=11).index == 9


def test_select_mcs_floor_is_mcs0():
    model = PerModel(PhySection())
    weak = model.select_mcs(-50.0, 242, max_index=11)
    assert weak.index == 0
    assert model.per_ref(-50.0, weak) > model.target_per


def test_select_mcs_respects_max_index_for_11ac():
    assert PerModel(PhySection()).select_mcs(200.0, 1992, max_index=9).index == 9


def select_mcs_reference(model, sinr, tones, target, max_index):
    """select_mcs as an ascending scan that builds each candidate per call
    and keeps the highest index that meets the target."""
    best = None
    for index in sorted(phy.MCS_TABLE):
        if index > max_index:
            break
        if index >= 10 and tones < phy.MIN_RU_TONES_FOR_1024QAM:
            continue
        candidate = Mcs(index)
        if model.per_ref(sinr, candidate) <= target:
            best = candidate
    return best if best is not None else Mcs(0)


# every RU size, and 0 for a whole VHT channel
RU_TONES = (0, 26, 52, 106, 242, 484, 996, 1992)


def test_select_mcs_matches_the_per_call_candidates():
    """The top-down scan picks what the ascending one does, also at
    infinite and NaN SINRs, and with thresholds that fall with the index
    (a negative step), so it does not rest on monotone thresholds."""
    sinrs = [-math.inf, math.inf, math.nan, *np.arange(-30.0, 60.0, 0.37)]
    for base, step in ((1.0, 2.7), (2.0, 2.5), (20.0, -1.5)):
        for target in (0.01, 0.1):
            model = PerModel(PhySection(per_threshold_base_db=base,
                                        per_threshold_step_db=step,
                                        mcs_target_per=target))
            picked = set()
            for sinr in sinrs:
                for tones in RU_TONES:
                    for max_index in range(12):
                        got = model.select_mcs(sinr, tones, max_index)
                        assert got == select_mcs_reference(model, sinr, tones, target,
                                                           max_index)
                        picked.add(got.index)
            assert picked == set(phy.MCS_TABLE), (base, step, target)


def test_top_mcs_is_the_fastest_mcs_link_adaptation_may_pick():
    """top_mcs has the highest rate of every MCS eligible on the RU, and a
    link with no errors selects it."""
    model = PerModel(PhySection())
    for tones in RU_TONES:
        for max_index in range(12):
            top = phy.top_mcs(tones, max_index)
            eligible = [Mcs(i) for i in phy.MCS_TABLE if i <= max_index
                        and (i <= 9 or tones >= phy.MIN_RU_TONES_FOR_1024QAM)]
            assert max(m.bits_per_symbol * m.coding_rate for m in eligible) \
                == top.bits_per_symbol * top.coding_rate
            assert top in eligible
            assert model.select_mcs(math.inf, tones, max_index) == top


@given(st.floats(-20, 80), st.sampled_from([26, 52, 106, 242, 484, 996, 1992]))
def test_select_mcs_never_1024qam_below_242(sinr, tones):
    m = PerModel(PhySection()).select_mcs(sinr, tones, max_index=11)
    if tones < 242:
        assert m.index < 10


# --- MU-MIMO abstraction ---------------------------------------------------------

def test_array_gain_and_stream_penalty():
    assert phy.array_gain_db(8, 4) == pytest.approx(10 * math.log10(2))
    assert phy.array_gain_db(8, 8) == 0.0
    penalty = PhySection().mu_stream_penalty_db
    assert penalty == 3.0
    assert phy.mu_mimo_sinr_adjustment_db(8, 8, True, penalty) == pytest.approx(-3.0)
    assert phy.mu_mimo_sinr_adjustment_db(8, 4, False, penalty) == \
        pytest.approx(3.0, abs=0.02)
