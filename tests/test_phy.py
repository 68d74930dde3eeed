import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axsim import phy, ru
from axsim.config import PhySection
from axsim.core import Simulator
from axsim.medium import Medium
from axsim.phy import (HE_NUMEROLOGY, LEGACY_NUMEROLOGY, InvalidPhyConfig,
                       Mcs, PathLossModel, PerModel)


# --- path loss -------------------------------------------------------------

def fspl_oracle(d_m, f_hz):
    return 20 * math.log10(4 * math.pi * d_m * f_hz / 299_792_458.0)


def test_free_space_reference_at_1m():
    expected = fspl_oracle(1.0, 5.57e9)
    assert expected == pytest.approx(47.36, abs=0.05)
    assert phy.fspl_db(1.0, 5.57) == pytest.approx(expected, abs=1e-9)


def test_single_slope_indoor_formula():
    # exponent-3.5 log-distance evaluation: FSPL(1 m) + 35 dB at 10 m
    model = PathLossModel(near_exponent=3.5, far_exponent=3.5, breakpoint_m=1.0)
    assert model.loss_db(10.0, 5.57) == pytest.approx(fspl_oracle(1.0, 5.57e9) + 35.0, abs=1e-6)


def test_outdoor_exponent_3():
    model = PathLossModel.outdoor()
    assert model.loss_db(100.0, 5.57) == pytest.approx(fspl_oracle(1.0, 5.57e9) + 60.0, abs=1e-6)


def test_distance_clamped_below_10cm():
    model = PathLossModel.outdoor()
    assert model.loss_db(0.01, 5.57) == model.loss_db(0.1, 5.57)


def test_dual_slope_indoor_is_continuous_at_breakpoint():
    model = PathLossModel.indoor()
    below = model.loss_db(model.breakpoint_m - 1e-9, 5.57)
    above = model.loss_db(model.breakpoint_m + 1e-9, 5.57)
    assert below == pytest.approx(above, abs=1e-6)


def test_shadowing_term_is_additive():
    model = PathLossModel.indoor()
    assert model.loss_db(5.0, 5.57, shadow_db=4.2) == \
        pytest.approx(model.loss_db(5.0, 5.57) + 4.2)


@pytest.mark.parametrize("model", [PathLossModel.indoor(), PathLossModel.outdoor()],
                         ids=["indoor", "outdoor"])
def test_loss_db_on_arrays_equals_loss_db_on_scalars(model):
    bp = model.breakpoint_m
    d = np.array([0.0, 0.01, model.min_distance_m / 2, model.min_distance_m,
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
                    phy.NOISE_FIGURE_DB)
    return medium.rx_power_dbm(0, 1, tx_dbm)


def test_rx_power_subtraction():
    assert received(18.0, 82.4) == pytest.approx(-64.4)
    assert received(18.0, 0.0) == 18.0


def test_rx_power_at_cca_threshold():
    # 18 dBm through 100 dB of loss lands exactly on the -82 dBm CCA threshold
    assert received(18.0, 100.0) == pytest.approx(PhySection().cca_threshold_dbm)


# --- SINR -------------------------------------------------------------------

def sinr_oracle(signal, interferers, noise):
    lin = lambda x: 10 ** (x / 10)
    return 10 * math.log10(lin(signal) / (sum(map(lin, interferers)) + lin(noise)))


def test_sinr_without_interference_is_snr():
    assert phy.sinr_db(-60.0, [], -94.0) == pytest.approx(34.0)


def test_sinr_equal_power_interferer():
    assert phy.sinr_db(-60.0, [-60.0], -200.0) == pytest.approx(0.0, abs=1e-6)


def test_sinr_matches_linear_sum_oracle():
    got = phy.sinr_db(-60.0, [-70.0, -70.0], -94.0)
    assert got == pytest.approx(sinr_oracle(-60.0, [-70.0, -70.0], -94.0), abs=1e-9)


@given(st.floats(-90, -30), st.lists(st.floats(-110, -40), max_size=6), st.floats(-110, -80))
def test_sinr_oracle_property(signal, interferers, noise):
    assert phy.sinr_db(signal, interferers, noise) == \
        pytest.approx(sinr_oracle(signal, interferers, noise), abs=1e-9)


# --- noise --------------------------------------------------------------------

def test_noise_floor():
    # -174 dBm/Hz + 10log10(20 MHz) + 7 dB NF
    assert phy.noise_dbm(20e6) == pytest.approx(-174 + 10 * math.log10(20e6) + 7)


# --- rates -------------------------------------------------------------------

def test_he_peak_rate_9607_8_mbps():
    # the engine's rate: data bits per OFDM symbol of a 2x996-tone RU at
    # MCS 11 over 8 streams (BssEngine._link) per 12.8 + 0.8 us HE symbol
    # (frames.data_duration_ns)
    mcs = Mcs(11)
    bits = ru.data_subcarriers(1992) * mcs.bits_per_symbol * float(mcs.coding_rate) * 8
    assert bits / ((phy.HE_SYMBOL_US + 0.8) * 1e-6) == pytest.approx(9607.8e6, rel=5e-4)


def test_he_rate_mcs0_26_tone():
    # 24 * 1 * 1/2 / 13.6 us = 0.882 Mbps
    rate = phy.he_rate(Mcs(0), data_subcarriers=24, nss=1, gi_us=0.8)
    assert rate == pytest.approx(24 * 0.5 / 13.6e-6, abs=1)
    assert rate == pytest.approx(0.882e6, rel=1e-3)


def test_legacy_54_mbps_exact():
    # 64-QAM 3/4 over 48 data subcarriers at 4 us per symbol
    assert phy.legacy_rate(Mcs(6), data_subcarriers=48) == 54e6


def test_dcm_halves_rate():
    plain = phy.he_rate(Mcs(1), 234, 2, 0.8)
    dcm = phy.he_rate(Mcs(1, dcm=True), 234, 2, 0.8)
    assert dcm == pytest.approx(plain / 2)


def test_dcm_rejects_wide_nss_and_bad_index():
    with pytest.raises(InvalidPhyConfig):
        phy.he_rate(Mcs(1, dcm=True), 234, 3, 0.8)
    with pytest.raises(InvalidPhyConfig):
        Mcs(7, dcm=True)


@given(st.integers(0, 11), st.integers(0, 11), st.sampled_from([24, 48, 102, 234, 468, 980, 1960]),
       st.integers(1, 8), st.sampled_from([0.8, 1.6, 3.2]))
def test_rate_monotone_in_mcs_and_gi(i, j, ds, nss, gi):
    lo, hi = sorted((i, j))
    r_lo = phy.he_rate(Mcs(lo), ds, nss, gi)
    r_hi = phy.he_rate(Mcs(hi), ds, nss, gi)
    assert r_hi >= r_lo
    assert phy.he_rate(Mcs(hi), ds, nss, 3.2) <= phy.he_rate(Mcs(hi), ds, nss, 0.8)
    if nss > 1:
        assert phy.he_rate(Mcs(hi), ds, nss, gi) > phy.he_rate(Mcs(hi), ds, nss - 1, gi)


# --- spectral efficiency -----------------------------------------------------

def test_spectral_efficiency_he_short_gi():
    assert phy.spectral_efficiency(0.8) == pytest.approx(0.9412, abs=5e-5)


def test_spectral_efficiency_legacy():
    assert phy.spectral_efficiency(0.8, LEGACY_NUMEROLOGY) == pytest.approx(0.8)


def test_spectral_efficiency_he_long_gi():
    assert phy.spectral_efficiency(3.2, HE_NUMEROLOGY) == pytest.approx(12.8 / 16.0)


# --- DCM rotation -------------------------------------------------------------

def dcm_oracle(k, n_sd):
    return complex(math.cos((k + n_sd / 2) * math.pi), math.sin((k + n_sd / 2) * math.pi))


@pytest.mark.parametrize("k,n_sd,expected", [(0, 4, 1), (1, 4, -1), (0, 2, -1)])
def test_dcm_rotation_examples(k, n_sd, expected):
    assert phy.dcm_rotation(k, n_sd) == expected
    assert dcm_oracle(k, n_sd).real == pytest.approx(expected, abs=1e-9)


@given(st.integers(1, 100).map(lambda h: 2 * h))
def test_dcm_rotation_pairing(n_sd):
    factors = [phy.dcm_rotation(k, n_sd) for k in range(n_sd // 2)]
    assert all(f in (1, -1) for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert a == -b


def test_dcm_rotation_rejects_odd_count():
    with pytest.raises(InvalidPhyConfig):
        phy.dcm_rotation(0, 5)


# --- effective SINR and PER -----------------------------------------------------

def test_dcm_gain_applied_only_with_dcm():
    model = PerModel()
    assert model.effective_sinr(5.0, Mcs(0, dcm=True)) == pytest.approx(8.5)
    assert model.effective_sinr(5.0, Mcs(0)) == 5.0
    assert model.effective_sinr(5.0, Mcs(7)) == 5.0


def test_per_half_at_threshold_reference_length():
    model = PerModel()
    m = Mcs(4)
    t = model.thresholds_db[4]
    assert model.per(t, m, model.ref_bits) == pytest.approx(0.5)


def test_per_vanishes_at_high_sinr():
    model = PerModel()
    assert model.per(200.0, Mcs(4), model.ref_bits) == 0.0


def test_per_closed_form_above_threshold():
    model = PerModel()
    m = Mcs(4)
    t = model.thresholds_db[4]
    p_ref = 1 / (1 + math.exp(10.0))  # sinr = T + 10w
    assert model.per(t + 10 * model.slope_db, m, model.ref_bits) == pytest.approx(p_ref, rel=1e-9)
    # length scaling by bit-error independence
    assert model.per(t + 10 * model.slope_db, m, 3 * model.ref_bits) == \
        pytest.approx(1 - (1 - p_ref) ** 3, rel=1e-9)


@given(st.floats(-10, 60), st.floats(-10, 60), st.integers(0, 11),
       st.integers(100, 40_000), st.integers(100, 40_000))
def test_per_monotonicity(s1, s2, idx, b1, b2):
    model = PerModel()
    m = Mcs(idx)
    lo, hi = sorted((s1, s2))
    assert model.per(hi, m, 12_000) <= model.per(lo, m, 12_000) + 1e-12
    blo, bhi = sorted((b1, b2))
    assert model.per(10.0, m, bhi) >= model.per(10.0, m, blo) - 1e-12


# --- MCS selection -------------------------------------------------------------

def test_select_mcs_saturates_at_11_on_wide_ru():
    assert PerModel().select_mcs(200.0, ru_tones=1992).index == 11


def test_select_mcs_caps_at_9_below_242_tones():
    assert PerModel().select_mcs(200.0, ru_tones=106).index == 9


def test_select_mcs_floor_is_mcs0():
    model = PerModel()
    weak = model.select_mcs(-50.0, ru_tones=242)
    assert weak.index == 0
    assert model.per_ref(-50.0, weak) > 0.1


def test_select_mcs_respects_max_index_for_11ac():
    assert PerModel().select_mcs(200.0, ru_tones=1992, max_index=9).index == 9


def select_mcs_reference(model, sinr, tones, target, max_index, dcm):
    """select_mcs building each candidate per call, in table order."""
    best = None
    for index in sorted(phy.MCS_TABLE):
        if index > max_index:
            break
        if index >= 10 and tones < phy.MIN_RU_TONES_FOR_1024QAM:
            continue
        candidate = Mcs(index, dcm=dcm and index in phy.DCM_ALLOWED_INDICES)
        if model.per_ref(model.effective_sinr(sinr, candidate), candidate) <= target:
            best = candidate
    return best if best is not None else Mcs(0, dcm=dcm)


@pytest.mark.parametrize("dcm", [False, True])
def test_select_mcs_matches_the_per_call_candidates(dcm):
    model = PerModel(thresholds_db={i: 1.0 + 2.7 * i for i in phy.MCS_TABLE})
    for sinr in np.arange(-10.0, 45.0, 0.37):
        for tones in (26, 106, 242, 996):
            for max_index in (0, 7, 9, 11):
                for target in (0.01, 0.1):
                    assert model.select_mcs(sinr, tones, target, max_index, dcm) == \
                        select_mcs_reference(model, sinr, tones, target,
                                             max_index, dcm)


@given(st.floats(-20, 80), st.sampled_from([26, 52, 106, 242, 484, 996, 1992]))
def test_select_mcs_never_1024qam_below_242(sinr, tones):
    m = PerModel().select_mcs(sinr, tones)
    if tones < 242:
        assert m.index < 10


# --- MU-MIMO abstraction ---------------------------------------------------------

def test_array_gain_and_stream_penalty():
    assert phy.array_gain_db(8, 4) == pytest.approx(10 * math.log10(2))
    assert phy.array_gain_db(8, 8) == 0.0
    assert phy.mu_mimo_sinr_adjustment_db(8, 8, shared=True) == pytest.approx(-3.0)
    assert phy.mu_mimo_sinr_adjustment_db(8, 4, shared=False) == pytest.approx(3.0, abs=0.02)
