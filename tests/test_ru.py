import pytest
from hypothesis import given, strategies as st

from axsim import engine, phy, ru
from axsim.ru import (NoFitError, PunctureMode, RuLayout, RuPlanError,
                      layout_catalog, mu_mimo_admissible, resolve_puncture,
                      validate_layout)


# --- data subcarrier table ---------------------------------------------------

def test_242_tone_has_234_data_subcarriers():
    assert ru.data_subcarriers(242) == 234


def test_1960_back_solves_from_peak_rate():
    # data subcarriers of 2x996 recover the 9607.8 Mbps ceiling: MCS 11
    # over 8 streams per 12.8 + 0.8 us HE symbol, as the engine rates a link
    assert ru.data_subcarriers(1992) == 1960
    mcs = phy.Mcs(11)
    bits = ru.data_subcarriers(1992) * mcs.bits_per_symbol * float(mcs.coding_rate) * 8
    assert bits / ((phy.HE_SYMBOL_US + 0.8) * 1e-6) == pytest.approx(9607.8e6, rel=5e-4)


def test_26_tone_and_9x26_budget():
    assert ru.data_subcarriers(26) == 24
    assert 9 * 26 == 234 <= ru.TONE_BUDGET_PER_20MHZ


def test_data_subcarriers_strictly_increasing():
    counts = [ru.data_subcarriers(t) for t in ru.RU_TONE_SIZES]
    assert counts == sorted(counts)
    assert len(set(counts)) == len(counts)


def test_unknown_tone_size_rejected():
    with pytest.raises(RuPlanError):
        ru.data_subcarriers(100)


# --- layout validation ---------------------------------------------------------

def test_full_band_242_ok():
    assert validate_layout(RuLayout.of(20, [242])) == []


def test_996_requires_80mhz():
    violations = validate_layout(RuLayout.of(20, [996]))
    assert any("996-tone RU requires >=80 MHz" in v for v in violations)


def test_80mhz_three_242_with_punctured_secondary20():
    # secondary 20 punctured leaves 60 MHz usable for three 242-tone RUs
    layout = RuLayout(80, (ru.RuAssignment(242, 0), ru.RuAssignment(242, 2),
                           ru.RuAssignment(242, 3)), frozenset({1}))
    assert validate_layout(layout) == []


def test_ru_inside_punctured_subchannel_rejected():
    layout = RuLayout(80, (ru.RuAssignment(242, 1),), frozenset({1}))
    assert any("punctured" in v for v in validate_layout(layout))


def test_overbudget_subchannel_rejected():
    layout = RuLayout(20, (ru.RuAssignment(106, 0), ru.RuAssignment(106, 0),
                           ru.RuAssignment(52, 0)), frozenset())
    assert any("budget" in v for v in validate_layout(layout))


def test_overlap_with_wide_ru_rejected():
    layout = RuLayout(40, (ru.RuAssignment(484, 0), ru.RuAssignment(26, 1)), frozenset())
    assert any("shared" in v or "occupied" in v for v in validate_layout(layout))


# --- catalog ---------------------------------------------------------------------

def test_20mhz_catalog_contains_canonical_modes():
    sizes = {layout.tone_sizes for layout in layout_catalog(20)}
    assert (242,) in sizes
    assert (106, 106, 26) in sizes
    assert (52, 52, 52, 52, 26) in sizes
    assert (26,) * 9 in sizes


def test_catalog_layouts_all_validate():
    for bw in ru.VALID_BANDWIDTHS_MHZ:
        for layout in layout_catalog(bw):
            assert validate_layout(layout) == []


def test_catalog_20mhz_budget_property():
    for layout in layout_catalog(20):
        assert sum(layout.tone_sizes) <= ru.TONE_BUDGET_PER_20MHZ


def test_nine_by_26_sums_to_234():
    nine = next(l for l in layout_catalog(20) if l.tone_sizes == (26,) * 9)
    assert sum(nine.tone_sizes) == 234


@pytest.mark.parametrize("bandwidth", [20, 40, 80, 160])
def test_engine_tone_plan_is_a_valid_layout(bandwidth):
    # placed as AxBssEngine places its trigger-scheduler layout
    layout = RuLayout.of(bandwidth, engine.SCHEDULER_TONE_PLAN[bandwidth])
    assert validate_layout(layout) == []


# --- puncturing --------------------------------------------------------------------

def test_mode4_secondary20_busy():
    usable = resolve_puncture(PunctureMode(4), {1})
    assert usable == frozenset({0, 2, 3})
    assert len(usable) == 3  # 60 MHz


def test_mode0_is_primary_only():
    assert resolve_puncture(PunctureMode(0), set()) == frozenset({0})


def test_primary_busy_is_no_fit():
    with pytest.raises(NoFitError):
        resolve_puncture(PunctureMode(4), {0})


def test_mode5_picks_the_idle_half():
    assert resolve_puncture(PunctureMode(5), {2}) == frozenset({0, 1, 3})
    assert resolve_puncture(PunctureMode(5), {3}) == frozenset({0, 1, 2})
    with pytest.raises(NoFitError):
        resolve_puncture(PunctureMode(5), {2, 3})


def test_mode6_drops_secondary20_of_primary80():
    assert resolve_puncture(PunctureMode(6), {1}) == frozenset(range(8)) - {1}


def test_mode7_subcases_keep_primary40():
    for busy in ({2, 3}, {2}, {3}):
        usable = resolve_puncture(PunctureMode(7), busy)
        assert {0, 1} <= usable


@given(st.integers(0, 7), st.sets(st.integers(1, 7), max_size=7))
def test_resolved_set_always_contains_primary(mode, busy):
    try:
        usable = resolve_puncture(PunctureMode(mode), busy)
    except NoFitError:
        return
    assert 0 in usable
    assert not (usable & busy)


# --- MU-MIMO admissibility ------------------------------------------------------------

def test_mu_mimo_on_106_tone():
    assert mu_mimo_admissible(106, 2)


def test_no_mu_mimo_on_26_tone():
    assert not mu_mimo_admissible(26, 2)


def test_eight_sta_cap():
    assert mu_mimo_admissible(242, 8)
    assert not mu_mimo_admissible(242, 9)
