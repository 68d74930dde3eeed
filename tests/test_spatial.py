import numpy as np
import pytest
from hypothesis import given, strategies as st

from axsim import spatial
from axsim.config import ScenarioConfig
from axsim.spatial import INTER_BSS, INTRA_BSS, TwoNav, classify_frame, obss_pd_level

SR = ScenarioConfig().sr


# --- classification ------------------------------------------------------------

def test_color_match_is_intra():
    assert classify_frame(12, my_color=12) == INTRA_BSS


def test_foreign_nonzero_color_is_inter():
    assert classify_frame(9, my_color=12) == INTER_BSS


def test_intra_bss_over_an_array_of_colours_agrees_with_classify_frame():
    colors = np.array([12, 9, 12, 63])
    assert spatial.intra_bss(12, colors).tolist() == [
        classify_frame(12, int(c)) == INTRA_BSS for c in colors]


# --- two NAVs --------------------------------------------------------------------------

def hear(nav: TwoNav, cls: str, now: int, duration: int, is_cf_end: bool = False,
         nodes: tuple[int, ...] = (0,)) -> None:
    """One frame of class cls heard at every node of nodes."""
    nav.update(np.array(nodes), np.full(len(nodes), cls == INTRA_BSS), now, duration,
               is_cf_end=is_cf_end)


def test_intra_cf_end_keeps_basic_nav():
    nav = TwoNav(1)
    hear(nav, INTER_BSS, 0, 500)           # basic NAV from a neighbouring BSS
    hear(nav, INTRA_BSS, 0, 300)
    hear(nav, INTRA_BSS, 100, 0, is_cf_end=True)
    assert nav.intra_expiry_ns.tolist() == [0]
    assert nav.basic_expiry_ns.tolist() == [500]
    assert not nav.idle(0, 200)            # stays silent on the basic NAV


def test_scheduled_sta_ignores_intra_nav():
    nav = TwoNav(1)
    hear(nav, INTRA_BSS, 0, 1000)
    assert not nav.idle(0, 500)
    assert nav.idle(0, 500, scheduled_in_intra_tf=True)
    hear(nav, INTER_BSS, 0, 1000)
    assert not nav.idle(0, 500, scheduled_in_intra_tf=True)


def test_both_navs_zero_is_idle():
    assert TwoNav(1).idle(0, 0)


def test_inter_bss_frames_load_basic_nav():
    nav = TwoNav(3)
    # one frame, inter-BSS at node 0 and intra-BSS at node 2; node 1 does not hear it
    nav.update(np.array([0, 2]), np.array([False, True]), 0, 700, is_cf_end=False)
    assert nav.basic_expiry_ns.tolist() == [700, 0, 0]
    assert nav.intra_expiry_ns.tolist() == [0, 0, 700]
    hear(nav, INTER_BSS, 100, 200, nodes=(0, 2))    # node 0 keeps the later expiry
    assert nav.basic_expiry_ns.tolist() == [700, 0, 300]


@given(st.lists(st.tuples(st.sampled_from([INTRA_BSS, INTER_BSS]),
                          st.integers(0, 1000), st.integers(0, 1000),
                          st.booleans()),
                max_size=40))
def test_idle_iff_both_expired(frames):
    """Against one node's NAVs kept by the scalar rule: updates keep the
    later expiry, and an intra-BSS CF-End cancels the intra-BSS NAV; node 0
    hears nothing."""
    nav = TwoNav(2)
    intra = basic = now = 0
    for cls, dt, dur, cf_end in frames:
        now += dt
        cf_end = cf_end and cls == INTRA_BSS
        hear(nav, cls, now, dur, is_cf_end=cf_end, nodes=(1,))
        if cls == INTER_BSS:
            basic = max(basic, now + dur)
        else:
            intra = 0 if cf_end else max(intra, now + dur)
        assert nav.intra_expiry_ns.tolist() == [0, intra]
        assert nav.basic_expiry_ns.tolist() == [0, basic]
        for probe in (now, now + dur // 2, now + dur + 1):
            assert nav.idle(1, probe) == (intra <= probe and basic <= probe)
            assert nav.idle(0, probe)


# --- OBSS_PD -----------------------------------------------------------------------------

@pytest.mark.parametrize("txpwr,expected", [(21.0, -82.0), (11.0, -72.0), (1.0, -62.0)])
def test_obss_pd_level_table(txpwr, expected):
    assert obss_pd_level(txpwr, SR) == pytest.approx(expected)


@given(st.floats(-10, 30), st.floats(-10, 30))
def test_obss_pd_monotone_and_clamped(p1, p2):
    lo, hi = sorted((p1, p2))
    assert obss_pd_level(hi, SR) <= obss_pd_level(lo, SR)
    assert SR.obss_pd_min_dbm <= obss_pd_level(p1, SR) <= SR.obss_pd_max_dbm


def test_max_sr_tx_power_matches_level_formula():
    cap = spatial.max_sr_tx_power(-70.0, SR)
    assert cap == pytest.approx(9.0)
    assert -70.0 < obss_pd_level(cap - 1e-9, SR)
    assert spatial.max_sr_tx_power(-60.0, SR) is None

