import pytest
from hypothesis import given, strategies as st

from axsim import power
from axsim.core import MS, SEC, US
from axsim.power import (AWAKE, DOZE, FLOW_NO_UORA, FLOW_TIM_AT_START,
                         FLOW_UORA, EnergyAccount, PowerState, TwtError,
                         TwtSp, intra_ppdu_doze, periodic_twt_tick,
                         twt_negotiate, uora_twt_doze, wake_interval)
from axsim.spatial import INTER_BSS, INTRA_BSS


# --- wake interval --------------------------------------------------------------

def test_wake_interval_product():
    assert wake_interval(10, 3) == 80
    assert wake_interval(0, 17) == 0
    assert wake_interval(1, 0) == 1


def test_wake_interval_overflow():
    with pytest.raises(TwtError, match="overflow"):
        wake_interval(3, 63)


def test_flow_identifier_range():
    with pytest.raises(TwtError, match="reserved"):
        TwtSp(0, MS, flow_identifier=4)


def test_uora_sp_requires_trigger():
    with pytest.raises(TwtError):
        TwtSp(0, MS, trigger=False, flow_identifier=FLOW_UORA)


# --- negotiation -----------------------------------------------------------------

def test_negotiate_accepts_free_slot():
    response = twt_negotiate(TwtSp(10 * MS, 2 * MS), existing=[])
    assert response.verdict == "accept"
    assert response.sp.target_wake_time_ns == 10 * MS


def test_negotiate_shifts_overlapping_request():
    existing = [TwtSp(10 * MS, 5 * MS)]
    response = twt_negotiate(TwtSp(12 * MS, 2 * MS), existing)
    assert response.verdict == "alternative"
    assert response.sp.target_wake_time_ns == 15 * MS  # next free slot
    # the audit: the shifted SP no longer overlaps
    assert response.sp.target_wake_time_ns >= existing[0].end_ns


def test_negotiate_listen_interval_reply():
    request = TwtSp(0, MS, wake_interval_mantissa=10, wake_interval_exponent=20)
    response = twt_negotiate(request, [], listen_interval=True, next_beacon_ns=7 * MS)
    assert response.verdict == "accept"
    assert response.next_beacon_ns == 7 * MS
    assert response.sp.interval_ns == 10 << 20


# --- energy ledger -----------------------------------------------------------------

def test_energy_ledger_closure():
    ps = PowerState()
    ps.mark_tx(2 * MS, 1 * MS)
    ps.doze(5 * MS)
    ps.wake(9 * MS)
    account = ps.finish(10 * MS)
    assert account.total_ns == 10 * MS
    assert account.tx_ns == 1 * MS
    assert account.doze_ns == 4 * MS
    assert account.awake_ns == 5 * MS


def test_energy_units_weighting():
    account = EnergyAccount(awake_ns=SEC, tx_ns=SEC, doze_ns=SEC)
    assert account.energy_units == pytest.approx(1.0 + 1.8 + 0.05)


def test_dozing_sta_cannot_transmit():
    ps = PowerState()
    ps.doze(0)
    with pytest.raises(TwtError):
        ps.mark_tx(1 * MS, MS)


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
            ps.mark_tx(now, 1)
    total = now + 5
    assert ps.finish(total).total_ns == total


# --- UORA-oriented TWT doze ----------------------------------------------------------

def test_uora_sp_flow1_is_skipped_entirely():
    assert not power.sp_applies_to_uora_sta(TwtSp(0, MS, flow_identifier=FLOW_NO_UORA))
    assert power.sp_applies_to_uora_sta(TwtSp(0, MS, flow_identifier=FLOW_UORA))


def test_uora_walkthrough_two_tf_rounds():
    # Three STAs in a UORA SP: two are served by the first TF and doze; the
    # third waits through the cascaded TF, succeeds, then dozes at cascade end.
    sta1, sta2, sta3 = PowerState(), PowerState(), PowerState()
    t_tf1 = 1 * MS
    uora_twt_doze(sta1, t_tf1, cascade=True, transmitted_or_eligible=True)
    uora_twt_doze(sta2, t_tf1, cascade=True, transmitted_or_eligible=True)
    uora_twt_doze(sta3, t_tf1, cascade=True, transmitted_or_eligible=False)
    assert sta1.dozing and sta2.dozing and not sta3.dozing
    t_tf2 = 2 * MS
    uora_twt_doze(sta3, t_tf2, cascade=False, transmitted_or_eligible=True)
    assert sta3.dozing


def test_uora_not_eligible_no_cascade_dozes():
    sta = PowerState()
    uora_twt_doze(sta, MS, cascade=False, transmitted_or_eligible=False)
    assert sta.dozing


# --- periodic TWT ---------------------------------------------------------------------

def test_periodic_tim_roles_swap():
    sps = TwtSp(0, MS, flow_identifier=FLOW_TIM_AT_START,
                wake_interval_mantissa=10, wake_interval_exponent=20)
    stas = [PowerState() for _ in range(4)]
    # SP1 flags STA1, STA2
    for i, sta in enumerate(stas):
        periodic_twt_tick(sta, 0, tim_bit=i < 2)
    assert [s.dozing for s in stas] == [False, False, True, True]
    # SP2 flags STA3, STA4
    for i, sta in enumerate(stas):
        periodic_twt_tick(sta, sps.interval_ns, tim_bit=i >= 2)
    assert [s.dozing for s in stas] == [True, True, False, False]


def test_all_zero_tim_dozes_everyone():
    sta = PowerState()
    periodic_twt_tick(sta, 0, tim_bit=False)
    assert sta.dozing


def test_lost_tim_keeps_sta_awake():
    sta = PowerState()
    periodic_twt_tick(sta, 0, tim_bit=None)
    assert not sta.dozing
    # conservative miss costs energy but is not a protocol error
    assert sta.finish(MS).awake_ns == MS


# --- intra-PPDU doze ---------------------------------------------------------------------

def test_intra_ppdu_doze_until_exact_end():
    sta = PowerState()
    wake_at = intra_ppdu_doze(sta, 100 * US, INTRA_BSS, involves_me=False,
                              ppdu_end_ns=900 * US)
    assert wake_at == 900 * US
    assert sta.dozing
    sta.wake(wake_at)
    assert sta.finish(MS).doze_ns == 800 * US


def test_no_doze_when_addressed():
    sta = PowerState()
    assert intra_ppdu_doze(sta, 0, INTRA_BSS, involves_me=True, ppdu_end_ns=MS) is None
    assert not sta.dozing


def test_no_doze_for_inter_bss_ppdu():
    sta = PowerState()
    assert intra_ppdu_doze(sta, 0, INTER_BSS, involves_me=False, ppdu_end_ns=MS) is None
    assert not sta.dozing


def test_nav_untouched_by_doze_transitions():
    from axsim.spatial import TwoNav
    nav = TwoNav()
    nav.update(INTRA_BSS, 0, 5 * MS)
    sta = PowerState()
    before = (nav.intra_expiry_ns, nav.basic_expiry_ns)
    intra_ppdu_doze(sta, 0, INTRA_BSS, involves_me=False, ppdu_end_ns=MS)
    sta.wake(MS)
    assert (nav.intra_expiry_ns, nav.basic_expiry_ns) == before
