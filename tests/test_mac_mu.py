import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from axsim import mu
from axsim.core import RngSet
from axsim.mu import (ACCESS_FAILURE, AID_RANDOM_ACCESS, AID_RESERVED,
                      BsrTable, OboState, TfUser, TriggerFrame,
                      build_schedule, dl_power_split_dbm, mba_for,
                      ocw_on_result, uora_transmit_phase, uora_update,
                      validate_tf)
from axsim.ru import RuAssignment, RuLayout


class ScriptedRng:
    """Replays a fixed sequence of integer draws (for trace replication)."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, a, b):
        v = self.values.pop(0)
        assert a <= v <= b, f"scripted draw {v} outside [{a}, {b}]"
        return v

    def shuffle(self, seq):
        pass


def fig17_layout():
    return RuLayout(20, (RuAssignment(106, 0), RuAssignment(26, 0), RuAssignment(106, 0)))


# --- trigger frame validation -----------------------------------------------------

def test_fig17_shape_valid():
    layout = fig17_layout()
    tf = TriggerFrame(layout, (
        TfUser(1, 0), TfUser(AID_RANDOM_ACCESS, 1),
        TfUser(2, 2, n_ss=2), TfUser(3, 2, n_ss=2, ss_start=2)),
        mu_mimo_ltf_mode=1)
    assert validate_tf(tf) == []
    assert tf.ra_ru_indices == (1,)
    assert {u.aid12 for u in tf.scheduled_users} == {1, 2, 3}
    assert tf.ru_of(tf.per_user[0]).tones == 106


def test_mu_mimo_on_26_tone_rejected():
    layout = RuLayout(20, (RuAssignment(26, 0),))
    tf = TriggerFrame(layout, (TfUser(2, 0), TfUser(3, 0)),
                      mu_mimo_ltf_mode=1)
    assert any("not MU-MIMO admissible" in v for v in validate_tf(tf))


def test_reserved_aid_rejected():
    layout = RuLayout(20, (RuAssignment(106, 0),))
    tf = TriggerFrame(layout, (TfUser(AID_RESERVED, 0),))
    assert any("reserved" in v for v in validate_tf(tf))


def test_ra_ru_never_carries_streams():
    layout = RuLayout(20, (RuAssignment(106, 0),))
    tf = TriggerFrame(layout, (TfUser(AID_RANDOM_ACCESS, 0, n_ss=2),))
    assert any("spatial-stream" in v for v in validate_tf(tf))


# --- UORA update ---------------------------------------------------------------------

def test_uora_fig18_round1_updates():
    initial = [3, 5, 7, 8, 7, 0]
    rng = ScriptedRng(initial)
    states = {sta: OboState(ocw=15) for sta in range(1, 7)}
    eligible = {}
    for sta in range(1, 7):
        ok, states[sta] = uora_update(states[sta], 5, rng)
        eligible[sta] = ok
    assert [sta for sta, ok in eligible.items() if ok] == [1, 2, 6]
    assert [states[s].obo for s in (3, 4, 5)] == [2, 3, 2]
    assert all(states[s].obo == 0 for s in (1, 2, 6))


def test_uora_boundary_configurable():
    rng = ScriptedRng([])
    ok, state = uora_update(OboState(obo=5), 5, rng)
    assert ok and state.obo == 0
    ok, state = uora_update(OboState(obo=5), 5, rng, boundary_eligible=False)
    assert not ok and state.obo == 0  # eligible at the next TF


def test_uora_no_ra_rus_is_noop():
    state = OboState(obo=4)
    ok, after = uora_update(state, 0, ScriptedRng([]))
    assert not ok and after.obo == 4


# --- UORA transmit phase + full Fig. 18 two-round walkthrough ---------------------------

def ru_outcomes(states, transmitted, n_ra_rus):
    """Each RA RU's outcome from the candidate RUs of the STAs that
    transmitted: the STA alone on it (success), "collision" for several,
    None for an idle RU."""
    on_ru = {i: [sta for sta in transmitted if states[sta].candidate_ru == i]
             for i in range(n_ra_rus)}
    return {i: stas[0] if len(stas) == 1 else "collision" if stas else None
            for i, stas in on_ru.items()}


def test_uora_fig18_two_rounds():
    # Round 1: five RA RUs, initial OBOs {3,5,7,8,7,0} for STA1..6.
    rng = ScriptedRng([3, 5, 7, 8, 7, 0])
    states = {sta: OboState(ocw=15) for sta in range(1, 7)}
    eligible = {}
    for sta in sorted(states):
        ok, states[sta] = uora_update(states[sta], 5, rng)
        if ok:
            eligible[sta] = states[sta]
    assert sorted(eligible) == [1, 2, 6]

    # STA1 picks RU3 but its channel goes busy during SIFS; STA2 -> RU1,
    # STA6 -> RU4 transmit and are decoded.
    picks = ScriptedRng([2, 0, 3])   # RU indices for STA1, STA2, STA6
    updated, transmitted = uora_transmit_phase(
        eligible, 5, carrier_idle=lambda sta: sta != 1, rng=picks)
    states.update(updated)
    assert transmitted == [2, 6]
    assert ru_outcomes(states, transmitted, 5) == {0: 2, 1: None, 2: None, 3: 6,
                                                   4: None}
    assert states[1].obo == 0 and states[1].candidate_ru is None
    mba = mba_for({2: (True,), 6: (True,)})
    assert mba.acked_stas == {2, 6}
    for sta in mba.acked_stas:
        states[sta] = ocw_on_result(states[sta], acked=True)
        assert states[sta].ocw == states[sta].ocw_min

    # Round 2: STA2/STA6 are done; STA7 joins with OBO draw 4; everyone's
    # counter reaches zero.  STA3 and STA5 pick the same RU and collide,
    # STA1 and STA4 succeed, STA7 defers on its NAV.
    del states[2], states[6]
    states[7] = OboState(ocw=15)
    rng2 = ScriptedRng([4])          # only STA7 still needs a draw
    eligible2 = {}
    for sta in sorted(states):
        ok, states[sta] = uora_update(states[sta], 5, rng2)
        if ok:
            eligible2[sta] = states[sta]
    assert sorted(eligible2) == [1, 3, 4, 5, 7]

    picks2 = ScriptedRng([1, 2, 4, 2, 0])  # STA1, STA3, STA4, STA5, STA7
    updated2, transmitted2 = uora_transmit_phase(
        eligible2, 5, carrier_idle=lambda sta: sta != 7, rng=picks2)
    states.update(updated2)
    assert transmitted2 == [1, 3, 4, 5]
    assert [states[sta].candidate_ru for sta in transmitted2] == [1, 2, 4, 2]
    assert ru_outcomes(states, transmitted2, 5) == {0: None, 1: 1, 2: "collision",
                                                    3: None, 4: 4}
    assert states[7].obo == 0 and states[7].candidate_ru is None

    mba2 = mba_for({1: (True,), 4: (True,)})
    assert mba2.acked_stas == {1, 4}
    for sta in (3, 5):
        before = states[sta].ocw
        states[sta] = ocw_on_result(states[sta], acked=False)
        assert states[sta].ocw == 2 * (before + 1) - 1


def test_zero_eligible_leaves_rus_idle():
    states, transmitted = uora_transmit_phase({}, 4, lambda s: True, ScriptedRng([]))
    assert states == {} and transmitted == []
    assert ru_outcomes(states, transmitted, 4) == dict.fromkeys(range(4))


# --- OCW evolution ------------------------------------------------------------------------

def test_ocw_restore_and_double():
    assert ocw_on_result(OboState(ocw=7), acked=True).ocw == 7  # ocw_min default 7
    assert ocw_on_result(OboState(ocw=7, ocw_max=31), acked=False).ocw == 15
    assert ocw_on_result(OboState(ocw=31, ocw_max=31), acked=False).ocw == 31


@given(st.integers(0, 8))
def test_ocw_never_exceeds_max(failures):
    state = OboState(ocw_min=7, ocw_max=31)
    for _ in range(failures):
        state = ocw_on_result(state, acked=False)
        assert state.ocw_min <= state.ocw <= state.ocw_max


# --- BSR -----------------------------------------------------------------------------------

def test_bsr_piggyback_and_zero_removal():
    table = BsrTable()
    table.ingest(4, 12_000)
    table.ingest(5, 9_000)
    assert table.backlogged() == [4, 5]
    table.ingest(4, 0)     # empty queue leaves the pool
    assert table.backlogged() == [5]


def test_bsrp_partial_update():
    table = BsrTable()
    table.ingest(7, 5_000)  # the other response was lost to PER
    assert list(table.queued) == [7]


# --- scheduling --------------------------------------------------------------------------------

def test_build_schedule_uniform_assignment():
    layout = fig17_layout()
    rng = RngSet(3).stream("sched")
    counts = Counter()
    for _ in range(3000):
        table = BsrTable()
        for sta in (1, 2, 3):
            table.ingest(sta, 1500)
        tf = build_schedule(table.backlogged(), layout, rng)
        assert sorted(u.aid12 for u in tf.per_user) == [1, 2, 3]
        for slot, user in enumerate(tf.per_user):
            counts[(slot, user.aid12)] += 1
    for slot in range(3):
        for sta in (1, 2, 3):
            assert counts[(slot, sta)] / 3000 == pytest.approx(1 / 3, abs=0.05)


def test_build_schedule_marks_ra_fraction():
    table = BsrTable()
    table.ingest(1, 1500)
    layout = RuLayout(20, tuple(RuAssignment(26, 0) for _ in range(9)))
    tf = build_schedule(table.backlogged(), layout, RngSet(0).stream("s"),
                        ra_fraction=1 / 3)
    assert len(tf.ra_ru_indices) == 3


def test_build_schedule_mu_mimo_falls_back_on_small_ru():
    table = BsrTable()
    for sta in range(1, 7):
        table.ingest(sta, 1500)
    layout = RuLayout(20, (RuAssignment(106, 0), RuAssignment(26, 0)))
    tf = build_schedule(table.backlogged(), layout, RngSet(1).stream("s"),
                        users_per_ru=2)
    by_ru = [len(tf.users_of(i)) for i in range(len(layout.rus))]
    assert by_ru == [2, 1]        # pairing only on the 106-tone RU
    assert validate_tf(tf) == []


def test_build_schedule_empty_pool_defers():
    assert build_schedule([], fig17_layout(), RngSet(0).stream("s")) is None


# --- round outcomes -----------------------------------------------------------------------------

def test_mba_covers_exactly_decoded_set():
    assert mba_for({1: (True,), 2: (True, False)}).acked_stas == {1, 2}


def test_zero_decodes_is_access_failure():
    assert mba_for({}) == ACCESS_FAILURE


def test_dl_power_split_is_linear_division():
    assert dl_power_split_dbm(18.0, 4) == pytest.approx(18.0 - 10 * math.log10(4))
    assert dl_power_split_dbm(18.0, 1) == 18.0


# --- the engine's UL rounds: AIDs in MAC frames, node ids on the air ------------------

def test_ul_rounds_name_stas_by_aid_and_frames_by_node_id(monkeypatch):
    from axsim.config import default_config
    from axsim.engine import RunContext

    cfg = default_config("indoor_multi", direction="ul", n_bss=3, stas_per_bss=8,
                         duration_s=0.2, per_sta_rate_mbps=13, seed=1)
    cfg.radio.sta_antennas = 1        # two users per 106-tone RU: MU-MIMO partners
    cfg.mac.ra_ru_fraction = 0.34     # one random-access RU: UORA
    ctx = RunContext(cfg, "ax_ofdma_mumimo")
    seen = Counter()
    uora_aids = []

    def uora_phase(eligible, *args):
        uora_aids.extend(eligible)
        return uora_transmit_phase(eligible, *args)

    monkeypatch.setattr(mu, "uora_transmit_phase", uora_phase)
    for engine in ctx.engines:
        node_of = {sta.aid: sta.node_id for sta in engine.stas}
        sta_ids = set(node_of.values())
        send = engine.send

        def check(node, kind, start, end, then=None, _send=send,
                  _bss=engine.bss_id, _node_of=node_of, _sta_ids=sta_ids, **fields):
            tx = _send(node, kind, start, end, then, **fields)
            if kind in ("tf", "tf-bsrp"):
                aids = [u.aid12 for u in tx.payload.per_user
                        if not u.is_random_access]
                assert {_node_of[aid] for aid in aids} == tx.involves
            elif kind == "mba":
                assert {_node_of[aid] for aid in tx.payload.bitmaps} == tx.involves
            elif kind == "he-tb":
                assert tx.tx_node in tx.involves
                assert set(tx.ru.users) <= _sta_ids - {tx.tx_node}
                kind += "-shared" if tx.ru.users else ""
            seen[_bss, kind] += 1
            return tx

        engine.send = check
    ctx.run()
    # BSS 1's STAs are nodes 10-17 and AIDs 1-8, so the two cannot be mixed
    # up there unnoticed
    assert all(seen[1, kind] > 0
               for kind in ("tf", "tf-bsrp", "mba", "he-tb", "he-tb-shared"))
    assert uora_aids and set(uora_aids) <= set(range(1, 9))
