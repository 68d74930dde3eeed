"""Carrier sense, contention, decode SINR and the NAV pass against scalar
references.

The engine derives carrier sense and NAV readability from one reach per
(transmitter, power, colour), for all nodes at once.  These tests restate
the rules one node and one frame at a time, from the link budget, and
compare, and check that no frame carries an array over all nodes.  A frame
is sensed from its start event until its end event.  The run keeps, per
node, a count of the sensed frames that block it; the references count them
one by one over the frames whose start listener has run, and the medium's
one list of frames on the air is checked against that filter at every
read.  An attempt that fires at a frame's start instant was armed before
the frame's handover, so it fires before the start event and transmits; one
that fires later meets the frame.  One batched step per medium change
freezes and arms exactly the contenders whose attempt disagrees with their
node's carrier state; the contention tests check that none is left out of
step, that each medium change reads the carrier state at most once, that
each attempt takes its SR power cap when it fires and its TXOP sends every
frame under it, and that attempts keep their place among events of the
same instant, also when they wait in the queue behind a frozen or re-armed
attempt of their batch.  Decode SINR and NAV readability read one walk of
each frame's interferers; the references walk the whole frames on the air
with it, one by one.  Every power sum, theirs too, adds received powers in
mW, each frame's row made once with numpy's power, and goes back to dB
through numpy's log10, so they compare with ==.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from axsim import phy, spatial
from axsim.config import default_config
from axsim.core import DIFS, SIFS, SLOT_TIME, US, Simulator
from axsim.contention import cap_at
from axsim.engine import EIFS, MIN_SR_TXPWR_DBM, BssEngine, Contender, Reach, RunContext
from axsim.medium import SUBCHANNEL_HZ, Medium, RuPart, Transmission

MULTI = dict(n_bss=3, stas_per_bss=8, per_sta_rate_mbps=13)


def started(scheme: str, kind: str = "indoor_multi", direction: str = "ul",
            duration_s: float = 0.05, sr: dict | None = None, doze: bool = False,
            noise_figure_db: float | None = None, **overrides) -> RunContext:
    cfg = default_config(kind, direction=direction, duration_s=duration_s,
                         **overrides)
    for key, value in (sr or {}).items():
        setattr(cfg.sr, key, value)
    if noise_figure_db is not None:
        cfg.radio.noise_figure_db = noise_figure_db
    ctx = RunContext(cfg, scheme, intra_ppdu_doze=doze)
    for engine in ctx.engines:
        engine.kick()
    return ctx


def rx_dbm(ctx: RunContext, tx: Transmission) -> np.ndarray:
    """tx's received power per 20 MHz subchannel at every node, in dBm: its
    power less the loss to each node."""
    return tx.power_per_subchannel_dbm() - ctx.loss_db[tx.tx_node]


def rx_mw(ctx: RunContext, tx: Transmission) -> np.ndarray:
    """rx_dbm in mW: the one conversion from dBm, a numpy power over the
    whole row."""
    return np.power(10.0, rx_dbm(ctx, tx) / 10.0)


def noise_mw(ctx: RunContext, band_hz: float) -> float:
    return phy.dbm_to_mw(phy.noise_dbm(band_hz, ctx.cfg.radio.noise_figure_db))


class OnAir:
    """The frames whose start listener has run and whose end has not, as a
    listener that runs before every other sees them."""

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        self.ids: set[int] = set()
        ctx.medium.listeners.insert(0, self.note)

    def note(self, event: str, tx: Transmission) -> None:
        if event == "start":
            self.ids.add(tx.tx_id)
        else:
            self.ids.discard(tx.tx_id)

    def __call__(self) -> list[Transmission]:
        """The started frames, in the order they were handed over.  A frame
        has started by now if it starts before now, and not if it starts
        after now."""
        now = self.ctx.sim.now
        out = []
        for tx in self.ctx.medium.active.values():
            if tx.tx_id in self.ids:
                assert tx.start_ns <= now, (now, tx.tx_id)
                out.append(tx)
            else:
                assert tx.start_ns >= now, (now, tx.tx_id)
        return out


def reference_cap(ctx: RunContext, color: int, node_id: int, p: float) -> float | None:
    """The SR power cap a frame of colour `color`, sensed at node_id at a
    level p at or above CCA, sets there; None if it blocks the node.  It
    blocks unless spatial reuse lets the node cap its power under an
    inter-BSS frame's OBSS_PD level at a power that still closes its BSS's
    worst link."""
    node = ctx.nodes[node_id]
    if not ctx.features.spatial_reuse \
            or spatial.classify_frame(color, node.color) != spatial.INTER_BSS:
        return None
    engine = next(e for e in ctx.engines if e.bss_id == node.bss_id)
    worst = max(ctx.loss(engine.ap, sta) for sta in engine.stas)
    noise = phy.noise_dbm(20e6, ctx.cfg.radio.noise_figure_db)
    allowed = spatial.max_sr_tx_power(p, ctx.cfg.sr)
    if allowed is None or allowed < MIN_SR_TXPWR_DBM \
            or allowed - worst - noise < ctx.per_model.thresholds_db[0]:
        return None
    return allowed


def reference_cs_state(ctx: RunContext, on_air: OnAir,
                       node_id: int) -> tuple[int, float | None]:
    """Carrier sense of one node, one started frame at a time: how many
    frames block it, and the lowest SR power cap the others set (None for
    none).  A frame on the primary 20 MHz that has started and reaches CCA
    blocks or caps (`reference_cap`)."""
    count = 0
    cap = None
    for tx in on_air():
        if tx.tx_node == node_id or 0 not in tx.subchannels:
            continue
        p = tx.power_per_subchannel_dbm() - ctx.loss_db[tx.tx_node, node_id]
        if p < ctx.cfg.phy.cca_threshold_dbm:
            continue
        allowed = reference_cap(ctx, tx.color, node_id, p)
        if allowed is None:
            count += 1
        else:
            cap = allowed if cap is None else min(cap, allowed)
    return count, cap


def compare_cs_over_run(ctx: RunContext, step_ns: int) -> Counter:
    """Compare the carrier state with the reference for every node at every
    frame start and end and on a time grid: each node's busy count with the
    frames that block it, `count > 0` with the OR of the sensed frames'
    blocked nodes (all counts zero when nothing is sensed) and an unblocked
    node's SR power cap with the lowest the frames set.  Each node whose
    backoff completes must be unblocked and take that cap, which its TXOP
    transmits under.  Counts what was seen."""
    seen = Counter()
    nodes = sorted(ctx.nodes)
    contention = ctx.contention
    on_air = OnAir(ctx)

    def check(*_):
        seen["instants"] += 1
        blocked, caps = ctx.engines[0].cs_state()
        busy = ctx.busy_count
        sensed = ctx.medium.sensed()
        if sensed:
            rows = np.zeros(len(busy), dtype=bool)
            for tx in sensed:
                rows[ctx.reach(tx).blocked] = True
            np.testing.assert_array_equal(busy > 0, rows)
        else:
            assert not busy.any(), ctx.sim.now
            seen["idle"] += 1
        for node_id in nodes:
            count, cap = reference_cs_state(ctx, on_air, node_id)
            assert (busy[node_id], blocked[node_id]) == (count, count > 0), \
                (ctx.sim.now, node_id)
            if not count:
                assert cap_at(caps, node_id) == (math.inf if cap is None else cap), \
                    (ctx.sim.now, node_id)
            seen["busy"] += count > 0
            seen["capped"] += not count and cap is not None

    def firing(on_backoff_complete):
        def fired(node):
            count, cap = reference_cs_state(ctx, on_air, node.node_id)
            assert count == 0, (ctx.sim.now, node.node_id)
            assert contention.sr_cap_dbm[node.node_id] == \
                (math.inf if cap is None else cap), (ctx.sim.now, node.node_id)
            seen["fired"] += 1
            seen["fired_capped"] += cap is not None
            on_backoff_complete(node)
        return fired

    for engine in ctx.engines:
        engine.on_backoff_complete = firing(engine.on_backoff_complete)
    ctx.medium.listeners.append(check)          # runs after RunContext._dispatch_air
    for t in range(step_ns, ctx.cfg.duration_ns + 1, step_ns):
        ctx.sim.run_until(t)
        check()
    return seen


def test_cs_state_matches_the_scalar_rule_without_spatial_reuse():
    ctx = started("ac_baseline", **MULTI)
    seen = compare_cs_over_run(ctx, 97 * US)
    assert seen["busy"] > 0 and seen["capped"] == 0


# The golden multi-BSS points (tests/test_golden.py), with and without
# spatial reuse: every medium change of the whole run.
@pytest.mark.parametrize("scheme, direction", [
    ("ac_baseline", "ul"), ("ac_baseline", "dl"), ("ax_sr", "ul"), ("ax_sr", "dl"),
])
def test_busy_counts_match_the_sensed_frames_over_the_golden_runs(scheme, direction):
    ctx = started(scheme, direction=direction, duration_s=0.2, **MULTI)
    seen = compare_cs_over_run(ctx, 97 * US)
    assert seen["busy"] > 0 and seen["idle"] > 0 and seen["fired"] > 50, seen


@pytest.mark.parametrize("scheme, direction", [
    ("ac_baseline", "ul"), ("ac_baseline", "dl"), ("ax_sr", "ul"), ("ax_sr", "dl"),
])
def test_the_shared_sensed_list_equals_the_filter_over_the_golden_runs(
        monkeypatch, scheme, direction):
    """At every read, Medium.sensed's list holds the started frames on the
    primary 20 MHz, in the order they started: by start time, and at one
    start time in handover order, as their start events were pushed.  It is
    changed only by start and end events: reads at later instants share
    it."""
    seen = Counter()
    sensed = Medium.sensed
    last, last_ns = None, -1

    def reading(medium):
        nonlocal last, last_ns
        now_ns = medium.sim.now
        got = sensed(medium)
        want = sorted((tx for tx in on_air() if 0 in tx.subchannels),
                      key=lambda tx: tx.start_ns)
        assert [id(tx) for tx in got] == [id(tx) for tx in want], now_ns
        seen["shared later"] += got is last and now_ns > last_ns
        seen["frames"] += len(got)
        last, last_ns = got, now_ns
        return got

    monkeypatch.setattr(Medium, "sensed", reading)
    ctx = started(scheme, direction=direction, duration_s=0.2, **MULTI)
    on_air = OnAir(ctx)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert seen["shared later"] > 50 and seen["frames"] > 50, seen


# A DL round too short for any user skips link adaptation.  On the four-BSS
# outdoor DL point that leaves 15 reads on a quiet medium in 0.2 s (24 with
# every round read), so that point runs 1 s, which gives 57.
@pytest.mark.parametrize("kind, direction, overrides", [
    ("indoor_multi", "ul", dict(MULTI, duration_s=0.2)),
    ("outdoor_multi", "dl", dict(n_bss=4, stas_per_bss=6, per_sta_rate_mbps=20,
                                 duration_s=1.0)),
])
def test_link_adaptation_reads_the_frames_carrier_sense_reads(
        monkeypatch, kind, direction, overrides):
    """Medium.interference_dbm adds to the noise the other-BSS power of the
    started frames on the primary 20 MHz, in the order they started, as
    Medium.sensed lists them: a frame handed over but not yet started adds
    nothing."""
    seen = Counter()
    interference_dbm = Medium.interference_dbm

    def reading(medium, rx_node, band_hz, exclude_bss):
        got = interference_dbm(medium, rx_node, band_hz, exclude_bss)
        total_mw = 0.0
        for tx in sorted(on_air(), key=lambda tx: tx.start_ns):
            if tx.bss_id != exclude_bss and 0 in tx.subchannels:
                total_mw += rx_mw(ctx, tx)[rx_node]
        if band_hz < SUBCHANNEL_HZ:
            total_mw *= band_hz / SUBCHANNEL_HZ
        assert got == 10.0 * np.log10(noise_mw(ctx, band_hz) + total_mw), \
            (medium.sim.now, rx_node)
        seen["interfered" if total_mw else "quiet"] += 1
        seen["left out"] += sum(tx.bss_id != exclude_bss and tx.start_ns > medium.sim.now
                                for tx in medium.active.values())
        return got

    monkeypatch.setattr(Medium, "interference_dbm", reading)
    ctx = started("ax_sr", kind=kind, direction=direction, **overrides)
    on_air = OnAir(ctx)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert seen["interfered"] > 20 and seen["quiet"] > 20 and seen["left out"] > 0, seen


# With the default OBSS_PD range every cap clears MIN_SR_TXPWR_DBM; a higher
# OBSS_PD maximum lets stronger frames set caps below it, and indoor links
# are short enough for such caps to pass the worst-link test.  A 12 dB noise
# figure moves that test.  The default-range run is 0.2 s long, over which
# its APs' attempts fire 312 times, 137 of them under a cap.
@pytest.mark.parametrize("kind, overrides, sr", [
    ("outdoor_multi", dict(n_bss=4, stas_per_bss=6, per_sta_rate_mbps=20,
                           duration_s=0.2), {}),
    ("indoor_multi", MULTI, {"obss_pd_max_dbm": -40.0}),
    ("outdoor_multi", dict(n_bss=4, stas_per_bss=6, per_sta_rate_mbps=20,
                           noise_figure_db=12.0), {}),
])
def test_cs_state_matches_the_scalar_rule_with_spatial_reuse(kind, overrides, sr):
    ctx = started("ax_sr", kind=kind, sr=sr, **overrides)
    seen = compare_cs_over_run(ctx, 97 * US)
    assert seen["busy"] > 0
    assert seen["capped"] > 0       # some node may transmit at an SR power cap
    assert seen["fired_capped"] > 0, seen


# The golden ax_sr points (tests/test_golden.py), with and without doze.  Only
# the AP contends under the HE schemes, so every TXOP is an AP's, and the
# STAs' HE-TBs in it follow the AP's cap.
@pytest.mark.parametrize("direction, doze", [
    ("ul", False), ("dl", False), ("ul", True), ("dl", True),
])
def test_every_frame_of_a_txop_goes_out_under_the_cap_taken_at_its_fire(
        direction, doze):
    """Under OBSS_PD the transmit power restriction is fixed when the backoff
    reaches zero and holds for the TXOP that follows (IEEE 802.11ax-2021,
    26.10.2): every frame of a TXOP goes out at min(its sender's power, cap),
    cap being the scalar reference cap at the TXOP's holder when its
    attempt fired.  A cap taken when the attempt was armed misses the
    capping frames that start during the countdown, which cap without
    blocking and so leave the attempt armed."""
    ctx = started("ax_sr", direction=direction, duration_s=0.2, doze=doze, **MULTI)
    on_air = OnAir(ctx)
    fire_cap = {}
    seen = Counter()

    def firing(on_backoff_complete):
        def fired(node):
            count, cap = reference_cs_state(ctx, on_air, node.node_id)
            assert count == 0, (ctx.sim.now, node.node_id)
            fire_cap[node.node_id] = math.inf if cap is None else cap
            seen["fired"] += 1
            seen["capped"] += cap is not None
            on_backoff_complete(node)
        return fired

    def sending(send):
        def sent(node, kind, start, end, then=None, txop=None, **fields):
            tx = send(node, kind, start, end, then, txop=txop, **fields)
            if txop is not None:
                assert txop.holder.in_txop, (ctx.sim.now, kind)
                cap = fire_cap[txop.holder.node_id]
                assert tx.power_dbm == min(node.tx_power_dbm, cap), \
                    (ctx.sim.now, kind, node.node_id, tx.power_dbm, cap)
                seen["frames"] += 1
                seen["capped frames"] += cap < node.tx_power_dbm
            return tx
        return sent

    for engine in ctx.engines:
        engine.on_backoff_complete = firing(engine.on_backoff_complete)
        engine.send = sending(engine.send)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert seen["fired"] > 50 and seen["capped"] > 0, seen
    assert seen["frames"] > 200 and seen["capped frames"] > 0, seen


# --- contention ----------------------------------------------------------------------

@pytest.mark.parametrize("kind, scheme, direction, overrides, doze", [
    ("indoor_multi", "ac_baseline", "ul", MULTI, False),
    ("outdoor_multi", "ax_sr", "ul", dict(n_bss=4, stas_per_bss=6, per_sta_rate_mbps=20),
     False),
    ("indoor_multi", "ax_sr", "dl", MULTI, True),
])
def test_active_contenders_are_armed_exactly_when_their_node_is_not_blocked(
        monkeypatch, kind, scheme, direction, overrides, doze):
    seen = Counter()
    on_medium_change = Contender.on_medium_change

    def acting(contention, blocked):
        # the nodes out of step, and only they, change; gen counts the
        # steps that change some node
        out_of_step = contention.active & (contention.pending == blocked)
        gen, pending = contention.gen, contention.pending.copy()
        on_medium_change(contention, blocked)
        np.testing.assert_array_equal(contention.pending != pending, out_of_step)
        assert (contention.gen != gen) == out_of_step.any()
        seen["freeze"] += int((out_of_step & blocked).sum())
        seen["arm"] += int((out_of_step & ~blocked).sum())

    monkeypatch.setattr(Contender, "on_medium_change", acting)
    ctx = started(scheme, kind=kind, direction=direction, duration_s=0.1,
                  doze=doze, **overrides)
    contention = ctx.contention

    def check(*_):          # runs after RunContext._dispatch_air
        blocked, _ = ctx.engines[0].cs_state()
        for i in contention.active.nonzero()[0].tolist():
            assert i in contention.engine_of
            assert contention.pending[i] != blocked[i], (ctx.sim.now, i)
            seen["active"] += 1

    ctx.medium.listeners.append(check)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert seen["freeze"] > 0 and seen["arm"] > 0 and seen["active"] > 100, seen


# (any contender active, carrier-state reads) per medium change: STAs contend
# all through the UL run; the DL run's only contender, the AP, is never
# active while the medium changes, since only its own TXOPs change it.
@pytest.mark.parametrize("kind, scheme, direction, overrides, common", [
    ("indoor_multi", "ac_baseline", "ul", MULTI, (True, 1)),
    ("indoor_single", "ax_ofdma", "dl", dict(stas_per_bss=8), (False, 0)),
])
def test_a_medium_change_reads_the_carrier_state_once_if_a_contender_is_active(
        monkeypatch, kind, scheme, direction, overrides, common):
    """The contention gate of RunContext._dispatch_air reads the carrier
    state once per medium change, and not at all while no contender is
    active; neither the NAV pass nor the doze phase reads it."""
    reads = Counter()
    dispatches = Counter()
    cs_state = BssEngine.cs_state
    dispatch = RunContext._dispatch_air

    def counting(engine):
        reads["cs_state"] += 1
        return cs_state(engine)

    def dispatching(ctx, event, tx):
        active = bool(ctx.contention.active.any())
        before = reads["cs_state"]
        dispatch(ctx, event, tx)
        dispatches[active, reads["cs_state"] - before] += 1

    monkeypatch.setattr(BssEngine, "cs_state", counting)
    monkeypatch.setattr(RunContext, "_dispatch_air", dispatching)
    ctx = started(scheme, kind=kind, direction=direction, doze=True, **overrides)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert set(dispatches) <= {(True, 1), (False, 0)}, dispatches
    assert dispatches[common] > 100, dispatches


def test_a_frozen_attempt_resumes_with_the_slots_left():
    """Arm 10 slots, sense a frame 4 slots and a fraction into the countdown,
    then resume with 6 slots after the NAV the frame set."""
    ctx = RunContext(default_config("indoor_single", stas_per_bss=1,
                                    duration_s=0.01), "ac_baseline")
    engine = ctx.engines[0]
    ap, sta = engine.ap, engine.stas[0]
    ctx.loss_db[ap.node_id, sta.node_id] = ctx.loss_db[sta.node_id, ap.node_id] = 60.0
    attempts = []
    engine.on_backoff_complete = lambda node: attempts.append(ctx.sim.now)
    contention = ctx.contention
    i = sta.node_id
    contention.counter[i] = 10
    contention.start(sta)
    assert contention.pending[i] and contention.armed_at[i] == 0
    old_fire = DIFS + 10 * SLOT_TIME

    def state():
        return (contention.seq[i], contention.pending[i], contention.counter[i])

    sensed_at = DIFS + 4 * SLOT_TIME + SLOT_TIME // 3
    ctx.sim.at(sensed_at, lambda: ctx.medium.transmit(
        Transmission(0, ap.node_id, 0, "ampdu", sensed_at, 200 * US, ctx.subchannels,
                     20.0, nav_duration_ns=100 * US)))
    ctx.sim.run_until(sensed_at)
    assert not contention.pending[i] and contention.counter[i] == 6
    frozen = state()
    ctx.sim.run_until(old_fire)         # the old attempt fires and is stale
    assert state() == frozen
    assert attempts == []

    ctx.sim.run_until(200 * US)         # the AP's frame ends: idle again
    resume = max(200 * US, ctx.nav.intra_expiry_ns[i], ctx.nav.basic_expiry_ns[i],
                 ctx.eifs_until_ns[i])
    assert resume == 300 * US           # the NAV the AP's frame set
    assert contention.pending[i] and contention.armed_at[i] == resume
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert attempts == [resume + DIFS + 6 * SLOT_TIME]


# --- same-instant order ------------------------------------------------------------
#
# One BSS of four STAs and no traffic; the tests start STAs' contention by
# hand, fix their counters, and hand over frames whose Duration is 0, so
# no NAV or EIFS defers anyone.  `hears` sets which STAs hear which sender.

def order_bench(hears: dict[int, tuple[int, ...]]):
    ctx = RunContext(default_config("indoor_single", stas_per_bss=4,
                                    duration_s=0.01), "ac_baseline")
    engine = ctx.engines[0]
    stas = engine.stas
    for sender, listeners in hears.items():
        for sta in stas:
            if sta is not stas[sender]:
                loss = 60.0 if stas.index(sta) in listeners else 200.0
                ctx.loss_db[stas[sender].node_id, sta.node_id] = loss
    fired = []
    engine.on_backoff_complete = lambda node: fired.append(
        ("attempt", node.node_id, ctx.sim.now))
    ctx.medium.listeners.append(lambda event, tx: fired.append(
        (event, tx.tx_node, ctx.sim.now)) if event == "end" else None)
    return ctx, stas, fired


def hand_over(ctx, node, end):
    return ctx.medium.transmit(Transmission(0, node.node_id, 0, "ampdu", ctx.sim.now,
                                            end, ctx.subchannels, 20.0))


def contend(ctx, node, counter):
    ctx.contention.counter[node.node_id] = counter
    ctx.contention.start(node)


def test_attempts_armed_in_one_step_at_one_instant_fire_in_ascending_node_id():
    ctx, stas, fired = order_bench({0: (1, 2)})
    low, high = stas[1], stas[2]
    end = 50 * US
    hand_over(ctx, stas[0], end)
    ctx.sim.run_until(1)
    for node in (high, low):                # started in descending node id
        contend(ctx, node, 3)
    contention = ctx.contention
    assert not contention.pending[[low.node_id, high.node_id]].any()
    ctx.sim.run_until(end)                  # one step arms both
    seqs = contention.seq[[low.node_id, high.node_id]].tolist()
    assert seqs[1] == seqs[0] + 1
    ctx.sim.run_until(ctx.cfg.duration_ns)
    at = end + DIFS + 3 * SLOT_TIME
    assert fired == [("end", stas[0].node_id, end),
                     ("attempt", low.node_id, at), ("attempt", high.node_id, at)]


def test_an_attempt_armed_by_start_fires_before_one_armed_later_at_its_instant():
    ctx, stas, fired = order_bench({0: (1,)})
    low, high = stas[1], stas[2]
    end = 1 + 3 * SLOT_TIME
    hand_over(ctx, stas[0], end)            # heard by `low` only
    ctx.sim.run_until(1)
    contend(ctx, high, 5)                   # armed now
    contend(ctx, low, 2)                    # blocked; armed at the frame end
    assert ctx.contention.pending.tolist().count(True) == 1
    ctx.sim.run_until(ctx.cfg.duration_ns)
    at = 1 + DIFS + 5 * SLOT_TIME
    assert at == end + DIFS + 2 * SLOT_TIME
    assert fired == [("end", stas[0].node_id, end),
                     ("attempt", high.node_id, at), ("attempt", low.node_id, at)]


def test_a_frame_end_scheduled_before_an_arm_runs_before_the_attempt_at_its_instant():
    ctx, stas, fired = order_bench({0: (1,), 3: ()})
    node = stas[1]
    end = 50 * US
    at = end + DIFS + 2 * SLOT_TIME
    hand_over(ctx, stas[0], end)            # blocks `node` until `end`
    hand_over(ctx, stas[3], at)             # unheard; ends at the attempt
    ctx.sim.run_until(1)
    contend(ctx, node, 2)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert fired == [("end", stas[0].node_id, end), ("end", stas[3].node_id, at),
                     ("attempt", node.node_id, at)]


def test_an_attempt_at_a_frame_start_transmits_and_one_a_slot_later_freezes():
    """Both attempts are armed before the frame is handed over, SIFS ahead
    of its start.  The one that fires at the start instant pops before the
    start event and transmits; the one due a slot later meets the frame at
    its start and freezes with that slot left."""
    ctx, stas, fired = order_bench({0: (1, 2)})
    early, late = stas[1], stas[2]
    ctx.sim.run_until(1)
    contend(ctx, early, 3)
    contend(ctx, late, 4)
    start = 1 + DIFS + 3 * SLOT_TIME
    end = start + 100 * US
    ctx.sim.at(start - SIFS, lambda: ctx.medium.transmit(Transmission(
        0, stas[0].node_id, 0, "ampdu", start, end, ctx.subchannels, 20.0)))
    ctx.sim.run_until(start)
    contention = ctx.contention
    assert fired == [("attempt", early.node_id, start)]
    assert not contention.pending[late.node_id]
    assert contention.counter[late.node_id] == 1
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert fired[1:] == [("end", stas[0].node_id, end),
                         ("attempt", late.node_id, end + DIFS + SLOT_TIME)]


# --- the batch queue ---------------------------------------------------------------
#
# One step's attempts share one heap entry at a time.  `low` and `high`
# both hear STA 0's frame and are armed together at its end; only `low`
# hears STA 3, whose frame freezes it at its start.

def armed_together(low_counter, high_counter):
    ctx, stas, fired = order_bench({0: (1, 2), 3: (1,)})
    low, high = stas[1], stas[2]
    end = 50 * US
    hand_over(ctx, stas[0], end)
    ctx.sim.run_until(1)
    contend(ctx, low, low_counter)
    contend(ctx, high, high_counter)
    ctx.sim.run_until(end)                  # one step arms both
    seq = ctx.contention.seq
    assert seq[high.node_id] == seq[low.node_id] + 1
    return ctx, stas, fired, end


def freeze_low(ctx, stas, until):
    hand_over(ctx, stas[3], until)
    ctx.sim.run_until(ctx.sim.now)
    assert not ctx.contention.pending[stas[1].node_id]
    assert ctx.contention.pending[stas[2].node_id]


def test_a_batch_whose_first_attempt_froze_fires_the_next_at_its_place():
    ctx, stas, fired, end = armed_together(2, 5)
    low, high = stas[1], stas[2]
    freeze_low(ctx, stas, 200 * US)         # `low`'s attempt was the batch's first
    at = end + DIFS + 5 * SLOT_TIME
    ctx.sim.at(at, lambda: fired.append(("after the arm", None, ctx.sim.now)))
    ctx.sim.run_until(ctx.cfg.duration_ns)
    attempts = [f for f in fired if f[0] != "end"]
    assert attempts[:2] == [("attempt", high.node_id, at), ("after the arm", None, at)]
    assert [f[1] for f in attempts[2:]] == [low.node_id]    # resumed after 200 us


def test_a_node_re_armed_by_a_later_step_fires_once():
    ctx, stas, fired, end = armed_together(5, 2)
    low, high = stas[1], stas[2]
    freeze_low(ctx, stas, end + 10 * US)    # re-armed at that end, in a new step
    ctx.sim.run_until(end + 10 * US)
    contention = ctx.contention
    assert contention.pending[low.node_id]
    assert contention.seq[low.node_id] > contention.seq[high.node_id]
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert [f for f in fired if f[0] != "end"] == [
        ("attempt", high.node_id, end + DIFS + 2 * SLOT_TIME),
        ("attempt", low.node_id, end + 10 * US + DIFS + 5 * SLOT_TIME)]


@pytest.mark.parametrize("scheme, direction", [
    ("ac_baseline", "ul"), ("ac_baseline", "dl"), ("ax_sr", "ul"), ("ax_sr", "dl"),
])
def test_no_seq_is_pushed_twice_over_the_golden_runs(monkeypatch, scheme, direction):
    """Two heap entries never tie on (time, seq), so heapq never compares
    their callbacks."""
    pushed = set()
    at_seq = Simulator.at_seq

    def pushing(sim, fire_time, seq, fn):
        assert seq not in pushed, seq
        pushed.add(seq)
        at_seq(sim, fire_time, seq, fn)

    monkeypatch.setattr(Simulator, "at_seq", pushing)
    ctx = started(scheme, direction=direction, duration_s=0.2, **MULTI)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert len(pushed) > ctx.sim.processed / 2


# --- the interferer list walk -------------------------------------------------------

class Handovers:
    """Every frame's interferers as whole frames, from a wrapper of the
    medium's `transmit` reading `medium.active`: the frames handed over and
    not ended at its handover, then those handed over before its end, in
    that order."""

    def __init__(self, ctx: RunContext):
        self.medium = ctx.medium
        self.lists: dict[int, list[Transmission]] = {}
        self.transmit = ctx.medium.transmit
        ctx.medium.transmit = self.hand_over

    def hand_over(self, tx: Transmission, then=None) -> Transmission:
        live = list(self.medium.active.values())
        self.transmit(tx, then)
        for other in live:
            self.lists[other.tx_id].append(tx)
        self.lists[tx.tx_id] = live
        return tx

    def __call__(self, tx: Transmission) -> list[Transmission]:
        return self.lists[tx.tx_id]


def reference_overlapping(tx: Transmission, interferers: list[Transmission],
                          subchannel: int, ru_index: int | None,
                          co_group) -> list[tuple[Transmission, float]] | None:
    """The frames that interfere with tx on subchannel, each with the share
    of tx's airtime it overlaps, walking its interferers one by one; None
    when another transmitter of tx's MU round shares the decoded RU."""
    span = tx.end_ns - tx.start_ns
    out = []
    for other in interferers:
        if other.tx_node == tx.tx_node:
            continue
        if other.bss_id == tx.bss_id and other.round_id == tx.round_id \
                and tx.round_id >= 0:
            if other.ru is not None and ru_index is not None:
                if other.ru.ru_index != ru_index or other.tx_node in co_group:
                    continue        # orthogonal RU, or MU-MIMO partner stream
                return None         # same RU: random-access collision
            continue                # aligned control frame of the round
        if subchannel not in other.subchannels:
            continue
        overlap = min(tx.end_ns, other.end_ns) - max(tx.start_ns, other.start_ns)
        if overlap <= 0 or span <= 0:
            continue
        out.append((other, overlap / span))
    return out


# --- decode SINR --------------------------------------------------------------------

def reference_sinr_db(ctx: RunContext, interferers: list[Transmission],
                      tx: Transmission, rx_node: int, power_dbm: float,
                      band_hz: float, subchannel: int, ru_index: int | None = None,
                      co_group=()) -> float | None:
    """Decode SINR at rx_node, summing interferers in list order, in mW, and
    scaling the sum to the band's share of a subchannel."""
    overlaps = reference_overlapping(tx, interferers, subchannel, ru_index, co_group)
    if overlaps is None:
        return None
    interference_mw = 0.0
    for other, weight in overlaps:
        interference_mw += rx_mw(ctx, other)[rx_node] * weight
    if band_hz < SUBCHANNEL_HZ:
        interference_mw *= band_hz / SUBCHANNEL_HZ
    return power_dbm - float(ctx.loss_db[tx.tx_node, rx_node]) \
        - 10.0 * np.log10(noise_mw(ctx, band_hz) + interference_mw)


@pytest.mark.parametrize("kind, scheme, overrides, ra_ru_fraction", [
    ("indoor_multi", "ac_baseline", MULTI, None),
    ("outdoor_multi", "ax_sr", dict(n_bss=4, stas_per_bss=6, per_sta_rate_mbps=20), 0.34),
])
def test_every_decode_sinr_equals_the_list_walk(monkeypatch, kind, scheme, overrides,
                                                ra_ru_fraction):
    ctx = started(scheme, kind=kind, duration_s=0.1, **overrides)
    if ra_ru_fraction is not None:
        ctx.cfg.mac.ra_ru_fraction = ra_ru_fraction     # UORA: RA-RU collisions
    interferers = Handovers(ctx)
    sinr_db = Medium.sinr_db
    seen = Counter()

    def checked(medium, tx, *args, **kwargs):
        got = sinr_db(medium, tx, *args, **kwargs)
        assert got == reference_sinr_db(ctx, interferers(tx), tx, *args, **kwargs), \
            (ctx.sim.now, tx.kind)
        alone = reference_sinr_db(ctx, [], tx, *args, **kwargs)
        seen["corrupt" if got is None else "interfered" if got < alone else "alone"] += 1
        return got

    monkeypatch.setattr(Medium, "sinr_db", checked)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert seen["interfered"] > 50, seen
    if ra_ru_fraction is not None:
        assert seen["corrupt"] > 0, seen


# --- NAV readability ----------------------------------------------------------------

def reference_nav_sinr(ctx: RunContext, interferers: list[Transmission],
                       tx: Transmission) -> tuple[bool, np.ndarray]:
    """Readability SINR at every node, summing interferers in list order, in
    mW."""
    n = ctx.loss_db.shape[0]
    desired = tx.power_per_subchannel_dbm() - ctx.loss_db[tx.tx_node]
    overlaps = reference_overlapping(tx, interferers, 0, tx.ru.ru_index if tx.ru else None,
                                     tx.ru.users if tx.ru else ())
    if overlaps is None:
        return True, np.full(n, -np.inf)
    interference_mw = np.zeros(n)
    for other, weight in overlaps:
        interference_mw += rx_mw(ctx, other) * weight
    return False, desired - 10.0 * np.log10(noise_mw(ctx, SUBCHANNEL_HZ) + interference_mw)


def compare_nav_sinr_over_run(ctx: RunContext) -> list[bool]:
    """Compare nav_sinr_vector with the reference at every frame end, at the
    hearing nodes and at all nodes; returns whether each frame was corrupt."""
    interferers = Handovers(ctx)
    cca = ctx.cfg.phy.cca_threshold_dbm
    outcomes = []

    def check(event, tx):
        if event != "end":
            return
        hearing = np.flatnonzero(rx_dbm(ctx, tx) >= cca)
        hearing = hearing[hearing != tx.tx_node]
        for nodes in (hearing, np.arange(len(ctx.nodes))):
            corrupt, sinr = ctx.medium.nav_sinr_vector(tx, nodes)
            ref_corrupt, ref_sinr = reference_nav_sinr(ctx, interferers(tx), tx)
            assert corrupt == ref_corrupt
            np.testing.assert_array_equal(sinr, ref_sinr[nodes])
        outcomes.append(corrupt)

    ctx.medium.listeners.append(check)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    return outcomes


def test_nav_sinr_at_hearing_nodes_equals_the_all_node_reference():
    ctx = started("ax_sr", duration_s=0.1, **MULTI)
    ctx.cfg.mac.ra_ru_fraction = 0.34       # UORA: random-access collisions
    outcomes = compare_nav_sinr_over_run(ctx)
    assert outcomes.count(False) > 100
    assert outcomes.count(True) > 0


def test_nav_sinr_equals_the_reference_at_another_noise_figure():
    ctx = started("ax_sr", duration_s=0.05, noise_figure_db=12.0, **MULTI)
    assert compare_nav_sinr_over_run(ctx).count(False) > 50


def test_random_access_collision_corrupts_the_frame_at_every_node():
    ctx = started("ax_ofdma", kind="indoor_single", stas_per_bss=4)
    engine = ctx.engines[0]
    a, b = engine.stas[:2]
    ru = engine.layout.rus[0]
    interferers = Handovers(ctx)
    txs = [ctx.medium.transmit(Transmission(
        0, sta.node_id, engine.bss_id, "he-tb", 0, 100 * US, ru.subchannels,
        15.0, color=sta.color, round_id=7, ru=RuPart(0, ru, 15.0)))
        for sta in (a, b)]
    nodes = np.array([engine.ap.node_id, engine.stas[2].node_id])
    corrupt, sinr = ctx.medium.nav_sinr_vector(txs[0], nodes)
    assert corrupt and sinr.tolist() == [-np.inf, -np.inf]
    assert reference_nav_sinr(ctx, interferers(txs[0]), txs[0])[0]


# --- memory -------------------------------------------------------------------------

def arrays_in(value) -> list[np.ndarray]:
    """The numpy arrays in value, through tuples and lists (a reach is one)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays_in(item)]
    return []


@pytest.mark.parametrize("scheme", ["ac_baseline", "ax_sr"])
def test_no_frame_field_holds_an_array_over_nodes(scheme):
    """A frame's received power at every node lives only in the medium's
    slab row: no field of a frame holds an array as long as the node count,
    at its start, at its end and after it has ended.  Its reach, read at
    its end and after, runs over the hearers only."""
    ctx = started(scheme, **MULTI)
    n = len(ctx.nodes)
    frames = []
    seen = Counter()

    def arrays(tx):
        return [a for f in dataclasses.fields(tx) for a in arrays_in(getattr(tx, f.name))]

    def watch(event, tx):
        if event == "start":
            frames.append(tx)
        found = arrays(tx)
        assert all(len(a) < n for a in found), (event, tx.kind)
        seen[event, bool(found)] += 1

    ctx.medium.listeners.append(watch)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    ended = [tx for tx in frames if tx.tx_id not in ctx.medium.active]
    assert len(ended) > 50
    for tx in frames:
        assert all(len(a) < n for a in arrays(tx)), tx.kind
    assert seen["end", True] > 50, seen         # the reach is read at the end
    assert all(tx.reach is not None for tx in ended if tx.nav_duration_ns > 0)


# --- NAV pass -----------------------------------------------------------------------

class ReferenceNavPass:
    """The NAV pass one hearing node at a time, on NAV and EIFS state of its
    own; counts each way a node can take."""

    def __init__(self, ctx: RunContext):
        n = len(ctx.nodes)
        self.ctx = ctx
        self.interferers = Handovers(ctx)
        self.intra = [0] * n
        self.basic = [0] * n
        self.eifs = [0] * n
        self.seen = Counter()

    def frame_end(self, tx: Transmission) -> None:
        ctx = self.ctx
        if tx.nav_duration_ns <= 0 and tx.kind != "cf-end":
            return
        corrupt, sinr = reference_nav_sinr(ctx, self.interferers(tx), tx)
        now = ctx.sim.now
        expiry = now + tx.nav_duration_ns
        p = rx_dbm(ctx, tx)
        for i, node in sorted(ctx.nodes.items()):
            if i == tx.tx_node or p[i] < ctx.cfg.phy.cca_threshold_dbm:
                continue
            if node.power.dozing:
                self.seen["dozing"] += 1
                continue
            if corrupt or not sinr[i] >= ctx.per_model.thresholds_db[0]:
                self.eifs[i] = now + (EIFS - DIFS)
                self.seen["corrupt" if corrupt else "unreadable"] += 1
                continue
            cls = spatial.INTRA_BSS
            if ctx.features.spatial_reuse:
                cls = spatial.classify_frame(tx.color, node.color)
                if cls == spatial.INTER_BSS and p[i] < ctx.cfg.sr.obss_pd_max_dbm:
                    self.seen["sr_skip"] += 1
                    continue
            if cls == spatial.INTER_BSS:
                self.basic[i] = max(self.basic[i], expiry)
                self.seen["basic"] += 1
            elif tx.kind == "cf-end":
                self.seen["cf_end_reset"] += self.intra[i] > now
                self.intra[i] = 0
            else:
                self.intra[i] = max(self.intra[i], expiry)
                self.seen["intra"] += 1


def compare_nav_at_frame_ends(ctx: RunContext) -> Counter:
    """Compare ctx's NAV and EIFS arrays with the reference after every
    frame end from now on; returns what the reference sees."""
    ref = ReferenceNavPass(ctx)

    def check(event, tx):
        if event != "end":
            return
        ref.frame_end(tx)
        assert ctx.nav.intra_expiry_ns.tolist() == ref.intra, (ctx.sim.now, tx.kind)
        assert ctx.nav.basic_expiry_ns.tolist() == ref.basic, (ctx.sim.now, tx.kind)
        assert ctx.eifs_until_ns.tolist() == ref.eifs, (ctx.sim.now, tx.kind)
        ref.seen["frame_ends"] += 1

    ctx.medium.listeners.append(check)
    return ref.seen


def compare_nav_over_run(ctx: RunContext) -> Counter:
    """Run ctx to its end, comparing its NAV and EIFS arrays with the
    reference after every frame end; returns what the reference saw."""
    seen = compare_nav_at_frame_ends(ctx)
    ctx.sim.run_until(ctx.cfg.duration_ns)
    return seen


@pytest.mark.parametrize("kind, scheme, overrides, doze, cases", [
    ("indoor_multi", "ac_baseline", MULTI, False,
     ("intra", "unreadable", "cf_end_reset")),
    ("outdoor_multi", "ax_sr", dict(n_bss=4, stas_per_bss=6, per_sta_rate_mbps=20),
     False, ("intra", "basic", "unreadable", "sr_skip")),
    ("indoor_multi", "ax_sr", MULTI, True, ("intra", "unreadable", "dozing")),
])
def test_nav_pass_matches_the_per_node_loop(kind, scheme, overrides, doze, cases):
    ctx = started(scheme, kind=kind, duration_s=0.1, doze=doze, **overrides)
    seen = compare_nav_over_run(ctx)
    assert seen["frame_ends"] > 100
    assert all(seen[case] > 0 for case in cases), seen


def test_nav_pass_matches_the_per_node_loop_on_cf_end_and_corrupted_frames():
    """Random-access HE-TBs carry the Duration of their TXOP, so the NAV pass
    meets the ones that collide on an RA-RU, each corrupted at every node."""
    ctx = started("ax_ofdma", kind="indoor_single", duration_s=0.1, stas_per_bss=16)
    ctx.cfg.mac.ra_ru_fraction = 0.34
    seen = compare_nav_over_run(ctx)
    assert seen["cf_end_reset"] > 0 and seen["corrupt"] > 0, seen


# --- reach ---------------------------------------------------------------------------

def reach_lists(reach: Reach) -> tuple:
    caps = None if reach.caps is None else dict(zip(*(a.tolist() for a in reach.caps)))
    return (reach.hearers.tolist(), reach.blocked.tolist(), caps,
            None if reach.intra is None else reach.intra.tolist(),
            None if reach.keep is None else reach.keep.tolist())


def reference_reach(ctx: RunContext, tx: Transmission) -> tuple:
    """reach_lists of tx's reach, worked out one node at a time from its own
    received power: the nodes at or above CCA but its transmitter, those it blocks,
    the SR caps it sets, and with spatial reuse, where it is intra-BSS and
    where a readable frame loads a NAV (all but inter-BSS levels under the
    OBSS_PD maximum)."""
    hearers, blocked, caps, intra, keep = [], [], {}, [], []
    row = rx_dbm(ctx, tx)
    for i, node in sorted(ctx.nodes.items()):
        p = float(row[i])
        if i == tx.tx_node or p < ctx.cfg.phy.cca_threshold_dbm:
            continue
        hearers.append(i)
        allowed = reference_cap(ctx, tx.color, i, p)
        if allowed is None:
            blocked.append(i)
        else:
            caps[i] = allowed
        is_intra = spatial.classify_frame(tx.color, node.color) == spatial.INTRA_BSS
        intra.append(is_intra)
        keep.append(is_intra or p >= ctx.cfg.sr.obss_pd_max_dbm)
    if not ctx.features.spatial_reuse:
        return hearers, blocked, None, None, None
    return hearers, blocked, caps or None, intra, keep


def test_every_frame_reads_the_reach_of_its_own_power_and_colour():
    """One STA sends at two powers per subchannel, then in another BSS's
    colour: a reach keyed without the power or the colour would give the
    later frames the first one's.  No workload sends from one node at two
    powers.  Each frame's reach must be its own, and carrier sense and the
    NAV pass must follow the per-node rules, which read each frame's power."""
    ctx = RunContext(default_config("indoor_multi", duration_s=0.01, **MULTI), "ax_sr")
    sta = ctx.engines[0].stas[0]
    sends = [(20.0, sta.color), (5.0, sta.color), (20.0, ctx.engines[1].ap.color)]
    for k, (power, color) in enumerate(sends):
        start = 1 + k * 300 * US
        ctx.sim.at(start, lambda tx=Transmission(
            0, sta.node_id, sta.bss_id, "ampdu", start, start + 200 * US,
            ctx.subchannels, power, color=color, nav_duration_ns=50 * US):
            ctx.medium.transmit(tx))
    reaches = []

    def check(event, tx):
        if event == "end":
            reaches.append(reference_reach(ctx, tx))
            assert reach_lists(ctx.reach(tx)) == reaches[-1]

    ctx.medium.listeners.append(check)
    nav_seen = compare_nav_at_frame_ends(ctx)
    cs_seen = compare_cs_over_run(ctx, 97 * US)
    assert len(reaches) == 3 and len(ctx.reaches) == 3
    (hearers, _, caps, intra, _), lower, recoloured = reaches
    assert lower[0] != hearers and lower[2] != caps     # the power moves both
    assert recoloured[0] == hearers and recoloured[3] != intra
    assert nav_seen["intra"] > 0 and nav_seen["basic"] > 0, nav_seen
    assert cs_seen["busy"] > 0 and cs_seen["capped"] > 0, cs_seen


def test_the_reach_cache_holds_one_entry_per_key_over_the_hearers_only():
    ctx = started("ax_sr", **MULTI)
    keys = set()
    transmit = ctx.medium.transmit

    def handing_over(tx, then=None):
        keys.add((tx.tx_node, tx.power_per_subchannel_dbm(), tx.color))
        return transmit(tx, then)

    ctx.medium.transmit = handing_over
    ctx.sim.run_until(ctx.cfg.duration_ns)
    assert len(keys) > 20 and set(ctx.reaches) == keys
    n = len(ctx.nodes)
    for reach in ctx.reaches.values():
        arrays = [reach.hearers, reach.blocked, *(reach.caps or ()), reach.intra, reach.keep]
        assert all(len(a) <= len(reach.hearers) < n for a in arrays)
    ctx.close()
    assert not ctx.reaches
