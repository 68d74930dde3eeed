"""Golden results: ``runner.report_row`` of short runs, pinned byte for byte.

``golden_flows.json`` pins the same runs below that rounding: each flow's
delivered packets and bytes, delay sum and MPDU attempts and failures, all
integers.  ``report_row`` rounds, so a change that moves one PER or backoff
draw can leave every row in place; it cannot leave these counts in place.
``golden_state.json`` pins each run's event count and every node's final
intra-BSS NAV, basic NAV and EIFS deadline, so a change to the NAV pass that
moves no delivery still shows.  Every point also keeps two invariants of its
run: each node's energy ledger covers the whole run, and each flow delivers
only packets that arrived by its end.

Every frame of a TXOP carries as Duration what is left of the TXOP after
the frame ends, and the CF-End carries none; the TXOP tests check that rule
on every frame of every point, that no NAV the frames set outlasts their
TXOP, and that every BSS of each multi-BSS point wins TXOPs.

Decode and the NAV pass read one power rule: on every point, each
control-frame decode reads the SINR the NAV pass computes for the same
frame and node, to the bit.

Every frame enters carrier sense at its start event: the 1(d) test checks,
on every multi-BSS point, that no attempt fires past a frame it could have
sensed, and the 1(f) test that every BSS still wins TXOPs late in a 1 s
run on the three points where one used to starve.

The file ``golden_results.json`` pins the simulator's behaviour as it is,
defects included.  In particular p5 reads 0 on four of the ten
``indoor_multi`` points, which ROADMAP item 1(f) still holds open.  A change
that fixes such a defect regenerates the file and states why in
CHANGES.md; any other change must reproduce it unchanged.

Regenerate all three files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from axsim import runner
from axsim.config import Scheme, default_config
from axsim.contention import Contender
from axsim.core import SIFS, US
from axsim.engine import RunContext
from axsim.medium import SUBCHANNEL_HZ, Medium

GOLDEN = Path(__file__).with_name("golden_results.json")
GOLDEN_FLOWS = Path(__file__).with_name("golden_flows.json")
GOLDEN_STATE = Path(__file__).with_name("golden_state.json")
FLOW_FIELDS = ("delivered_pkts", "delivered_bytes", "delay_sum_ns",
               "mpdu_attempts", "mpdu_failures")

SCHEMES = ("ac_baseline", "ax_ofdma", "ax_ofdma_mumimo", "ax_sr")
MULTI = dict(n_bss=3, stas_per_bss=8, duration_s=0.2, per_sta_rate_mbps=13)
SINGLE = dict(stas_per_bss=16, duration_s=0.3)


def _points() -> dict[str, tuple]:
    """id -> (kind, scheme, direction, overrides, mac overrides, doze)."""
    points = {f"indoor_multi/{s}/{d}": ("indoor_multi", s, d, MULTI, {}, False)
              for s in SCHEMES for d in ("ul", "dl")}
    # the only geometry whose antennas allow two users per RU, so the one
    # that exercises MU-MIMO grouping in both directions
    for d in ("ul", "dl"):
        points[f"indoor_single/ax_ofdma_mumimo/{d}"] = (
            "indoor_single", "ax_ofdma_mumimo", d, SINGLE, {}, False)
    points["indoor_single/ax_ofdma/ul/uora"] = (
        "indoor_single", "ax_ofdma", "ul", SINGLE, {"ra_ru_fraction": 0.34}, False)
    for d in ("ul", "dl"):
        points[f"indoor_multi/ax_sr/{d}/doze"] = (
            "indoor_multi", "ax_sr", d, MULTI, {}, True)
    return points


POINTS = _points()


MULTI_POINTS = [p for p in sorted(POINTS) if p.startswith("indoor_multi/")]


def _config(point_id: str, **changes):
    """The point's (config, scheme, doze), with `changes` to its overrides."""
    kind, scheme, direction, overrides, mac, doze = POINTS[point_id]
    cfg = default_config(kind, direction=direction, **{**overrides, **changes})
    for key, value in mac.items():
        setattr(cfg.mac, key, value)
    return cfg, scheme, doze


def run_point(point_id: str) -> dict:
    cfg, scheme, doze = _config(point_id)
    return runner.report_row(runner.run(cfg, scheme, intra_ppdu_doze=doze))


def run_flows(point_id: str) -> dict:
    """flow id (as a string, the JSON key) -> the FLOW_FIELDS of its stats."""
    cfg, scheme, doze = _config(point_id)
    stats = RunContext(cfg, Scheme(scheme), intra_ppdu_doze=doze).run()
    return {str(flow): {name: getattr(fs, name) for name in FLOW_FIELDS}
            for flow, fs in sorted(stats.items())}


def node_state(ctx: RunContext, node_id: int) -> list[int]:
    """A node's (intra-BSS NAV expiry, basic NAV expiry, EIFS deadline)."""
    return [ctx.nav.intra_expiry_ns.item(node_id), ctx.nav.basic_expiry_ns.item(node_id),
            ctx.eifs_until_ns.item(node_id)]


def run_state(point_id: str) -> dict:
    """The run's event count and node id (a string) -> its node_state."""
    cfg, scheme, doze = _config(point_id)
    ctx = RunContext(cfg, Scheme(scheme), intra_ppdu_doze=doze)
    ctx.run()
    return {"events": ctx.sim.processed,
            "nodes": {str(i): node_state(ctx, i) for i in sorted(ctx.nodes)}}


@pytest.mark.parametrize("point_id", sorted(POINTS))
def test_golden_row(point_id):
    golden = json.loads(GOLDEN.read_text())
    assert run_point(point_id) == golden[point_id]


@pytest.mark.parametrize("point_id", sorted(POINTS))
def test_golden_flows(point_id):
    golden = json.loads(GOLDEN_FLOWS.read_text())
    assert run_flows(point_id) == golden[point_id]


@pytest.mark.parametrize("point_id", sorted(POINTS))
def test_golden_state(point_id):
    golden = json.loads(GOLDEN_STATE.read_text())
    assert run_state(point_id) == golden[point_id]


@pytest.mark.parametrize("point_id", sorted(POINTS))
def test_ledgers_cover_the_run_and_flows_deliver_only_arrived_packets(point_id):
    cfg, scheme, doze = _config(point_id)
    ctx = RunContext(cfg, Scheme(scheme), intra_ppdu_doze=doze)
    stats = ctx.run()
    delivered = 0
    for node in ctx.nodes.values():
        assert node.power.account.total_ns == cfg.duration_ns, node.node_id
        if node.flow is not None:
            seqs = np.flatnonzero(stats[node.flow.flow_id].delivered)
            assert (seqs < node.flow.arrivals_by(cfg.duration_ns)).all(), node.node_id
            delivered += len(seqs)
    assert delivered > 0


class TxopRun(NamedTuple):
    """A run's TXOPs as its frames show them.  won: per BSS, the TXOPs its
    nodes sent frames in, as (holder, deadline).  frames: every frame that
    ended, as (kind, end, Duration, its TXOP's deadline or None, the latest
    NAV expiry its NAV pass set or None)."""

    won: list[set[tuple[int, int]]]
    frames: list[tuple[str, int, int, int | None, int | None]]


@functools.cache
def txop_run(point_id: str, **changes) -> TxopRun:
    cfg, scheme, doze = _config(point_id, **changes)
    ctx = RunContext(cfg, Scheme(scheme), intra_ppdu_doze=doze)
    run = TxopRun([set() for _ in ctx.engines], [])
    deadline_of = {}
    for engine in ctx.engines:
        def send(node, kind, start, end, then=None, txop=None, _send=engine.send,
                 **fields):
            tx = _send(node, kind, start, end, then, txop=txop, **fields)
            deadline_of[tx.tx_id] = None if txop is None else txop.deadline_ns
            if txop is not None:
                run.won[txop.holder.bss_id].add((txop.holder.node_id,
                                                 txop.deadline_ns))
            return tx

        engine.send = send
    nav = ctx.nav
    before = []

    def before_nav_pass(event, tx):
        if event == "end":
            before.append((nav.intra_expiry_ns.copy(), nav.basic_expiry_ns.copy()))

    def after_nav_pass(event, tx):
        if event != "end":
            return
        intra, basic = before.pop()
        set_ = np.concatenate([nav.intra_expiry_ns[nav.intra_expiry_ns > intra],
                               nav.basic_expiry_ns[nav.basic_expiry_ns > basic]])
        run.frames.append((tx.kind, tx.end_ns, tx.nav_duration_ns,
                           deadline_of.pop(tx.tx_id),
                           int(set_.max()) if len(set_) else None))

    ctx.medium.listeners.insert(0, before_nav_pass)
    ctx.medium.listeners.append(after_nav_pass)
    ctx.run()
    return run


@pytest.mark.parametrize("point_id", sorted(POINTS))
def test_every_frame_of_a_txop_carries_what_is_left_of_it(point_id):
    """Duration is the TXOP left after the frame, 0 once the frame ends at or
    after the deadline; the CF-End, the one frame outside a TXOP, carries 0.
    So no NAV set by a TXOP's frames expires after the TXOP's deadline, and
    a CF-End reserves nothing."""
    run = txop_run(point_id)
    for frame in run.frames:
        kind, end, duration, deadline, nav_set = frame
        if deadline is None:
            assert kind == "cf-end" and duration == 0, frame
            assert nav_set is None or nav_set <= end, frame
        else:
            assert kind != "cf-end", frame
            assert (end + duration == deadline) if end < deadline else duration == 0, \
                frame
            assert nav_set is None or nav_set <= deadline, frame
    assert sum(f[4] is not None for f in run.frames) > 50


@pytest.mark.parametrize("point_id", MULTI_POINTS)
def test_every_bss_of_a_multi_bss_point_wins_txops(point_id):
    """No NAV outlasts its TXOP, so no BSS keeps the channel to itself."""
    won = txop_run(point_id).won
    assert len(won) == MULTI["n_bss"]
    assert all(won), [len(w) for w in won]


@pytest.mark.parametrize("point_id", ["indoor_multi/ac_baseline/dl",
                                      "indoor_multi/ax_ofdma/ul",
                                      "indoor_multi/ax_sr/ul"])
def test_every_bss_wins_txops_in_the_second_half_of_a_second(point_id):
    """ROADMAP 1(f): no BSS of the golden config starves over 1 s.  While a
    frame entered carrier sense only at the first query after its start,
    contenders fired into the CTS, BA and HE-TB frames they should have
    frozen on, and the last TXOP of a starving BSS started at 45 ms under
    ax_ofdma UL, at 63 ms under ax_sr UL, and at 312 ms and 324 ms (two
    BSSs) under ac_baseline DL."""
    cfg, _, _ = _config(point_id, duration_s=1.0)
    limit_ns = cfg.mac.txop_limit_us * US
    last_start = [max(deadline for _, deadline in won) - limit_ns
                  for won in txop_run(point_id, duration_s=1.0).won]
    assert len(last_start) == MULTI["n_bss"]
    assert min(last_start) >= cfg.duration_ns // 2, last_start


@pytest.mark.parametrize("point_id", MULTI_POINTS)
def test_no_attempt_fires_past_a_frame_it_could_sense(monkeypatch, point_id):
    """ROADMAP 1(d): a frame enters carrier sense at its start event.  A frame
    starts at most SIFS after its handover, and an attempt fires at least
    DIFS after it is armed, so no attempt armed after a frame's handover
    fires at or before the frame's start; and no live attempt fires on a
    node that a frame on the air blocks."""
    cfg, scheme, doze = _config(point_id)
    ctx = RunContext(cfg, Scheme(scheme), intra_ppdu_doze=doze)
    latest_start = -1           # of the frames handed over so far
    transmit = ctx.medium.transmit

    def handing_over(tx, then=None):
        nonlocal latest_start
        assert ctx.sim.now <= tx.start_ns <= ctx.sim.now + SIFS, tx.kind
        latest_start = max(latest_start, tx.start_ns)
        return transmit(tx, then)

    # per node, latest_start when its attempt was armed
    known = np.full(len(ctx.nodes), -1, dtype=np.int64)
    arm, arm_all, fire = Contender._arm, Contender._arm_all, Contender._fire
    live = 0

    def arming(contention, i):
        known[i] = latest_start
        arm(contention, i)

    def arming_all(contention, ids):
        known[ids] = latest_start
        arm_all(contention, ids)

    def firing(contention, i, seq):
        nonlocal live
        if contention.seq.item(i) == seq:
            now = ctx.sim.now
            assert now > known[i], (now, i)
            blocked, _ = contention.engine_of[i].cs_state()
            assert not blocked[i], (now, i)
            live += 1
        fire(contention, i, seq)

    ctx.medium.transmit = handing_over
    monkeypatch.setattr(Contender, "_arm", arming)
    monkeypatch.setattr(Contender, "_arm_all", arming_all)
    monkeypatch.setattr(Contender, "_fire", firing)
    ctx.run()
    assert live > 50, live


def test_every_control_decode_reads_the_nav_sinr(monkeypatch):
    """ROADMAP item 12: over every point, each control-frame decode
    (subchannel 0, 20 MHz, the frame's power per subchannel, no RU) equals,
    with ==, what nav_sinr_vector reads for the same frame and node.  The
    HE downlink points decode no control frame this way."""
    sinr_db = Medium.sinr_db
    compared = Counter()
    point_id = None

    def decoding(medium, tx, rx_node, power_dbm, band_hz, subchannel,
                 ru_index=None, co_group=()):
        got = sinr_db(medium, tx, rx_node, power_dbm, band_hz, subchannel,
                      ru_index, co_group)
        if (subchannel, band_hz, ru_index, tx.ru) == (0, SUBCHANNEL_HZ, None, None) \
                and power_dbm == tx.power_per_subchannel_dbm():
            corrupt, nav = medium.nav_sinr_vector(tx, np.array([rx_node]))
            assert not corrupt and got == nav[0], \
                (point_id, medium.sim.now, tx.kind, rx_node)
            compared[point_id] += 1
        return got

    monkeypatch.setattr(Medium, "sinr_db", decoding)
    for point_id in sorted(POINTS):
        cfg, scheme, doze = _config(point_id)
        RunContext(cfg, Scheme(scheme), intra_ppdu_doze=doze).run()
    assert len(compared) == 8 and sum(compared.values()) > 4000, compared


def test_golden_file_covers_every_point():
    for path in (GOLDEN, GOLDEN_FLOWS, GOLDEN_STATE):
        assert sorted(json.loads(path.read_text())) == sorted(POINTS)


def test_same_seed_same_row():
    point_id = "indoor_multi/ax_sr/ul"
    assert run_point(point_id) == run_point(point_id)


if __name__ == "__main__":
    rows = {point_id: run_point(point_id) for point_id in sorted(POINTS)}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    flows = {point_id: run_flows(point_id) for point_id in sorted(POINTS)}
    GOLDEN_FLOWS.write_text(json.dumps(flows, indent=1, sort_keys=True) + "\n")
    states = {point_id: run_state(point_id) for point_id in sorted(POINTS)}
    GOLDEN_STATE.write_text(json.dumps(states, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(rows)} points to {GOLDEN}, {GOLDEN_FLOWS} "
                     f"and {GOLDEN_STATE}\n")
