"""The interferer rule that decode SINR and NAV readability share, the
handover log and power slab they read, and how long an ended frame lives.

Every frame here reaches the medium through `Medium.transmit` and the
clock, as the engines' frames do.  Every sum is of received powers in mW,
made once per frame from its dBm row with numpy's power, and goes back to
dB through numpy's log10; the expectations here restate that, so they
compare with `==`."""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from axsim import phy
from axsim.config import RadioSection, default_config
from axsim.core import US, Simulator
from axsim.engine import RunContext
from axsim.medium import INITIAL_CAPACITY, SUBCHANNEL_HZ, Medium, RuPart, Transmission
from axsim.ru import RuAssignment

from test_carrier_sense import Handovers, reference_nav_sinr, reference_sinr_db

LOSS = np.array([[0.0, 70.0, 75.0, 80.0, 85.0],
                 [70.0, 0.0, 72.0, 77.0, 82.0],
                 [75.0, 72.0, 0.0, 74.0, 79.0],
                 [80.0, 77.0, 74.0, 0.0, 76.0],
                 [85.0, 82.0, 79.0, 76.0, 0.0]])


def frame(node, bss, start, end, subs=(0,), round_id=-1, ru=None, users=()):
    part = None if ru is None else RuPart(ru, RuAssignment(26, min(subs)), 15.0, users)
    return Transmission(0, node, bss, "he-tb" if part else "ampdu", start, end,
                        frozenset(subs), 15.0, round_id=round_id, ru=part)


def scene() -> dict:
    """The frame under test, node 0's HE-TB on RU 1 of round 5, sharing the
    RU with node 1 by MU-MIMO, and the frames around it, made afresh: a
    frame handed over keeps its log position."""
    return dict(
        tx=frame(node=0, bss=0, start=0, end=1000, round_id=5, ru=1, users=(0, 1)),
        far=frame(4, 1, 500, 1500),                         # half the frame
        other_round=frame(2, 0, 0, 1000, round_id=6, ru=1),  # whole frame
        skipped=[
            frame(0, 1, 0, 1000),                        # its own transmitter
            frame(4, 1, 0, 1000, subs=(2,)),             # another subchannel
            frame(2, 0, 0, 1000, round_id=5, ru=2),      # orthogonal RU, same round
            frame(1, 0, 0, 1000, round_id=5, ru=1),      # MU-MIMO partner stream
            frame(3, 0, 0, 1000, round_id=5),            # aligned control frame
            frame(4, 1, 1000, 2000),                     # starts as the frame ends
        ],
        collider=frame(3, 0, 0, 1000, round_id=5, ru=1),  # same RA-RU, same round
    )


def rx_mw(f: Transmission, loss: np.ndarray = LOSS) -> np.ndarray:
    """f's received power per subchannel at every node, in mW."""
    return np.power(10.0, (f.power_per_subchannel_dbm() - loss[f.tx_node]) / 10.0)


def hand_over(medium: Medium, *frames: Transmission) -> None:
    for f in frames:
        medium.transmit(f)


def test_overlapping_keeps_the_interferers_with_their_airtime_share():
    s = scene()
    tx, far, other_round, skipped = s["tx"], s["far"], s["other_round"], s["skipped"]
    medium = Medium(Simulator(), LOSS, RadioSection().noise_figure_db)
    # some on the air at tx's handover, the rest handed over after it
    hand_over(medium, *skipped[:3], far)
    hand_over(medium, tx, *skipped[3:], other_round)
    overlaps = medium.overlapping(tx)
    rows, shares = overlaps.on(0)
    assert rows == [far.row, other_round.row]
    assert shares == [0.5, 1.0]
    rows, shares = overlaps.on(2)                       # the other subchannel
    assert rows == [skipped[1].row] and shares == [1.0]
    assert not overlaps.corrupts(1, (0, 1))
    # without an RU to decode, same-round frames are aligned structure
    hand_over(medium, s["collider"])
    medium.sim.run_until(tx.end_ns)
    overlaps = tx.overlaps                              # the walk at its end
    assert overlaps.on(0)[0] == [far.row, other_round.row]
    assert not overlaps.corrupts(None, ())
    assert overlaps.corrupts(1, (0, 1))
    # the slab holds each kept frame's mW at its row, one row per frame
    for f in (far, other_round):
        assert (medium._slab[f.row] == rx_mw(f)).all()
    assert len({f.row for f in (tx, far, other_round, *skipped)}) == 9


def test_decode_and_nav_sinr_apply_the_same_rule():
    nf = RadioSection().noise_figure_db
    s = scene()
    tx, far, other_round = s["tx"], s["far"], s["other_round"]
    medium = Medium(Simulator(), LOSS, nf)
    hand_over(medium, tx, *s["skipped"], far, other_round)
    nodes = np.arange(1, 5)
    corrupt, nav = medium.nav_sinr_vector(tx, nodes)    # read on the air
    assert not corrupt
    noise_mw = phy.dbm_to_mw(phy.noise_dbm(SUBCHANNEL_HZ, nf))
    for k, node in enumerate(nodes):
        desired = medium.rx_power_dbm(0, node, tx.power_per_subchannel_dbm())
        sinr = medium.sinr_db(tx, node, tx.power_per_subchannel_dbm(), SUBCHANNEL_HZ,
                              0, ru_index=1, co_group=(0, 1))
        # far overlaps half the frame, other_round all of it, in that order
        interference_mw = 0.5 * rx_mw(far)[node] + 1.0 * rx_mw(other_round)[node]
        expected = desired - 10.0 * np.log10(noise_mw + interference_mw)
        assert sinr == expected
        assert nav[k] == expected
    hand_over(medium, s["collider"])
    medium.sim.run_until(tx.end_ns)                     # read at its end
    assert medium.sinr_db(tx, 3, 15.0, SUBCHANNEL_HZ, 0, ru_index=1,
                          co_group=(0, 1)) is None
    corrupt, nav = medium.nav_sinr_vector(tx, nodes)
    assert corrupt and (nav == -np.inf).all()


@pytest.mark.parametrize("n, rounds", [(40, 200), (1500, 12)])
def test_a_nodes_nav_sinr_does_not_depend_on_the_other_nodes_asked(n, rounds):
    """The NAV pass adds a node's interference in interferer order, as decode
    does, whether it is asked for one node or many: a sum over axis 0 of a
    (k, 1) block adds pairwise, and of a (k, m >= 2) block row by row, at
    40 nodes as at 1,500."""
    rng = np.random.default_rng(7)
    loss = rng.uniform(60.0, 110.0, (n, n))
    medium = Medium(Simulator(), loss, RadioSection().noise_figure_db)
    sim = medium.sim
    nodes = np.arange(n)
    seen = 0
    for _ in range(rounds):
        # tx on the air over [base + 1000, base + 2000), the others over
        # 1000 ns each from base + 100 to base + 1900; all handed over at base
        base = sim.now
        senders = rng.choice(n, rng.integers(9, 30), replace=False)
        starts = base + 1000 + rng.integers(-900, 900, len(senders))
        txs = [Transmission(0, int(node), int(node), "ampdu", int(start), int(start) + 1000,
                            frozenset({0}), 15.0 + rng.uniform(-5.0, 5.0))
               for node, start in zip(senders, starts)]
        tx = txs[0]
        tx.start_ns, tx.end_ns = base + 1000, base + 2000
        hand_over(medium, *txs)
        sim.run_until(tx.end_ns)
        _, everyone = medium.nav_sinr_vector(tx, nodes)
        for i in rng.choice(n, 5, replace=False).tolist():
            j = (i + 1) % n
            alone = medium.nav_sinr_vector(tx, nodes[[i]])[1]
            pair = medium.nav_sinr_vector(tx, nodes[[i, j]])[1]
            assert alone[0] == pair[0] == everyone[i], (i, len(txs))
            assert alone[0] == medium.sinr_db(tx, i, tx.power_per_subchannel_dbm(),
                                              SUBCHANNEL_HZ, 0)
            seen += 1
        sim.run_until(base + 3000)                       # every frame has ended
    assert seen == 5 * rounds


def test_the_slab_keeps_every_readable_row_through_reuse_and_growth():
    """From a small slab, frames on the air by the handful and then by the
    dozen reuse its rows and double it more than once; every decode and NAV
    read at a frame's end, and in a later event of that instant after more
    handovers, equals the reference over whole frames.  A frame read at a
    later instant, when other frames hold its interferers' rows, raises."""
    cfg = default_config("indoor_multi", n_bss=3, stas_per_bss=8, bandwidth_mhz=40)
    ctx = RunContext(cfg, "ax_sr")          # no engine kicked: only these frames
    medium, sim = ctx.medium, ctx.sim
    interferers = Handovers(ctx)
    n = len(ctx.nodes)
    nodes = np.arange(n)
    rng = np.random.default_rng(11)
    seen = Counter()
    capacities = set()
    early = []                  # an ended frame with interferers on subchannel 0

    def read(tx):
        ref_corrupt, ref_nav = reference_nav_sinr(ctx, interferers(tx), tx)
        for asked in (nodes, nodes[rng.choice(n, 3, replace=False)], nodes[[5]]):
            corrupt, nav = medium.nav_sinr_vector(tx, asked)
            assert corrupt == ref_corrupt
            np.testing.assert_array_equal(nav, ref_nav[asked])
        ru_index, co_group = (tx.ru.ru_index, tx.ru.users) if tx.ru else (None, ())
        for rx in rng.choice(n, 3, replace=False).tolist():
            for band_hz in (SUBCHANNEL_HZ, 2e6):
                for subchannel in sorted(tx.subchannels):
                    args = (tx, rx, tx.power_dbm, band_hz, subchannel, ru_index, co_group)
                    assert medium.sinr_db(*args) == \
                        reference_sinr_db(ctx, interferers(tx), *args)
        seen["corrupt" if ref_corrupt else "read"] += 1
        capacities.add(len(medium._slab))

    def ended(tx):
        read(tx)
        if not early and tx.overlaps.on(0)[0]:
            early.append(tx)
        if rng.random() < 0.3:      # a later event of this instant, after a handover
            sim.at(sim.now, lambda: (send(sim.now), read(tx)))

    def send(at):
        node = int(rng.integers(n))
        subs = (0,) if rng.random() < 0.6 else (0, 1) if rng.random() < 0.5 else (1,)
        start = at + int(rng.choice([0, 16 * US]))
        tx = Transmission(0, node, ctx.nodes[node].bss_id, "ampdu", start,
                          start + int(rng.integers(1, 40)) * 10 * US, frozenset(subs),
                          15.0 + float(rng.uniform(-5.0, 5.0)))
        if rng.random() < 0.2:      # an HE-TB of a shared round, maybe on one RU
            tx.kind, tx.round_id = "he-tb", 1 + int(rng.integers(2))
            tx.ru = RuPart(int(rng.integers(3)), RuAssignment(26, min(subs)), 15.0)
        return medium.transmit(tx, ended)

    # handovers on a 10 us grid, so ends and handovers share instants; the
    # mean gap sets how many frames are on the air at once
    t = 0
    for mean_gap_us in (100, 20, 5, 40):
        for _ in range(400):
            t += int(rng.integers(0, 2 * mean_gap_us // 10 + 1)) * 10 * US
            sim.run_until(t)
            send(t)
    sim.run_until(t + 10_000 * US)
    assert seen["read"] > 1000 and seen["corrupt"] > 0, seen
    assert min(capacities) == INITIAL_CAPACITY and max(capacities) >= 4 * INITIAL_CAPACITY
    assert medium._next_id > 4 * max(capacities)       # rows were reused
    # as many frames on the air at once as the slab has rows take every row
    sim.run_until(sim.now + 1000 * US)
    burst = [send(sim.now) for _ in range(len(medium._slab))]
    old = early[0]
    assert set(old.overlaps.on(0)[0]) <= {tx.row for tx in burst}
    with pytest.raises(LookupError):
        medium.sinr_db(old, 0, old.power_dbm, SUBCHANNEL_HZ, 0)
    with pytest.raises(LookupError):
        medium.nav_sinr_vector(old, nodes)


def test_ended_frames_do_not_stay_reachable():
    """On a medium that is never idle, every frame overlaps one that is
    still on the air.  Interferer lists hold records, not frames, so a
    frame dies after its last decode: none outlives its end by more than
    one TXOP limit, and the frames alive at any time stay a few dozen, not
    every frame sent."""
    cfg = default_config("outdoor_multi", n_bss=7, stas_per_bss=16,
                         duration_s=0.15)
    ctx = RunContext(cfg, "ax_sr")
    for engine in ctx.engines:
        engine.kick()
    alive = {}          # tx_id -> (weak reference, end)
    lived_past_end = []
    most_alive = 0

    def watch(event, tx):
        nonlocal most_alive
        if event != "start":
            return

        def died(_ref, tx_id=tx.tx_id):
            lived_past_end.append(ctx.sim.now - alive.pop(tx_id)[1])

        alive[tx.tx_id] = (weakref.ref(tx, died), tx.end_ns)
        most_alive = max(most_alive, len(alive))

    ctx.medium.listeners.append(watch)
    ctx.sim.run_until(cfg.duration_ns)
    gc.collect()
    txop_limit_ns = cfg.mac.txop_limit_us * US
    assert len(lived_past_end) > 1000
    assert max(lived_past_end) <= txop_limit_ns
    assert all(end_ns >= ctx.sim.now - txop_limit_ns for _, end_ns in alive.values())
    assert most_alive < 100


def test_the_slab_stays_within_twice_the_live_rows():
    """Rows live only in the slab, one per frame that may still be read,
    and the slab holds at most twice the most live rows: those of the frame
    handed over, the frames on the air or ended at this instant, and every
    frame that one of those may have among its interferers.  No ended frame
    keeps an n-node array."""
    cfg = default_config("outdoor_multi", n_bss=7, stas_per_bss=16,
                         duration_s=0.15)
    ctx = RunContext(cfg, "ax_sr")
    for engine in ctx.engines:
        engine.kick()
    medium, sim = ctx.medium, ctx.sim
    interferers = Handovers(ctx)
    transmit = medium.transmit
    ended_now = []          # (instant, frame) of the frames that ended last
    live_rows = []
    ended = []

    def hand_over(tx, then=None):
        readable = list(medium.active.values())
        readable += [f for at, f in ended_now if at == sim.now]
        transmit(tx, then)
        live = {tx.tx_id}
        for f in readable:
            live.add(f.tx_id)
            live.update(g.tx_id for g in interferers(f))
        live_rows.append(len(live))
        return tx

    def watch(event, tx):
        if event == "end":
            ended_now[:] = [(at, f) for at, f in ended_now if at == sim.now]
            ended_now.append((sim.now, tx))
            ended.append(weakref.ref(tx))

    medium.transmit = hand_over
    medium.listeners.append(watch)
    sim.run_until(cfg.duration_ns)
    gc.collect()
    n = len(ctx.nodes)
    assert len(live_rows) > 1000
    assert len(medium._slab) <= 2 * max(live_rows)
    assert medium._slab.shape == (len(medium._slab), n)
    alive = [tx for ref in ended if (tx := ref()) is not None]
    assert alive
    for tx in alive:
        held = [value for value in vars(tx).values() if isinstance(value, np.ndarray)]
        held += [getattr(tx.overlaps, name) for name in tx.overlaps.__slots__]
        assert not [value for value in held if isinstance(value, np.ndarray)], tx.tx_id
