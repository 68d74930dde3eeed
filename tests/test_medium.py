"""The interferer rule that decode SINR and NAV readability share, and how
long an ended frame lives.

Every sum is of received powers in mW, made once per frame from its dBm row
with numpy's power, and goes back to dB through numpy's log10; the
expectations here restate that, so they compare with `==`."""

from __future__ import annotations

import gc
import weakref

import numpy as np

from axsim import phy
from axsim.config import RadioSection, default_config
from axsim.core import US, Simulator
from axsim.engine import RunContext
from axsim.medium import (SUBCHANNEL_HZ, Interferer, Medium, RuPart, Transmission,
                          overlapping)
from axsim.ru import RuAssignment

LOSS = np.array([[0.0, 70.0, 75.0, 80.0, 85.0],
                 [70.0, 0.0, 72.0, 77.0, 82.0],
                 [75.0, 72.0, 0.0, 74.0, 79.0],
                 [80.0, 77.0, 74.0, 0.0, 76.0],
                 [85.0, 82.0, 79.0, 76.0, 0.0]])


def frame(node, bss, start, end, subs=(0,), round_id=-1, ru=None, users=()):
    part = None if ru is None else RuPart(ru, RuAssignment(26, min(subs)), 15.0, users)
    return Transmission(0, node, bss, "he-tb" if part else "ampdu", start, end,
                        frozenset(subs), 15.0, round_id=round_id, ru=part)


# the frame under test: node 0's HE-TB on RU 1 of round 5, sharing the RU
# with node 1 by MU-MIMO
TX = dict(node=0, bss=0, start=0, end=1000, round_id=5, ru=1, users=(0, 1))
FAR = frame(4, 1, 500, 1500)                          # half the frame
OTHER_ROUND = frame(2, 0, 0, 1000, round_id=6, ru=1)  # whole frame
SKIPPED = [
    frame(0, 1, 0, 1000),                        # its own transmitter
    frame(4, 1, 0, 1000, subs=(2,)),             # another subchannel
    frame(2, 0, 0, 1000, round_id=5, ru=2),      # orthogonal RU, same round
    frame(1, 0, 0, 1000, round_id=5, ru=1),      # MU-MIMO partner stream
    frame(3, 0, 0, 1000, round_id=5),            # aligned control frame
    frame(4, 1, 1000, 2000),                     # starts as the frame ends
]
COLLIDER = frame(3, 0, 0, 1000, round_id=5, ru=1)     # same RA-RU, same round


def rx_mw(f: Transmission, loss: np.ndarray = LOSS) -> np.ndarray:
    """f's received power per subchannel at every node, in mW."""
    return np.power(10.0, (f.power_per_subchannel_dbm() - loss[f.tx_node]) / 10.0)


def heard(*frames: Transmission) -> list[Interferer]:
    """An interferer list holding frames, as handover fills it."""
    return [Interferer.of(f, rx_mw(f)) for f in frames]


def test_overlapping_keeps_the_interferers_with_their_airtime_share():
    tx = frame(**TX)
    tx.interferers = heard(*SKIPPED[:3], FAR, *SKIPPED[3:], OTHER_ROUND)
    records = tx.interferers
    far, other_sub, other_round = (records[k].rx_mw for k in (3, 1, -1))
    overlaps = overlapping(tx)
    rows, shares = overlaps.on(0)
    assert [id(row) for row in rows] == [id(far), id(other_round)]
    assert shares == [0.5, 1.0]
    rows, shares = overlaps.on(2)                       # the other subchannel
    assert [id(row) for row in rows] == [id(other_sub)] and shares == [1.0]
    assert not overlaps.corrupts(1, (0, 1))
    # without an RU to decode, same-round frames are aligned structure
    tx.interferers += heard(COLLIDER)
    overlaps = overlapping(tx)
    assert [id(row) for row in overlaps.on(0)[0]] == [id(far), id(other_round)]
    assert not overlaps.corrupts(None, ())
    assert overlaps.corrupts(1, (0, 1))


def test_decode_and_nav_sinr_apply_the_same_rule():
    nf = RadioSection().noise_figure_db
    medium = Medium(Simulator(), LOSS, nf)
    tx = frame(**TX)
    tx.interferers = heard(*SKIPPED, FAR, OTHER_ROUND)
    nodes = np.arange(1, 5)
    corrupt, nav = medium.nav_sinr_vector(tx, nodes)
    assert not corrupt
    noise_mw = phy.dbm_to_mw(phy.noise_dbm(SUBCHANNEL_HZ, nf))
    for k, node in enumerate(nodes):
        desired = medium.rx_power_dbm(0, node, tx.power_per_subchannel_dbm())
        sinr = medium.sinr_db(tx, node, tx.power_per_subchannel_dbm(), SUBCHANNEL_HZ,
                              0, ru_index=1, co_group=(0, 1))
        # FAR overlaps half the frame, OTHER_ROUND all of it, in that order
        interference_mw = 0.5 * rx_mw(FAR)[node] + 1.0 * rx_mw(OTHER_ROUND)[node]
        expected = desired - 10.0 * np.log10(noise_mw + interference_mw)
        assert sinr == expected
        assert nav[k] == expected
    tx.interferers += heard(COLLIDER)
    assert medium.sinr_db(tx, 3, 15.0, SUBCHANNEL_HZ, 0, ru_index=1,
                          co_group=(0, 1)) is None
    corrupt, nav = medium.nav_sinr_vector(tx, nodes)
    assert corrupt and (nav == -np.inf).all()


def test_a_nodes_nav_sinr_does_not_depend_on_the_other_nodes_asked():
    """The NAV pass adds a node's interference in interferer order, as decode
    does, whether it is asked for one node or many: a sum over axis 0 of a
    (k, 1) block adds pairwise, and of a (k, m >= 2) block row by row."""
    rng = np.random.default_rng(7)
    n = 40
    loss = rng.uniform(60.0, 110.0, (n, n))
    medium = Medium(Simulator(), loss, RadioSection().noise_figure_db)
    nodes = np.arange(n)
    seen = 0
    for _ in range(200):
        senders = rng.choice(n, rng.integers(9, 30), replace=False)
        txs = [Transmission(0, int(node), int(node), "ampdu", int(start), int(start) + 1000,
                            frozenset({0}), 15.0 + rng.uniform(-5.0, 5.0))
               for node, start in zip(senders, rng.integers(-900, 900, len(senders)))]
        tx = txs[0]
        tx.start_ns, tx.end_ns = 0, 1000
        tx.interferers = [Interferer.of(f, rx_mw(f, loss)) for f in txs[1:]]
        _, everyone = medium.nav_sinr_vector(tx, nodes)
        for i in rng.choice(n, 5, replace=False).tolist():
            j = (i + 1) % n
            alone = medium.nav_sinr_vector(tx, nodes[[i]])[1]
            pair = medium.nav_sinr_vector(tx, nodes[[i, j]])[1]
            assert alone[0] == pair[0] == everyone[i], (i, len(txs))
            assert alone[0] == medium.sinr_db(tx, i, tx.power_per_subchannel_dbm(),
                                              SUBCHANNEL_HZ, 0)
            seen += 1
    assert seen == 1000



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
