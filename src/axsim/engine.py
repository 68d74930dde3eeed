"""Event-driven MAC engines wiring scheme behaviour onto the shared medium:
EDCA contention, the single-user TXOP exchange, and the AP-driven MU rounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import frames, mu, phy, ru, spatial
from .config import (DL, INDOOR_MULTI, INDOOR_SINGLE, OUTDOOR_MULTI, OUTDOOR_SINGLE,
                     ScenarioConfig, Scheme, scheme_features)
from .contention import Caps, Contender
from .core import DIFS, MS, SIFS, SLOT_TIME, US, RngSet, RngStream, Simulator
from .medium import Medium, RuPart, Transmission
from .power import PowerState, intra_ppdu_doze
from .spatial import INTRA_BSS, TwoNav
from .traffic import NO_SEQS, CbrFlow, FlowStats

EIFS = SIFS + 44 * US + DIFS          # SIFS + legacy ACK airtime + DIFS

VHT_DATA_SUBCARRIERS = {20: 52, 40: 108, 80: 234, 160: 468}

# Default trigger-scheduler granularity: 242-tone RUs once the band allows
# them; the 20 MHz channel is split three ways (two 106s around the centre
# 26), which also keeps 1024-QAM out of sub-242 RUs.
SCHEDULER_TONE_PLAN = {20: (106, 106, 26), 40: (242, 242),
                       80: (242,) * 4, 160: (242,) * 8}

MIN_SR_TXPWR_DBM = -10.0
POLL_INTERVAL_NS = 20 * MS      # how often an engine starts its backlogged contenders


@dataclass
class SimNode:
    node_id: int
    bss_id: int
    is_ap: bool
    tx_power_dbm: float
    antennas: int
    color: int
    power: PowerState = field(default_factory=PowerState)
    flow: CbrFlow | None = None               # a STA's traffic, either direction
    obo: mu.OboState | None = None
    in_txop: bool = False                     # holder side of a running exchange
    # A STA's AID: its 1-based position among its BSS's STAs, so ascending
    # with node id as build_schedule expects, and at most mu.MAX_AID, which
    # ScenarioConfig.validate holds stas_per_bss to.  Node ids would reach
    # the reserved AID12 2045 in large layouts.  0 for an AP.
    aid: int = 0


@dataclass
class Txop:
    """A running TXOP: its holder, the instant its reservation ends, and
    whether any data got through yet.  A single-user exchange also fixes its
    peer, the flow it serves and the link (MCS, data bits per symbol).
    Every frame of the TXOP goes out through ``BssEngine.send`` with it,
    which sets the frame's Duration to what is left of the reservation
    after the frame ends."""

    holder: SimNode
    deadline_ns: int
    any_data: bool = False
    peer: SimNode | None = None
    flow: CbrFlow | None = None
    link: tuple[phy.Mcs, float] | None = None


class BssEngine:
    """State and frame handling shared by both scheme engines."""

    def __init__(self, ctx: "RunContext", bss_id: int, ap: SimNode,
                 stas: list[SimNode]):
        self.ctx = ctx
        self.bss_id = bss_id
        self.ap = ap
        self.stas = stas
        self.nodes = [ap] + stas
        for aid, sta in enumerate(stas, 1):
            sta.aid = aid
        self.by_id = {n.node_id: n for n in self.nodes}
        self.sim = ctx.sim
        self.medium = ctx.medium
        self.cfg = ctx.cfg
        self.features = ctx.features
        self.rng_backoff = ctx.rng.stream(f"backoff-{bss_id}")
        self.rng_per = ctx.rng.stream(f"per-{bss_id}")
        self.rng_sched = ctx.rng.stream(f"sched-{bss_id}")
        self.rng_uora = ctx.rng.stream(f"uora-{bss_id}")
        self.nss = min(self.cfg.radio.sta_antennas, self.cfg.radio.ap_antennas)
        self.contending: tuple[SimNode, ...] = ()   # the nodes that run EDCA
        self.mpdu_bits = frames.mpdu_bits(self.cfg.packet_bytes)

    # --- carrier sensing / doze ----------------------------------------------------

    def cs_state(self) -> tuple[np.ndarray, Caps | None]:
        """(blocked row over all nodes, caps) from the frames the medium
        senses now; see RunContext.carrier_state for the rule.  The only
        caller of Medium.sensed."""
        return self.ctx.carrier_state(self.medium.sensed())

    def on_air(self, tx: Transmission) -> None:
        """Doze phase at the start of a data PPDU: STAs the PPDU does not
        involve and that sense it (the hearers of its reach) doze until its
        end, if they may."""
        hearers = set(self.ctx.reach(tx).hearers.tolist())
        for node in self.stas:
            if node.node_id not in hearers or node.node_id in tx.involves:
                continue
            if node.power.dozing:
                continue
            wake_at = intra_ppdu_doze(node.power, self.sim.now,
                                      self.ctx.classify(node, tx),
                                      ppdu_end_ns=tx.end_ns)
            if wake_at is not None:
                self.sim.at(wake_at, lambda n=node: n.power.wake(self.sim.now))

    # --- transmit helpers -------------------------------------------------------------

    def node_power(self, node: SimNode) -> float:
        if not self.features.spatial_reuse:     # only spatial reuse caps power
            return node.tx_power_dbm
        cap = self.ctx.contention.sr_cap_dbm
        power = min(node.tx_power_dbm, cap.item(node.node_id))
        if not node.is_ap:
            # triggered STAs follow the AP's spatial-reuse power control
            power = min(power, cap.item(self.ap.node_id))
        return power

    def send(self, node: SimNode, kind: str, start: int, end: int,
             then=None, txop: Txop | None = None, **fields) -> Transmission:
        """Put node's PPDU on the air from start to end, charging its transmit
        energy from now; then(tx), if given, runs in its end event, after
        the medium's end listeners.  A frame of txop
        carries as Duration what is left of the TXOP after its end; any
        other frame carries none.  fields are further Transmission fields;
        the PPDU spans the whole channel unless they give its subchannels."""
        now = self.sim.now
        node.power.mark_tx(now, end - now)
        fields.setdefault("subchannels", self.ctx.subchannels)
        tx = Transmission(0, node.node_id, self.bss_id, kind, start, end,
                          power_dbm=self.node_power(node), color=node.color,
                          nav_duration_ns=0 if txop is None
                          else max(0, txop.deadline_ns - end),
                          **fields)
        return self.medium.transmit(tx, then)

    def send_control(self, node: SimNode, kind: str, n_bytes: int, start: int,
                     then=None, txop: Txop | None = None, **fields) -> Transmission:
        """send for a frame of n_bytes at the legacy control rate."""
        return self.send(node, kind, start,
                         start + frames.legacy_frame_duration_ns(n_bytes),
                         then, txop=txop, **fields)

    def control_decodes(self, tx: Transmission, node: SimNode, n_bytes: int) -> bool:
        if node.power.dozing:
            return False
        return self.mcs0_decodes(self.medium.sinr_db(
            tx, node.node_id, tx.power_per_subchannel_dbm(), 20e6, 0), n_bytes)

    def mcs0_decodes(self, sinr: float | None, n_bytes: int) -> bool:
        """One rng_per draw against the MCS0 PER of an n_bytes frame; a hard
        corruption (sinr None) fails without a draw."""
        if sinr is None:
            return False
        p_err = self.ctx.per_model.per(sinr, phy.Mcs(0), 8 * n_bytes)
        return self.rng_per.random() >= p_err

    def mpdu_outcomes(self, flow: CbrFlow, seqs: np.ndarray, eff_sinr: float | None,
                      mcs: phy.Mcs) -> tuple[np.ndarray, np.ndarray]:
        """Outcome of one A-MPDU carrying seqs of flow: one rng_per uniform
        per MPDU, in order, survives if it is at least the PER.  Every MPDU
        has mpdu_bits, so one PER holds for the whole A-MPDU.  Survivors are
        delivered; returns (survivors, failed), which the caller returns to
        the front of the flow's queue once it knows what was acknowledged.
        A hard corruption (eff_sinr None) fails every MPDU without a draw."""
        stats = self.ctx.stats[flow.flow_id]
        stats.mpdu_attempts += len(seqs)
        if eff_sinr is None:
            stats.mpdu_failures += len(seqs)
            return NO_SEQS, seqs
        p_err = self.ctx.per_model.per(eff_sinr, mcs, self.mpdu_bits)
        ok = self.rng_per.random_array(len(seqs)) >= p_err
        survivors = seqs[ok]
        failed = seqs[~ok]
        if len(survivors):
            self.ctx.deliver(flow, survivors)
        stats.mpdu_failures += len(failed)
        return survivors, failed

    # --- link adaptation ---------------------------------------------------------------

    def _rx_gain_db(self, rx: SimNode, users: int) -> float:
        """The SINR gain at rx of a PPDU whose RU `users` users share by
        MU-MIMO, nss streams each: rx's array gain over all their streams,
        less the stream penalty if the RU is shared."""
        return phy.mu_mimo_sinr_adjustment_db(rx.antennas, self.nss * users, users > 1,
                                              self.cfg.phy.mu_stream_penalty_db)

    def _link(self, power_dbm: float, tx: SimNode, rx: SimNode,
              tones: int | None = None, users: int = 1) -> tuple[phy.Mcs, float]:
        """(MCS, data bits per OFDM symbol) for tx sending to rx at power_dbm
        on an RU of `tones` (None: the whole VHT channel) that `users` users
        share by MU-MIMO.  The MCS is selected against the SNR over the
        noise plus the other-BSS interference rx sees now."""
        band = self.cfg.bandwidth_mhz * 1e6 if tones is None else tones * 78_125.0
        snr = power_dbm - self.ctx.loss(tx, rx) \
            - self.medium.interference_dbm(rx.node_id, band, self.bss_id) \
            + self._rx_gain_db(rx, users)
        mcs = self.ctx.per_model.select_mcs(snr, tones or 0, self.features.max_mcs)
        subcarriers = VHT_DATA_SUBCARRIERS[self.cfg.bandwidth_mhz] \
            if tones is None else ru.data_subcarriers(tones)
        return mcs, self._bits_per_symbol(subcarriers, mcs)

    def _bits_per_symbol(self, subcarriers: int, mcs: phy.Mcs) -> float:
        """Data bits per OFDM symbol of nss streams at mcs on subcarriers."""
        return subcarriers * mcs.bits_per_symbol * float(mcs.coding_rate) * self.nss

    # --- TXOP end -------------------------------------------------------------------

    def _finish_txop(self, txop: Txop, success: bool) -> None:
        holder = txop.holder
        holder.in_txop = False
        contention = self.ctx.contention
        contention.redraw(holder, success)
        if success and txop.deadline_ns - self.sim.now > \
                frames.legacy_frame_duration_ns(frames.CF_END_BYTES):
            self.send_control(holder, "cf-end", frames.CF_END_BYTES, self.sim.now)
        if self.has_work(holder):
            contention.start(holder)

    # --- traffic wiring -----------------------------------------------------------------

    def attach_flows(self) -> None:
        rng = self.ctx.rng.stream(f"traffic-{self.bss_id}")
        rate = self.cfg.per_sta_rate_mbps * 1e6
        for sta in self.stas:
            phase = rng.randint(0, max(1, int(8 * self.cfg.packet_bytes * 1e9
                                              / max(rate, 1e-9))))
            sta.flow = CbrFlow(sta.node_id, rate, self.cfg.packet_bytes, phase)
            self.ctx.stats[sta.node_id] = FlowStats()

    def kick(self) -> None:
        self.sim.at(0, self._poll_traffic)

    def _poll_traffic(self) -> None:
        for node in self.contending:
            if self.has_work(node):
                self.ctx.contention.start(node)
        self.sim.after(POLL_INTERVAL_NS, self._poll_traffic)

    def has_work(self, node: SimNode) -> bool:
        """Whether node has traffic to contend for: a STA for its own uplink
        flow, the AP for every flow of the BSS it serves or triggers."""
        flows = (sta.flow for sta in self.stas) if node.is_ap else (node.flow,)
        now = self.sim.now
        return any(f.backlog_count(now) > 0 for f in flows)

    def on_backoff_complete(self, node: SimNode) -> None:
        raise NotImplementedError


# --- 802.11ac comparison scheme ------------------------------------------------------------

class AcBssEngine(BssEngine):
    """EDCA contention per node; the winner runs an RTS/CTS-protected
    single-user TXOP with aggregate/block-ack rounds."""

    def __init__(self, ctx, bss_id, ap, stas):
        super().__init__(ctx, bss_id, ap, stas)
        self.contending = (ap,) if self.cfg.direction == DL else tuple(stas)
        self.data_ppdu = phy.vht_ppdu(self.nss)

    def on_backoff_complete(self, holder: SimNode) -> None:
        now = self.sim.now
        if holder.is_ap:            # downlink: one backlogged STA at random
            candidates = [s for s in self.stas if s.flow.backlog_count(now) > 0]
            if not candidates:
                return
            peer = self.rng_sched.choice(candidates)
            flow = peer.flow
        else:
            peer, flow = self.ap, holder.flow
            if flow.backlog_count(now) == 0:
                return
        holder.in_txop = True
        txop = Txop(holder, now + self.cfg.mac.txop_limit_us * US, peer=peer,
                    flow=flow, link=self._link(self.node_power(holder), holder, peer))
        self.send_control(holder, "rts", frames.RTS_BYTES, now,
                          lambda rts: self._rts_done(txop, rts), txop=txop,
                          involves=frozenset({peer.node_id}))

    def _rts_done(self, txop: Txop, rts) -> None:
        peer = txop.peer
        if self.control_decodes(rts, peer, frames.RTS_BYTES):
            start = self.sim.now + SIFS
            self.send_control(peer, "cts", frames.CTS_BYTES, start,
                              lambda cts: self._cts_done(txop, cts), txop=txop,
                              involves=frozenset({txop.holder.node_id}))
        else:
            timeout = self.sim.now + SIFS + \
                frames.legacy_frame_duration_ns(frames.CTS_BYTES) + SLOT_TIME
            self.sim.at(timeout, lambda: self._finish_txop(txop, success=False))

    def _cts_done(self, txop: Txop, cts) -> None:
        if self.control_decodes(cts, txop.holder, frames.CTS_BYTES):
            self._data_round(txop)
        else:
            self._finish_txop(txop, success=False)

    def _data_round(self, txop: Txop) -> None:
        now = self.sim.now
        flow = txop.flow
        mcs, bps = txop.link
        ba_ns = frames.legacy_frame_duration_ns(frames.BA_BYTES)
        budget = txop.deadline_ns - now - 2 * SIFS - ba_ns
        n = frames.mpdus_that_fit(budget, self.data_ppdu, bps, self.mpdu_bits,
                                  min(self.features.ampdu_cap,
                                      flow.backlog_count(now)), he=False)
        if n < 1:
            self._finish_txop(txop, success=True)
            return
        seqs = flow.take(now, n)
        start = now + SIFS
        end = start + frames.data_duration_ns(self.data_ppdu,
                                              len(seqs) * self.mpdu_bits, bps,
                                              he=False)
        self.send(txop.holder, "ampdu", start, end,
                  lambda tx: self._data_done(txop, tx, seqs, mcs), txop=txop,
                  involves=frozenset({txop.peer.node_id}))

    def _data_done(self, txop: Txop, tx, seqs, mcs) -> None:
        peer = txop.peer
        sinr = self.medium.sinr_db(tx, peer.node_id, tx.power_dbm,
                                   self.cfg.bandwidth_mhz * 1e6, 0)
        eff = None if sinr is None or peer.power.dozing \
            else sinr + self._rx_gain_db(peer, 1)
        survivors, failed = self.mpdu_outcomes(txop.flow, seqs, eff, mcs)
        if not len(survivors):
            txop.flow.requeue(seqs)
            self._finish_txop(txop, success=txop.any_data)
            return
        txop.any_data = True
        start = self.sim.now + SIFS
        self.send_control(peer, "ba", frames.BA_BYTES, start,
                          lambda ba: self._ba_done(txop, ba, failed, seqs),
                          txop=txop, involves=frozenset({txop.holder.node_id}))

    def _ba_done(self, txop: Txop, ba, failed, sent) -> None:
        if self.control_decodes(ba, txop.holder, frames.BA_BYTES):
            txop.flow.requeue(failed)
            self._data_round(txop)
        else:
            txop.flow.requeue(sent)     # sender cannot confirm anything
            self._finish_txop(txop, success=False)


# --- 802.11ax MU schemes --------------------------------------------------------------------

class AxBssEngine(BssEngine):
    """AP-scheduled MU rounds inside EDCA-won TXOPs: trigger-based UL with
    BSR/BSRP and multi-STA BA, HE-MU downlink with OFDMA BA, cascading until
    the TXOP budget runs out."""

    def __init__(self, ctx, bss_id, ap, stas):
        super().__init__(ctx, bss_id, ap, stas)
        self.bsr = mu.BsrTable()
        self.layout = ru.RuLayout.of(self.cfg.bandwidth_mhz,
                                     SCHEDULER_TONE_PLAN[self.cfg.bandwidth_mhz])
        self.contending = (ap,)
        self.users_per_ru = 1
        if self.features.ul_mu_mimo:
            self.users_per_ru = max(1, min(2, self.cfg.radio.ap_antennas // self.nss))
        for sta in stas:
            sta.obo = mu.OboState(self.cfg.mac.ocw_min, self.cfg.mac.ocw_max)

    @cached_property
    def min_dl_round_ns(self) -> int:
        """The shortest DL round: SIFS, one MPDU and the BA at the fastest
        rate _link can give any user, that of the top MCS of the layout's
        best RU (rates rise with the MCS index).  Worked out at the first DL
        round, so an uplink engine never pays for it."""
        top_bps = max(self._bits_per_symbol(ru.data_subcarriers(tones),
                                            phy.top_mcs(tones, self.features.max_mcs))
                      for tones in set(self.layout.tone_sizes))
        return SIFS \
            + frames.data_duration_ns(phy.HE_MU_PPDU, self.mpdu_bits, top_bps) \
            + frames.data_duration_ns(phy.HE_TB_PPDU, 8 * frames.BA_BYTES, top_bps)

    # --- TXOP structure -----------------------------------------------------------------

    def on_backoff_complete(self, node: SimNode) -> None:
        if not self.has_work(node):
            return
        node.in_txop = True
        txop = Txop(node, self.sim.now + self.cfg.mac.txop_limit_us * US)
        if self.cfg.direction == DL:
            self._dl_round(txop)
        else:
            self._ul_step(txop)

    def _ru_part(self, ru_index: int, power_dbm: float,
                 users: tuple[int, ...] = ()) -> RuPart:
        return RuPart(ru_index, self.layout.rus[ru_index], power_dbm, users)

    def _he_tb(self, txop: Txop, sta: SimNode, ru_index: int, start: int, end: int,
               round_id: int, solicited: frozenset[int],
               partners: tuple[int, ...] = ()) -> Transmission:
        """Put one STA's trigger-based response in txop on the air in its
        RU, which it shares with its MU-MIMO partners.  The PPDU involves the
        AP and every STA the round's trigger solicited, so no responder
        dozes through another's response."""
        part = self._ru_part(ru_index, self.node_power(sta), partners)
        return self.send(sta, "he-tb", start, end, txop=txop,
                         subchannels=part.assignment.subchannels,
                         round_id=round_id, ru=part,
                         involves=solicited | {self.ap.node_id})

    def _ru_sinr(self, tx: Transmission) -> float | None:
        """Decode SINR at the AP of a HE-TB PPDU in its RU; the RU's MU-MIMO
        partner streams do not interfere."""
        part = tx.ru
        return self.medium.sinr_db(tx, self.ap.node_id, tx.power_dbm,
                                   part.bandwidth_hz, part.assignment.position,
                                   part.ru_index, co_group=part.users)

    # --- uplink -----------------------------------------------------------------------------

    # Trigger frames, BSRs, schedules and multi-STA BAs name STAs by AID
    # (SimNode.aid); frames on the air involve node ids.

    def _ul_step(self, txop: Txop) -> None:
        now = self.sim.now
        queued = self.bsr.queued
        unknown = [s.aid for s in self.stas
                   if s.aid not in queued and s.flow.backlog_count(now) > 0]
        if unknown:
            self.rng_sched.shuffle(unknown)
            self._bsrp_round(txop, unknown)
            return
        self._ul_data_round(txop)

    def _node_ids(self, aids) -> frozenset[int]:
        return frozenset(self.stas[aid - 1].node_id for aid in aids)

    def _bsrp_round(self, txop: Txop, unknown: list[int]) -> None:
        now = self.sim.now
        polled = unknown[:len(self.layout.rus)]
        users = tuple(mu.TfUser(aid, i) for i, aid in enumerate(polled))
        tf = mu.TriggerFrame(self.layout, users)
        tf_bytes = frames.tf_bytes(len(polled))
        report_ns = max(
            frames.data_duration_ns(phy.HE_TB_PPDU, 8 * frames.BSR_REPORT_BYTES,
                                    ru.data_subcarriers(self.layout.rus[i].tones) * 0.5)
            for i in range(len(polled)))
        total = frames.legacy_frame_duration_ns(tf_bytes) + SIFS + report_ns
        if now + total > txop.deadline_ns:
            self._finish_txop(txop, txop.any_data)
            return
        self.send_control(self.ap, "tf-bsrp", tf_bytes, now,
                          lambda ctrl: self._bsrp_responses(txop, ctrl, tf, report_ns),
                          txop=txop, involves=self._node_ids(polled), payload=tf)

    def _bsrp_responses(self, txop: Txop, ctrl, tf, report_ns) -> None:
        start = self.sim.now + SIFS
        round_id = self.ctx.new_round()
        polled = self._node_ids(user.aid12 for user in tf.per_user)
        txs = []
        for user in tf.per_user:
            sta = self.stas[user.aid12 - 1]
            if not self.control_decodes(ctrl, sta, frames.TF_BASE_BYTES):
                continue
            txs.append((sta, self._he_tb(txop, sta, user.ru_index, start,
                                         start + report_ns, round_id, polled)))
        self.sim.at(start + report_ns, lambda: self._bsrp_done(txop, txs))

    def _bsrp_done(self, txop: Txop, txs) -> None:
        now = self.sim.now
        for sta, tx in txs:
            if self.mcs0_decodes(self._ru_sinr(tx), frames.BSR_REPORT_BYTES):
                self.bsr.ingest(sta.aid, sta.flow.backlog_bytes(now))
        # BSRP rounds end without an MBA
        self.sim.after(SIFS, lambda: self._ul_data_round(txop))

    def _ul_data_round(self, txop: Txop) -> None:
        now = self.sim.now
        queued = self.bsr.queued
        for sta in self.stas:       # drop drained entries before scheduling
            if sta.aid in queued and sta.flow.backlog_count(now) == 0:
                self.bsr.ingest(sta.aid, 0)
        tf = mu.build_schedule(self.bsr.backlogged(), self.layout, self.rng_sched,
                               self.cfg.mac.ra_ru_fraction, self.users_per_ru, self.nss)
        if tf is None:
            self._finish_txop(txop, txop.any_data)
            return
        plan = {}
        max_air = 0
        for user in tf.scheduled_users:
            sta = self.stas[user.aid12 - 1]
            users = len(tf.users_of(user.ru_index))
            mcs, bps = self._link(self.node_power(sta), sta, self.ap,
                                  tf.ru_of(user).tones, users)
            backlog = min(self.features.ampdu_cap, sta.flow.backlog_count(now))
            air = frames.data_duration_ns(phy.HE_TB_PPDU,
                                          backlog * self.mpdu_bits, bps)
            plan[user.aid12] = (user, mcs, bps)
            max_air = max(max_air, air)
        n_users = len(tf.per_user)
        tf_bytes = frames.tf_bytes(n_users)
        overhead = frames.legacy_frame_duration_ns(tf_bytes) + 2 * SIFS \
            + frames.legacy_frame_duration_ns(frames.mba_bytes(n_users))
        ul_duration = min(txop.deadline_ns - now - overhead, max_air)
        min_air = frames.data_duration_ns(phy.HE_TB_PPDU, self.mpdu_bits,
                                          min(p[2] for p in plan.values())
                                          if plan else 1e9)
        if ul_duration < min_air:
            self._finish_txop(txop, txop.any_data)
            return
        self.send_control(self.ap, "tf", tf_bytes, now,
                          lambda ctrl: self._ul_data_phase(txop, ctrl, tf, plan,
                                                           ul_duration),
                          txop=txop, involves=self._node_ids(plan), payload=tf)

    def _ul_data_phase(self, txop: Txop, ctrl, tf, plan, ul_duration) -> None:
        now = self.sim.now
        start = now + SIFS
        end = start + ul_duration
        round_id = self.ctx.new_round()
        # random-access RUs solicit every STA of the BSS
        solicited = frozenset(s.node_id for s in self.stas) if tf.ra_ru_indices \
            else self._node_ids(plan)
        txs = []
        for aid, (user, mcs, bps) in plan.items():
            sta = self.stas[aid - 1]
            if sta.power.dozing or \
                    not self.control_decodes(ctrl, sta, frames.TF_BASE_BYTES):
                continue
            if not self.ctx.nav.idle(sta.node_id, now, scheduled_in_intra_tf=True):
                continue
            n = frames.mpdus_that_fit(ul_duration, phy.HE_TB_PPDU, bps,
                                      self.mpdu_bits, self.features.ampdu_cap)
            seqs = sta.flow.take(now, n)
            if not len(seqs):
                continue
            partners = tuple(self.stas[u.aid12 - 1].node_id
                             for u in tf.users_of(user.ru_index) if u.aid12 != aid)
            tx = self._he_tb(txop, sta, user.ru_index, start, end, round_id,
                             solicited, partners)
            txs.append((sta, tx, seqs, mcs))
        uora_txs = self._uora_phase(txop, tf, start, end, round_id, solicited)
        self.sim.at(end, lambda: self._ul_round_end(txop, txs + uora_txs))

    def _uora_phase(self, txop, tf, start, end, round_id, solicited):
        ra_indices = tf.ra_ru_indices
        if not ra_indices:
            return []
        now = self.sim.now
        scheduled = {u.aid12 for u in tf.scheduled_users}
        eligible = {}
        for sta in self.stas:
            if sta.aid in scheduled or sta.power.dozing:
                continue
            if sta.flow.backlog_count(now) == 0:
                continue
            ok, sta.obo = mu.uora_update(sta.obo, len(ra_indices), self.rng_uora,
                                         self.cfg.mac.uora_boundary_eligible)
            if ok:
                eligible[sta.aid] = sta.obo

        def carrier_idle(aid: int) -> bool:
            i = self.stas[aid - 1].node_id
            blocked, _ = self.cs_state()
            return not blocked.item(i) and self.ctx.nav.idle(
                i, now, scheduled_in_intra_tf=True)

        updated, transmitted = mu.uora_transmit_phase(
            eligible, len(ra_indices), carrier_idle, self.rng_uora)
        for aid, st in updated.items():
            self.stas[aid - 1].obo = st
        txs = []
        for aid in transmitted:
            sta = self.stas[aid - 1]
            ru_index = ra_indices[sta.obo.candidate_ru]
            mcs, bps = self._link(self.node_power(sta), sta, self.ap,
                                  tf.layout.rus[ru_index].tones)
            n = frames.mpdus_that_fit(end - start, phy.HE_TB_PPDU, bps,
                                      self.mpdu_bits, self.features.ampdu_cap)
            seqs = sta.flow.take(now, max(1, n))
            tx = self._he_tb(txop, sta, ru_index, start, end, round_id, solicited)
            txs.append((sta, tx, seqs, mcs))
        return txs

    def _ul_round_end(self, txop: Txop, txs) -> None:
        now = self.sim.now
        decoded = {}
        results = []
        for sta, tx, seqs, mcs in txs:
            sinr = self._ru_sinr(tx)
            eff = None if sinr is None \
                else sinr + self._rx_gain_db(self.ap, len(tx.ru.users) + 1)
            survivors, failed = self.mpdu_outcomes(sta.flow, seqs, eff, mcs)
            results.append((sta, seqs, failed))
            if len(survivors):
                decoded[sta.aid] = tuple(survivors.tolist())
                self.bsr.ingest(sta.aid, sta.flow.backlog_bytes(now))
        if not decoded:
            for sta, seqs, _ in results:
                sta.flow.requeue(seqs)
            self._finish_txop(txop, success=False)   # channel-access failure
            return
        txop.any_data = True
        start = now + SIFS
        self.send_control(self.ap, "mba", frames.mba_bytes(len(decoded)), start,
                          lambda mba: self._mba_done(txop, mba, results, decoded),
                          txop=txop, involves=self._node_ids(decoded),
                          payload=mu.mba_for(decoded))

    def _mba_done(self, txop: Txop, mba, results, decoded) -> None:
        for sta, seqs, failed in results:
            acked = sta.aid in decoded and \
                self.control_decodes(mba, sta, frames.MBA_BASE_BYTES)
            sta.flow.requeue(failed if acked else seqs)
            if sta.obo is not None and sta.obo.obo == 0 and \
                    sta.obo.candidate_ru is not None:
                sta.obo = mu.ocw_on_result(sta.obo, acked)
        self.sim.after(SIFS, lambda: self._ul_step(txop))

    # --- downlink ----------------------------------------------------------------------------

    def _dl_round(self, txop: Txop) -> None:
        now = self.sim.now
        backlogged = [sta.aid for sta in self.stas if sta.flow.backlog_count(now) > 0]
        tf = mu.build_schedule(backlogged, self.layout, self.rng_sched, 0.0,
                               self.users_per_ru, self.nss)
        # A round shorter than min_dl_round_ns cannot fit: no user's rate
        # exceeds the one it assumes, and airtime does not rise with the
        # rate, so the exact check below, at the slowest user's rate, would
        # end the TXOP too; this one skips link adaptation.  It follows
        # build_schedule so that the schedule still draws rng_sched.
        if tf is None or txop.deadline_ns - now < self.min_dl_round_ns:
            self._finish_txop(txop, txop.any_data)
            return
        per_ru_power = mu.dl_power_split_dbm(self.node_power(self.ap),
                                             len(self.layout.rus))
        by_ru: dict[int, list[int]] = {}
        for user in tf.per_user:
            by_ru.setdefault(user.ru_index, []).append(
                self.stas[user.aid12 - 1].node_id)
        plan = {}
        max_air = 0
        for ru_index, members in by_ru.items():
            tones = self.layout.rus[ru_index].tones
            users = len(members)
            for sta_id in members:
                mcs, bps = self._link(per_ru_power - 10.0 * math.log10(users),
                                      self.ap, self.by_id[sta_id], tones, users)
                backlog = min(self.features.ampdu_cap,
                              self.by_id[sta_id].flow.backlog_count(now))
                air = frames.data_duration_ns(phy.HE_MU_PPDU,
                                              backlog * self.mpdu_bits, bps)
                plan[sta_id] = (ru_index, mcs, bps)
                max_air = max(max_air, air)
        # acknowledgements ride the adapted data rate of their RU
        ba_on_ru_ns = max(
            frames.data_duration_ns(phy.HE_TB_PPDU, 8 * frames.BA_BYTES, p[2])
            for p in plan.values())
        budget = txop.deadline_ns - now - SIFS - ba_on_ru_ns
        dl_duration = min(budget, max_air)
        min_air = frames.data_duration_ns(phy.HE_MU_PPDU, self.mpdu_bits,
                                          min(p[2] for p in plan.values()))
        if dl_duration < min_air:
            self._finish_txop(txop, txop.any_data)
            return
        parts = []
        taken = {}
        for ru_index, members in by_ru.items():
            served = []
            for sta_id in members:
                bps = plan[sta_id][2]
                n = frames.mpdus_that_fit(dl_duration, phy.HE_MU_PPDU, bps,
                                          self.mpdu_bits, self.features.ampdu_cap)
                seqs = self.by_id[sta_id].flow.take(now, n)
                if len(seqs):
                    taken[sta_id] = seqs
                    served.append(sta_id)
            if served:
                parts.append(self._ru_part(ru_index, per_ru_power, tuple(served)))
        if not taken:
            self._finish_txop(txop, txop.any_data)
            return
        end = now + dl_duration
        self.send(self.ap, "he-mu", now, end,
                  lambda tx: self._dl_data_done(txop, tx, plan, taken, ba_on_ru_ns),
                  txop=txop, round_id=self.ctx.new_round(), ru_parts=tuple(parts),
                  involves=frozenset(taken))

    def _dl_data_done(self, txop: Txop, tx, plan, taken, ba_on_ru_ns) -> None:
        now = self.sim.now
        outcomes = {}
        for sta_id, seqs in taken.items():
            ru_index, mcs, bps = plan[sta_id]
            sta = self.by_id[sta_id]
            if sta.power.dozing:
                outcomes[sta_id] = (NO_SEQS, seqs)
                continue
            part = next(p for p in tx.ru_parts if p.ru_index == ru_index)
            users_on_ru = len(part.users)
            sinr = self.medium.sinr_db(tx, sta_id,
                                       part.power_dbm - 10.0 * math.log10(users_on_ru),
                                       part.bandwidth_hz, part.assignment.position,
                                       ru_index)
            eff = None if sinr is None else sinr + self._rx_gain_db(sta, users_on_ru)
            outcomes[sta_id] = self.mpdu_outcomes(sta.flow, seqs, eff, mcs)
        responders = [s for s, (survivors, _) in outcomes.items() if len(survivors)]
        if not responders:
            for sta_id in outcomes:
                self.by_id[sta_id].flow.requeue(taken[sta_id])
            self.sim.after(EIFS, lambda: self._finish_txop(txop, success=False))
            return
        txop.any_data = True
        start = now + SIFS
        solicited = frozenset(responders)
        ba_txs = []
        for sta_id in responders:
            ru_index = plan[sta_id][0]
            partners = tuple(s for s in responders
                             if s != sta_id and plan[s][0] == ru_index)
            ba = self._he_tb(txop, self.by_id[sta_id], ru_index, start,
                             start + ba_on_ru_ns, tx.round_id, solicited, partners)
            ba_txs.append((sta_id, ba))
        self.sim.at(start + ba_on_ru_ns,
                    lambda: self._dl_ba_done(txop, taken, outcomes, ba_txs))

    def _dl_ba_done(self, txop: Txop, taken, outcomes, ba_txs) -> None:
        acked = set()
        for sta_id, ba in ba_txs:
            if self.mcs0_decodes(self._ru_sinr(ba), frames.BA_BYTES):
                acked.add(sta_id)
        for sta_id, (_, failed) in outcomes.items():
            self.by_id[sta_id].flow.requeue(failed if sta_id in acked
                                            else taken[sta_id])
        if not acked:
            self.sim.after(EIFS, lambda: self._finish_txop(txop, success=False))
            return
        self.sim.after(SIFS, lambda: self._dl_round(txop))


# --- run assembly ------------------------------------------------------------------------------

# Node pairs per block of the loss-matrix build.  A block holds whole rows of
# the upper triangle, so its temporaries stay bounded whatever the node
# count.  Freed temporaries stay resident in the allocator's heap; on the
# full-scale 1,235-node outdoor scenario blocks of 2**15 pairs raised a
# process's peak RSS over repeated runs by 3.4 MiB and blocks of 2**12 by
# 0.5 MiB, with no measurable difference in set-up time.
LOSS_BLOCK_PAIRS = 1 << 12


def loss_matrix(x: np.ndarray, y: np.ndarray, model: phy.PathLossModel,
                frequency_ghz: float, shadowing: RngStream) -> np.ndarray:
    """Symmetric loss in dB between the nodes at (`x`, `y`) (row i is the
    node at `x[i]`, `y[i]`), zero on the diagonal.

    Pairs i < j are taken row by row, so each pair's shadowing term is the
    draw a loop over i, then j, calling `shadowing.gauss` once per pair
    would give it; with zero sigma the stream is not drawn from.
    """
    n = len(x)
    sigma = model.shadowing_sigma_db
    loss = np.zeros((n, n))
    counts = np.arange(n - 1, 0, -1)          # pairs in row i: n - 1 - i
    row_end = np.cumsum(counts)               # pairs up to the end of row i
    first = 0
    while first < n - 1:
        # whole rows from `first` while their pairs fit; at least one row
        budget = row_end[first] - counts[first] + LOSS_BLOCK_PAIRS
        stop = max(first + 1, int(np.searchsorted(row_end, budget, "right")))
        rows = np.arange(first, stop)
        per_row = counts[first:stop]
        offsets = np.cumsum(per_row) - per_row
        ii = np.repeat(rows, per_row)
        # the k-th pair of the block in row i is (i, i + 1 + k - offset of row i)
        jj = np.arange(len(ii)) + np.repeat(rows + 1 - offsets, per_row)
        d = np.hypot(x.take(ii) - x.take(jj), y.take(ii) - y.take(jj))
        shadow = shadowing.gauss_array(len(d), sigma) if sigma > 0 else 0.0
        value = model.loss_db(d, frequency_ghz, shadow)
        loss[ii, jj] = value
        loss[jj, ii] = value
        first = stop
    return loss


class Reach(NamedTuple):
    """What every frame of one transmitter at one power per subchannel, in
    one colour, does at the nodes that hear it (`RunContext.reach`).  Its
    arrays run over the hearers only, none over all nodes."""

    hearers: np.ndarray     # node ids at or above CCA, ascending; never the transmitter
    blocked: np.ndarray     # the node ids of the hearers the frame blocks
    # (node ids, SR power caps) of the hearers whose power it caps; None for none
    caps: tuple[np.ndarray, np.ndarray] | None
    # with spatial reuse, per hearer: whether the frame is intra-BSS there,
    # and whether a readable frame loads a NAV there (None without)
    intra: np.ndarray | None
    keep: np.ndarray | None


class RunContext:
    """Builds nodes, loss matrix (dB) and engines for one (scenario, scheme)
    run."""

    def __init__(self, cfg: ScenarioConfig, scheme: Scheme,
                 intra_ppdu_doze: bool = False):
        from . import topo
        self.cfg = cfg
        self.scheme = Scheme(scheme)
        self.features = scheme_features(scheme)
        self.sim = Simulator()
        self.rng = RngSet(cfg.seed)
        self.per_model = phy.PerModel(cfg.phy)
        self.intra_ppdu_doze = intra_ppdu_doze
        self.subchannels = frozenset(range(cfg.bandwidth_mhz // 20))

        generate = {INDOOR_SINGLE: topo.gen_indoor_single,
                    OUTDOOR_SINGLE: topo.gen_outdoor_single,
                    INDOOR_MULTI: topo.gen_indoor_multi,
                    OUTDOOR_MULTI: topo.gen_outdoor_multi}[cfg.kind]
        topology = self.topology = generate(self.rng.stream("placement"), cfg)

        n = len(topology.placements)
        self.loss_db = loss_matrix(
            np.array([p.x for p in topology.placements]),
            np.array([p.y for p in topology.placements]),
            phy.PathLossModel(cfg.phy), cfg.radio.frequency_ghz,
            self.rng.stream("shadowing"))
        self.medium = Medium(self.sim, self.loss_db, cfg.radio.noise_figure_db)
        self._round_counter = 0
        # carrier sense: per node, how many sensed frames block it (kept
        # only while a contender is active; _busy_counted turns False when
        # it lapses, and the next read counts again), and the carrier state
        # they give, None until the first read after a change
        self.busy_count = np.zeros(n, dtype=np.int32)
        self._busy_counted = True
        self._cs_state: tuple[np.ndarray, Caps | None] | None = None
        # every frame's reach, by (transmitter, power per subchannel, colour),
        # filled as frames are sensed and heard
        self.reaches: dict[tuple[int, float, int | None], Reach] = {}

        self.nodes: dict[int, SimNode] = {}
        self.stats: dict[int, FlowStats] = {}
        self.engines: list[BssEngine] = []
        engine_cls = AcBssEngine if not self.features.ofdma else AxBssEngine
        for bss_id in sorted({p.bss_id for p in topology.placements}):
            members = topology.of_bss(bss_id)
            ap_p = next(p for p in members if p.is_ap)
            color = topology.colors[bss_id]
            ap = SimNode(ap_p.node_id, bss_id, True,
                         cfg.radio.ap_tx_power_dbm, cfg.radio.ap_antennas, color)
            stas = [SimNode(p.node_id, bss_id, False,
                            cfg.radio.sta_tx_power_dbm, cfg.radio.sta_antennas,
                            color)
                    for p in members if not p.is_ap]
            for node in [ap] + stas:
                self.nodes[node.node_id] = node
            engine = engine_cls(self, bss_id, ap, stas)
            engine.attach_flows()
            self.engines.append(engine)
        # per node, indexed by node id: its colour, and the loss of its BSS's
        # worst AP-STA link
        self.colors = np.array([self.nodes[i].color for i in range(n)])
        worst = {e.bss_id: max(float(self.loss_db[e.ap.node_id, s.node_id])
                               for s in e.stas)
                 for e in self.engines}
        self.worst_loss = np.array([worst[self.nodes[i].bss_id] for i in range(n)])
        # virtual carrier sense per node, indexed by node id: both NAVs, and
        # the EIFS deferral after an unreadable frame
        self.nav = TwoNav(n)
        self.eifs_until_ns = np.zeros(n, dtype=np.int64)
        self.contention = Contender(self, n)
        self.medium.listeners.append(self._dispatch_air)

    def _dispatch_air(self, event: str, tx: Transmission) -> None:
        if 0 in tx.subchannels:     # the medium's sensed list changed
            self._cs_state = None
            if not self.contention.n_active:
                self._busy_counted = False
            elif self._busy_counted:
                self.busy_count[self.reach(tx).blocked] += 1 if event == "start" else -1
        if event == "end":
            self._nav_pass(tx)
        elif self.intra_ppdu_doze and tx.kind in ("ampdu", "he-mu", "he-tb"):
            for engine in self.engines:
                engine.on_air(tx)
        # every active contender follows its node's carrier state, read once
        # per medium change
        if self.contention.n_active:
            self.contention.on_medium_change(self.engines[0].cs_state()[0])

    def classify(self, node: SimNode, tx: Transmission) -> str:
        """Intra- or inter-BSS, as node classifies the frame tx: by BSS
        colour, which every HE PPDU carries; a VHT PPDU has none."""
        if not self.features.ofdma:
            return INTRA_BSS
        return spatial.classify_frame(tx.color, node.color)

    # --- carrier sense and NAV, over all nodes at once -----------------------------------

    def reach(self, tx: Transmission) -> Reach:
        """The reach of tx, which it shares with every frame of its key
        (transmitter, power per subchannel, colour): the key fixes tx's
        received power at every node and the colour rule, and every other
        input (CCA, the OBSS_PD levels, worst_loss, the MCS0 threshold, the
        noise) is fixed for the run.  Worked out from the link budget the
        first time its key is read; tx keeps it from its first read on.

        A frame below CCA neither blocks nor caps.  Above it, an intra-BSS
        frame blocks; with spatial reuse, an inter-BSS one (another colour;
        the engines' frames always carry a colour, never 0) instead caps the
        power at the OBSS_PD boundary of spatial.max_sr_tx_power.  It blocks
        if no cap exists, if the cap is under MIN_SR_TXPWR_DBM, or if the
        capped power cannot close the node's BSS's worst link at the lowest
        MCS.  In the NAV pass, a readable inter-BSS frame under the OBSS_PD
        maximum loads no NAV (`keep`): some reduced transmit power clears its
        OBSS_PD level.
        """
        if tx.reach is not None:
            return tx.reach
        key = (tx.tx_node, tx.power_per_subchannel_dbm(), tx.color)
        reach = self.reaches.get(key)
        if reach is None:
            p = tx.power_per_subchannel_dbm() - self.loss_db[tx.tx_node]
            hears = p >= self.cfg.phy.cca_threshold_dbm
            hears[tx.tx_node] = False
            hearers = np.flatnonzero(hears)
            if not self.features.spatial_reuse:
                reach = Reach(hearers, hearers, None, None, None)
            else:
                # The cap is the power at which the OBSS_PD level, min + (ref -
                # txpwr) clamped to [min, max], meets the sensed level: the
                # largest power at which the node may ignore the frame.
                p = p[hearers]
                allowed = spatial.max_sr_tx_power_row(p, self.cfg.sr)
                snr = allowed - self.worst_loss[hearers] \
                    - phy.noise_dbm(20e6, self.cfg.radio.noise_figure_db)
                intra = spatial.intra_bss(tx.color, self.colors[hearers])
                # where no cap exists allowed is NaN, every comparison with
                # it is False, and the frame blocks
                capped = ~intra & (allowed >= MIN_SR_TXPWR_DBM) \
                    & (snr >= self.per_model.thresholds_db[0])
                caps = (hearers[capped], allowed[capped]) if capped.any() else None
                reach = Reach(hearers, hearers[~capped], caps, intra,
                              intra | (p >= self.cfg.sr.obss_pd_max_dbm))
            self.reaches[key] = reach
        tx.reach = reach
        return reach

    def carrier_state(self, sensed: list[Transmission]) -> tuple[np.ndarray, Caps | None]:
        """(blocked, caps) for the medium's list of sensed frames: a node is
        blocked if any frame blocks it; caps are the (node ids, caps) pairs
        of the reaches of the frames that cap some node, None for none, and
        contention.cap_at reads a node's SR power cap from them when its
        attempt fires.

        busy_count holds, per node, how many frames of the list block it:
        while a contender is active, a frame adds one at the nodes it blocks
        at its start and takes it away at its end, and an exact integer count
        needs no rebuild.  While none is, no frame changes it, and the first
        read after counts the list again.  Either way every sensed frame
        holds its reach once counted.

        What a frame blocks and caps comes from its reach, one per
        (transmitter, power per subchannel, colour) for the whole run, whose
        arrays run over the hearers only; a frame carries no array over all
        nodes but the slab's mW row its interference sums read."""
        if self._cs_state is None:
            if not self._busy_counted:
                self.busy_count.fill(0)
                for tx in sensed:
                    self.busy_count[self.reach(tx).blocked] += 1
                self._busy_counted = True
            caps = None
            if self.features.spatial_reuse:
                caps = tuple(tx.reach.caps for tx in sensed
                             if tx.reach.caps is not None) or None
            self._cs_state = (self.busy_count > 0, caps)
        return self._cs_state

    def _nav_pass(self, tx: Transmission) -> None:
        """NAV and EIFS updates at every node that hears a frame end: the
        hearers of its reach."""
        if tx.nav_duration_ns <= 0 and tx.kind != "cf-end":
            return
        reach = self.reach(tx)
        hearing = reach.hearers
        if not len(hearing):
            return
        _, sinr = self.medium.nav_sinr_vector(tx, hearing)
        now = self.sim.now
        # an unreadable frame sets no reservation but an EIFS deferral; a
        # corrupted one reads -inf everywhere, so is unreadable at every node.
        # An unreadable CF-End defers too: EIFS follows any frame received in
        # error (IEEE 802.11-2020, 10.3.2.3.7), whatever kind it would have been
        readable = sinr >= self.per_model.thresholds_db[0]
        if self.intra_ppdu_doze:        # a dozing node neither reads nor defers
            awake = np.array([not self.nodes[i].power.dozing for i in hearing.tolist()],
                             dtype=bool)
            self.eifs_until_ns[hearing[awake & ~readable]] = now + (EIFS - DIFS)
            readable &= awake
        else:
            self.eifs_until_ns[hearing[~readable]] = now + (EIFS - DIFS)
        is_cf_end = tx.kind == "cf-end"
        if not self.features.spatial_reuse:     # legacy single NAV: all intra-BSS
            self.nav.load_intra(hearing[readable], now + tx.nav_duration_ns,
                                is_cf_end=is_cf_end)
        else:
            keep = readable & reach.keep
            self.nav.update(hearing[keep], reach.intra[keep], now, tx.nav_duration_ns,
                            is_cf_end=is_cf_end)

    def loss(self, a: SimNode, b: SimNode) -> float:
        return float(self.loss_db[a.node_id, b.node_id])

    def new_round(self) -> int:
        self._round_counter += 1
        return self._round_counter

    def deliver(self, flow: CbrFlow, seqs: np.ndarray) -> None:
        now = self.sim.now
        self.stats[flow.flow_id].on_delivery(flow, seqs, now,
                                             now >= self.cfg.warmup_ns)

    def run(self) -> dict[int, FlowStats]:
        for engine in self.engines:
            engine.kick()
        self.sim.run_until(self.cfg.duration_ns)
        for node in self.nodes.values():
            node.power.finish(self.cfg.duration_ns)
        return self.stats

    def close(self) -> None:
        """Break the run's reference cycles, so that its memory goes with its
        last reference instead of waiting for the cyclic collector: the
        events left in the queue hold closures over the engines and frames,
        and the engines, the contender and the medium's listener point back
        at the context.  What the context holds stays readable but for its
        reaches, which only the run reads; the engines and the contender no
        longer reach it."""
        self.sim.drop_pending()
        self.medium.listeners.clear()
        self.reaches.clear()
        for engine in self.engines:
            del engine.ctx
        del self.contention.ctx
