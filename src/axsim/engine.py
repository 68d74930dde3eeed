"""Event-driven MAC engines wiring scheme behaviour onto the shared medium:
EDCA contention, the single-user TXOP exchange, and the AP-driven MU rounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import frames, mu, phy, ru, spatial
from .baseline import BackoffState, Txop
from .config import DL, UL, ScenarioConfig, Scheme, scheme_features
from .core import DIFS, SIFS, SLOT_TIME, US, RngSet, Simulator
from .frames import Mpdu
from .medium import Medium, RuPart, Transmission
from .power import PowerState, intra_ppdu_doze
from .spatial import INTER_BSS, INTRA_BSS, ObssPdConfig, TwoNav

EIFS = SIFS + 44 * US + DIFS          # SIFS + legacy ACK airtime + DIFS

VHT_DATA_SUBCARRIERS = {20: 52, 40: 108, 80: 234, 160: 468}

# Default trigger-scheduler granularity: 242-tone RUs once the band allows
# them; the 20 MHz channel is split three ways (two 106s around the centre
# 26), which also keeps 1024-QAM out of sub-242 RUs.
SCHEDULER_TONE_PLAN = {20: (106, 106, 26), 40: (242, 242),
                       80: (242,) * 4, 160: (242,) * 8}

MIN_SR_TXPWR_DBM = -10.0


class CbrFlow:
    """Constant-bit-rate source evaluated lazily: queue depth is a function of
    time, so arrivals need no events.  Failed MPDUs return to the front."""

    def __init__(self, flow_id: int, rate_bps: float, packet_bytes: int,
                 phase_ns: int, destination: int):
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.packet_bytes = packet_bytes
        self.phase_ns = phase_ns
        self.destination = destination
        self.interval_ns = (math.inf if rate_bps <= 0
                            else 8 * packet_bytes * 1e9 / rate_bps)
        self._next_seq = 0
        self.retry: list[Mpdu] = []

    def arrivals_by(self, now_ns: int) -> int:
        if self.interval_ns == math.inf:
            return 0
        if now_ns < self.phase_ns:
            return 0
        return int((now_ns - self.phase_ns) // self.interval_ns) + 1

    def backlog_count(self, now_ns: int) -> int:
        return len(self.retry) + (self.arrivals_by(now_ns) - self._next_seq)

    def backlog_bytes(self, now_ns: int) -> int:
        return self.backlog_count(now_ns) * self.packet_bytes

    def take(self, now_ns: int, n: int) -> list[Mpdu]:
        out = self.retry[:n]
        del self.retry[:len(out)]
        fresh_available = self.arrivals_by(now_ns) - self._next_seq
        for _ in range(min(n - len(out), fresh_available)):
            arrival = round(self.phase_ns + self._next_seq * self.interval_ns)
            out.append(Mpdu(self.destination, self.packet_bytes,
                            self._next_seq, arrival))
            self._next_seq += 1
        return out

    def requeue(self, mpdus: list[Mpdu]) -> None:
        self.retry = list(mpdus) + self.retry


@dataclass
class FlowStats:
    delivered_bytes: int = 0
    delivered_pkts: int = 0
    delay_sum_ns: int = 0
    mpdu_attempts: int = 0
    mpdu_failures: int = 0
    seen_seqs: set = field(default_factory=set)

    def on_delivery(self, mpdu: Mpdu, now_ns: int, in_window: bool) -> None:
        if mpdu.seq in self.seen_seqs:
            return
        self.seen_seqs.add(mpdu.seq)
        if in_window:
            self.delivered_bytes += mpdu.payload_bytes
            self.delivered_pkts += 1
            self.delay_sum_ns += now_ns - mpdu.enqueued_ns


@dataclass
class SimNode:
    node_id: int
    bss_id: int
    is_ap: bool
    pos: tuple[float, float]
    tx_power_dbm: float
    antennas: int
    color: int
    nav: TwoNav = field(default_factory=TwoNav)
    power: PowerState = field(default_factory=PowerState)
    backoff: BackoffState | None = None
    flow: CbrFlow | None = None               # UL traffic (STA side)
    obo: mu.OboState | None = None
    sr_cap_dbm: float | None = None           # power cap for an SR-won TXOP
    in_txop: bool = False                     # holder side of a running exchange
    eifs_until_ns: int = 0                    # EIFS deferral after a corrupt frame


class Contender:
    """Arms and freezes one node's EDCA attempt around medium transitions."""

    def __init__(self, engine: "BssEngine", node: SimNode, aifs_ns: int):
        self.engine = engine
        self.node = node
        self.aifs_ns = aifs_ns
        self.gen = 0
        self.pending = False        # an attempt event is armed
        self.counter: int | None = None
        self.armed_at = 0
        self.active = False         # node currently wants the channel

    def start(self) -> None:
        if self.active or self.node.in_txop:
            return
        self.active = True
        if self.counter is None:
            self.counter = self.node.backoff.draw(self.engine.rng_backoff)
        self._try_arm()

    def stop(self) -> None:
        self.active = False
        self.pending = False
        self.gen += 1

    def redraw(self, success: bool) -> None:
        if success:
            self.node.backoff.on_success()
        else:
            self.node.backoff.on_failure()
        self.counter = self.node.backoff.draw(self.engine.rng_backoff)

    def _try_arm(self) -> None:
        sim = self.engine.sim
        blocked, cap = self.engine.cs_state(self.node)
        if blocked:
            return
        nav_free = max(self.node.nav.intra_expiry_ns, self.node.nav.basic_expiry_ns)
        start = max(sim.now, nav_free, self.node.eifs_until_ns)
        self.node.sr_cap_dbm = cap
        self.gen += 1
        self.pending = True
        self.armed_at = start
        fire_at = start + self.aifs_ns + self.counter * SLOT_TIME
        gen = self.gen
        sim.at(fire_at, "backoff-attempt", self.node.node_id,
               lambda: self._fire(gen))

    def _fire(self, gen: int) -> None:
        if gen != self.gen or not self.active:
            return
        self.pending = False
        blocked, cap = self.engine.cs_state(self.node)
        if blocked or not self.node.nav.idle(self.engine.sim.now):
            self._try_arm()
            return
        self.node.sr_cap_dbm = cap
        self.counter = None
        self.active = False
        self.engine.on_backoff_complete(self.node)

    def on_medium_change(self) -> None:
        if not self.active:
            return
        blocked, _ = self.engine.cs_state(self.node)
        if blocked and self.pending:
            elapsed = self.engine.sim.now - (self.armed_at + self.aifs_ns)
            if elapsed > 0 and self.counter:
                self.counter = max(0, self.counter - elapsed // SLOT_TIME)
            self.pending = False
            self.gen += 1
        elif not blocked and not self.pending:
            self._try_arm()


class BssEngine:
    """State and frame handling shared by both scheme engines."""

    def __init__(self, ctx: "RunContext", bss_id: int, ap: SimNode,
                 stas: list[SimNode]):
        self.ctx = ctx
        self.bss_id = bss_id
        self.ap = ap
        self.stas = stas
        self.nodes = [ap] + stas
        self.by_id = {n.node_id: n for n in self.nodes}
        self.sim = ctx.sim
        self.medium = ctx.medium
        self.cfg = ctx.cfg
        self.features = ctx.features
        self.rng_backoff = ctx.rng.stream(f"backoff-{bss_id}")
        self.rng_per = ctx.rng.stream(f"per-{bss_id}")
        self.rng_sched = ctx.rng.stream(f"sched-{bss_id}")
        self.rng_uora = ctx.rng.stream(f"uora-{bss_id}")
        self.contenders: dict[int, Contender] = {}
        self.dl_flows: dict[int, CbrFlow] = {}

    # --- carrier sensing / doze ----------------------------------------------------

    def cs_state(self, node: SimNode) -> tuple[bool, float | None]:
        """(blocked, SR power cap) from the frames the medium senses now; see
        RunContext.carrier_state for the rule."""
        sensed = self.medium.sensed(self.sim.now)
        if not sensed:
            return False, None
        blocked, cap = self.ctx.carrier_state(sensed)
        i = node.node_id
        if blocked[i]:
            return True, None
        if cap is None or cap[i] == np.inf:
            return False, None
        return False, float(cap[i])

    def on_air(self, event: str, tx: Transmission) -> None:
        if self.ctx.intra_ppdu_doze and event == "start" and \
                tx.kind in ("ampdu", "he-mu", "he-tb"):
            self._doze_phase(tx)
        for contender in self.contenders.values():
            contender.on_medium_change()

    def _doze_phase(self, tx: Transmission) -> None:
        for node in self.stas:
            if node.node_id == tx.tx_node or node.node_id in tx.involves:
                continue
            if node.power.dozing:
                continue
            cls = self.ctx.classify(node, tx)
            wake_at = None
            if tx.rx_dbm[node.node_id] >= self.cfg.phy.cca_threshold_dbm:
                wake_at = intra_ppdu_doze(node.power, self.sim.now, cls,
                                          involves_me=False, ppdu_end_ns=tx.end_ns)
            if wake_at is not None:
                self.sim.at(wake_at, "doze-wake", node.node_id,
                            lambda n=node: n.power.wake(self.sim.now))

    # --- transmit helpers -------------------------------------------------------------

    def node_power(self, node: SimNode) -> float:
        cap = node.sr_cap_dbm
        if not node.is_ap and self.ap.sr_cap_dbm is not None:
            # triggered STAs follow the AP's spatial-reuse power control
            cap = self.ap.sr_cap_dbm if cap is None else min(cap, self.ap.sr_cap_dbm)
        if cap is None:
            return node.tx_power_dbm
        return min(node.tx_power_dbm, cap)

    def send_control(self, node: SimNode, kind: str, n_bytes: int,
                     start_ns: int, nav_ns: int, involves=frozenset(),
                     round_id: int = -1, payload=None) -> Transmission:
        duration = frames.legacy_frame_duration_ns(n_bytes)
        node.power.mark_tx(self.sim.now, max(0, start_ns - self.sim.now) + duration)
        tx = Transmission(
            0, node.node_id, self.bss_id, kind, start_ns, start_ns + duration,
            self.ctx.subchannels, self.node_power(node), color=node.color,
            round_id=round_id, nav_duration_ns=nav_ns,
            involves=frozenset(involves), payload=payload)
        return tx

    def control_decodes(self, tx: Transmission, node: SimNode, n_bytes: int) -> bool:
        if node.power.dozing:
            return False
        desired = self.medium.rx_power_dbm(
            tx.tx_node, node.node_id, tx.power_per_subchannel_dbm())
        return self.mcs0_decodes(
            self.medium.sinr_db(tx, node.node_id, desired, 20e6, 0), n_bytes)

    def mcs0_decodes(self, sinr: float | None, n_bytes: int) -> bool:
        """One rng_per draw against the MCS0 PER of an n_bytes frame; a hard
        corruption (sinr None) fails without a draw."""
        if sinr is None:
            return False
        p_err = self.ctx.per_model.per(sinr, phy.Mcs(0), 8 * n_bytes)
        return self.rng_per.random() >= p_err

    def mpdu_outcomes(self, flow: CbrFlow, mpdus: list[Mpdu], eff_sinr: float | None,
                      mcs: phy.Mcs) -> tuple[list[Mpdu], list[Mpdu]]:
        """Per-MPDU PER draws from rng_per in order, delivering each survivor;
        returns (survivors, failed).  A hard corruption (eff_sinr None) fails
        every MPDU without a draw."""
        stats = self.ctx.stats[flow.flow_id]
        stats.mpdu_attempts += len(mpdus)
        if eff_sinr is None:
            stats.mpdu_failures += len(mpdus)
            return [], list(mpdus)
        survivors: list[Mpdu] = []
        failed: list[Mpdu] = []
        for m in mpdus:
            if self.rng_per.random() >= self.ctx.per_model.per(eff_sinr, mcs,
                                                               m.onair_bits):
                survivors.append(m)
                self.ctx.deliver(flow, m)
            else:
                failed.append(m)
        stats.mpdu_failures += len(failed)
        return survivors, failed

    # --- TXOP end -------------------------------------------------------------------

    def _finish_txop(self, txop: Txop, success: bool) -> None:
        holder = txop.holder
        holder.in_txop = False
        contender = self.contenders[holder.node_id]
        contender.redraw(success)
        if success and txop.deadline_ns - self.sim.now > \
                frames.legacy_frame_duration_ns(frames.CF_END_BYTES):
            cf = self.send_control(holder, "cf-end", frames.CF_END_BYTES,
                                   self.sim.now, nav_ns=0)
            self.medium.transmit(cf)
        if self.has_work(holder):
            contender.start()

    # --- traffic wiring -----------------------------------------------------------------

    def attach_flows(self) -> None:
        rng = self.ctx.rng.stream(f"traffic-{self.bss_id}")
        rate = self.cfg.per_sta_rate_mbps * 1e6
        for sta in self.stas:
            phase = rng.randint(0, max(1, int(8 * self.cfg.packet_bytes * 1e9
                                              / max(rate, 1e-9))))
            if self.cfg.direction == UL:
                sta.flow = CbrFlow(sta.node_id, rate, self.cfg.packet_bytes,
                                   phase, self.ap.node_id)
            else:
                self.dl_flows[sta.node_id] = CbrFlow(
                    sta.node_id, rate, self.cfg.packet_bytes, phase, sta.node_id)
            self.ctx.stats[sta.node_id] = FlowStats()

    def kick(self) -> None:
        raise NotImplementedError

    def has_work(self, node: SimNode) -> bool:
        """Whether node has traffic to contend for once its TXOP ends."""
        raise NotImplementedError

    def on_backoff_complete(self, node: SimNode) -> None:
        raise NotImplementedError


# --- 802.11ac comparison scheme ------------------------------------------------------------

class AcBssEngine(BssEngine):
    """EDCA contention per node; the winner runs an RTS/CTS-protected
    single-user TXOP with aggregate/block-ack rounds."""

    def __init__(self, ctx, bss_id, ap, stas):
        super().__init__(ctx, bss_id, ap, stas)
        self.nss = min(self.cfg.radio.sta_antennas, self.cfg.radio.ap_antennas)
        self.data_ppdu = phy.vht_ppdu(self.nss)

    def kick(self) -> None:
        for node in self.nodes:
            node.backoff = BackoffState(cw_min=self.cfg.mac.cw_min,
                                        cw_max=self.cfg.mac.cw_max)
            self.contenders[node.node_id] = Contender(self, node, DIFS)
        self.sim.at(0, "kick", self.ap.node_id, self._poll_traffic)

    def _poll_traffic(self) -> None:
        now = self.sim.now
        for sta in self.stas:
            if self.cfg.direction == UL and sta.flow.backlog_count(now) > 0:
                self.contenders[sta.node_id].start()
        if self.cfg.direction == DL and any(
                f.backlog_count(now) > 0 for f in self.dl_flows.values()):
            self.contenders[self.ap.node_id].start()
        self.sim.after(self.ctx.poll_interval_ns, "traffic-poll",
                       self.ap.node_id, self._poll_traffic)

    def _link_snr(self, tx_node: SimNode, rx_node: SimNode, power_dbm: float) -> float:
        snr = power_dbm - float(self.ctx.loss(tx_node, rx_node)) \
            - self.ctx.effective_noise_dbm(rx_node, None, self.bss_id)
        return snr + phy.array_gain_db(rx_node.antennas, self.nss)

    def _link(self, tx_node: SimNode, rx_node: SimNode):
        power = self.node_power(tx_node)
        snr = self._link_snr(tx_node, rx_node, power)
        mcs = self.ctx.per_model.select_mcs(snr, ru_tones=0,
                                            target_per=self.cfg.phy.mcs_target_per,
                                            max_index=self.features.max_mcs)
        bps = VHT_DATA_SUBCARRIERS[self.cfg.bandwidth_mhz] * mcs.bits_per_symbol \
            * float(mcs.coding_rate) * self.nss
        return mcs, bps

    def on_backoff_complete(self, holder: SimNode) -> None:
        now = self.sim.now
        if holder.is_ap:
            candidates = [s for s, f in self.dl_flows.items()
                          if f.backlog_count(now) > 0]
            if not candidates:
                return
            peer = self.by_id[self.rng_sched.choice(candidates)]
            flow = self.dl_flows[peer.node_id]
        else:
            peer, flow = self.ap, holder.flow
            if flow.backlog_count(now) == 0:
                return
        holder.in_txop = True
        txop = Txop(holder, now + self.cfg.mac.txop_limit_us * US, peer=peer,
                    flow=flow, link=self._link(holder, peer))
        rts = self.send_control(holder, "rts", frames.RTS_BYTES, now,
                                nav_ns=txop.deadline_ns - now,
                                involves=frozenset({peer.node_id}))
        self.medium.transmit(rts)
        self.sim.at(rts.end_ns, "rts-end", holder.node_id,
                    lambda: self._rts_done(txop, rts))

    def _rts_done(self, txop: Txop, rts) -> None:
        peer = txop.peer
        if self.control_decodes(rts, peer, frames.RTS_BYTES):
            start = self.sim.now + SIFS
            cts = self.send_control(peer, "cts", frames.CTS_BYTES, start,
                                    nav_ns=txop.deadline_ns - start,
                                    involves=frozenset({txop.holder.node_id}))
            self.medium.transmit(cts)
            self.sim.at(cts.end_ns, "cts-end", peer.node_id,
                        lambda: self._cts_done(txop, cts))
        else:
            timeout = self.sim.now + SIFS + \
                frames.legacy_frame_duration_ns(frames.CTS_BYTES) + SLOT_TIME
            self.sim.at(timeout, "cts-timeout", txop.holder.node_id,
                        lambda: self._finish_txop(txop, success=False))

    def _cts_done(self, txop: Txop, cts) -> None:
        if self.control_decodes(cts, txop.holder, frames.CTS_BYTES):
            self._data_round(txop)
        else:
            self._finish_txop(txop, success=False)

    def _data_round(self, txop: Txop) -> None:
        now = self.sim.now
        holder, flow = txop.holder, txop.flow
        mcs, bps = txop.link
        ba_ns = frames.legacy_frame_duration_ns(frames.BA_BYTES)
        budget = txop.deadline_ns - now - 2 * SIFS - ba_ns
        mpdu_bits = Mpdu(0, self.cfg.packet_bytes, 0).onair_bits
        n = frames.mpdus_that_fit(budget, self.data_ppdu, bps, mpdu_bits,
                                  min(self.features.ampdu_cap,
                                      flow.backlog_count(now)), he=False)
        if n < 1:
            self._finish_txop(txop, success=True)
            return
        mpdus = flow.take(now, n)
        start = now + SIFS
        bits = sum(m.onair_bits for m in mpdus)
        duration = frames.data_duration_ns(self.data_ppdu, bits, bps, he=False)
        holder.power.mark_tx(now, start - now + duration)
        tx = Transmission(0, holder.node_id, self.bss_id, "ampdu", start,
                          start + duration, self.ctx.subchannels,
                          self.node_power(holder), color=holder.color,
                          nav_duration_ns=txop.deadline_ns - (start + duration),
                          involves=frozenset({txop.peer.node_id}))
        self.medium.transmit(tx)
        self.sim.at(tx.end_ns, "ampdu-end", holder.node_id,
                    lambda: self._data_done(txop, tx, mpdus, mcs))

    def _data_done(self, txop: Txop, tx, mpdus, mcs) -> None:
        peer = txop.peer
        desired = self.medium.rx_power_dbm(tx.tx_node, peer.node_id, tx.power_dbm)
        band = self.cfg.bandwidth_mhz * 1e6
        sinr = self.medium.sinr_db(tx, peer.node_id, desired, band, 0)
        eff = None
        if sinr is not None and not peer.power.dozing:
            eff = sinr + phy.array_gain_db(peer.antennas, self.nss)
        survivors, failed = self.mpdu_outcomes(txop.flow, mpdus, eff, mcs)
        if not survivors:
            txop.flow.requeue(mpdus)
            self._finish_txop(txop, success=txop.any_data)
            return
        txop.any_data = True
        start = self.sim.now + SIFS
        ba = self.send_control(peer, "ba", frames.BA_BYTES, start,
                               nav_ns=max(0, txop.deadline_ns - start),
                               involves=frozenset({txop.holder.node_id}))
        self.medium.transmit(ba)
        self.sim.at(ba.end_ns, "ba-end", peer.node_id,
                    lambda: self._ba_done(txop, ba, failed, mpdus))

    def _ba_done(self, txop: Txop, ba, failed, sent) -> None:
        if self.control_decodes(ba, txop.holder, frames.BA_BYTES):
            txop.flow.requeue(failed)
            self._data_round(txop)
        else:
            txop.flow.requeue(sent)     # sender cannot confirm anything
            self._finish_txop(txop, success=False)

    def has_work(self, node: SimNode) -> bool:
        now = self.sim.now
        if node.is_ap:
            return any(f.backlog_count(now) > 0 for f in self.dl_flows.values())
        return node.flow.backlog_count(now) > 0


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
        self.nss = min(self.cfg.radio.sta_antennas, self.cfg.radio.ap_antennas)
        self.users_per_ru = 1
        if self.features.ul_mu_mimo:
            self.users_per_ru = max(1, min(2, self.cfg.radio.ap_antennas // self.nss))
        self.mpdu_bits = Mpdu(0, self.cfg.packet_bytes, 0).onair_bits

    def kick(self) -> None:
        self.ap.backoff = BackoffState(cw_min=self.cfg.mac.cw_min,
                                       cw_max=self.cfg.mac.cw_max)
        self.contenders[self.ap.node_id] = Contender(self, self.ap, DIFS)
        for sta in self.stas:
            sta.obo = mu.OboState(ocw_min=self.cfg.mac.ocw_min,
                                  ocw_max=self.cfg.mac.ocw_max)
        self.sim.at(0, "kick", self.ap.node_id, self._poll_traffic)

    def _poll_traffic(self) -> None:
        if self.has_work(self.ap):
            self.contenders[self.ap.node_id].start()
        self.sim.after(self.ctx.poll_interval_ns, "traffic-poll",
                       self.ap.node_id, self._poll_traffic)

    def has_work(self, node: SimNode) -> bool:
        """Only the AP contends; it has work while any flow of the BSS does."""
        now = self.sim.now
        if self.cfg.direction == DL:
            return any(f.backlog_count(now) > 0 for f in self.dl_flows.values())
        return any(s.flow.backlog_count(now) > 0 for s in self.stas)

    # --- link adaptation ---------------------------------------------------------------

    def _ul_mcs(self, sta: SimNode, tones: int, shared: bool) -> tuple[phy.Mcs, float]:
        streams = self.nss * (self.users_per_ru if shared else 1)
        snr = self.node_power(sta) - float(self.ctx.loss(sta, self.ap)) \
            - self.ctx.effective_noise_dbm(self.ap, tones, self.bss_id) \
            + phy.mu_mimo_sinr_adjustment_db(self.ap.antennas, streams, shared,
                                             self.cfg.phy.mu_stream_penalty_db)
        mcs = self.ctx.per_model.select_mcs(snr, tones,
                                            self.cfg.phy.mcs_target_per,
                                            self.features.max_mcs)
        bps = ru.data_subcarriers(tones) * mcs.bits_per_symbol \
            * float(mcs.coding_rate) * self.nss
        return mcs, bps

    def _dl_mcs(self, sta: SimNode, tones: int, n_rus: int,
                users_on_ru: int) -> tuple[phy.Mcs, float]:
        power = mu.dl_power_split_dbm(self.node_power(self.ap), n_rus) \
            - 10.0 * math.log10(users_on_ru)
        shared = users_on_ru > 1
        snr = power - float(self.ctx.loss(self.ap, sta)) \
            - self.ctx.effective_noise_dbm(sta, tones, self.bss_id) \
            + phy.mu_mimo_sinr_adjustment_db(sta.antennas,
                                             self.nss * users_on_ru, shared,
                                             self.cfg.phy.mu_stream_penalty_db)
        mcs = self.ctx.per_model.select_mcs(snr, tones,
                                            self.cfg.phy.mcs_target_per,
                                            self.features.max_mcs)
        bps = ru.data_subcarriers(tones) * mcs.bits_per_symbol \
            * float(mcs.coding_rate) * self.nss
        return mcs, bps

    # --- TXOP structure -----------------------------------------------------------------

    def on_backoff_complete(self, node: SimNode) -> None:
        if not node.is_ap or not self.has_work(node):
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

    def _he_tb(self, sta: SimNode, part: RuPart, start: int, end: int,
               round_id: int, solicited: frozenset[int],
               nav_ns: int = 0) -> Transmission:
        """Put one STA's trigger-based response on the air in its RU.  The
        PPDU involves the AP and every STA the round's trigger solicited, so
        no responder dozes through another's response."""
        sta.power.mark_tx(self.sim.now, end - self.sim.now)
        tx = Transmission(0, sta.node_id, self.bss_id, "he-tb", start, end,
                          part.assignment.subchannels, self.node_power(sta),
                          color=sta.color, round_id=round_id, ru=part,
                          nav_duration_ns=nav_ns,
                          involves=solicited | {self.ap.node_id})
        self.medium.transmit(tx)
        return tx

    def _ru_sinr(self, tx: Transmission, rx: int, desired_dbm: float,
                 co_group: frozenset[int] = frozenset()) -> float | None:
        part = tx.ru
        return self.medium.sinr_db(tx, rx, desired_dbm, part.bandwidth_hz,
                                   part.assignment.position, part.ru_index,
                                   co_group=co_group)

    # --- uplink -----------------------------------------------------------------------------

    def _ul_step(self, txop: Txop) -> None:
        now = self.sim.now
        unknown = [s.node_id for s in self.stas
                   if s.node_id not in self.bsr.known()
                   and s.flow.backlog_count(now) > 0]
        if unknown:
            self.rng_sched.shuffle(unknown)
            self._bsrp_round(txop, unknown)
            return
        self._ul_data_round(txop)

    def _bsrp_round(self, txop: Txop, unknown: list[int]) -> None:
        now = self.sim.now
        polled = unknown[:len(self.layout.rus)]
        users = tuple(mu.TfUser(sta, i) for i, sta in enumerate(polled))
        tf = mu.TriggerFrame(mu.TriggerType.BSRP, self.layout, users)
        tf_bytes = frames.TF_BASE_BYTES + frames.TF_PER_USER_BYTES * len(polled)
        report_ns = max(
            frames.data_duration_ns(phy.HE_TB_PPDU, 8 * frames.BSR_REPORT_BYTES,
                                    ru.data_subcarriers(self.layout.rus[i].tones) * 0.5)
            for i in range(len(polled)))
        total = frames.legacy_frame_duration_ns(tf_bytes) + SIFS + report_ns
        if now + total > txop.deadline_ns:
            self._finish_txop(txop, txop.any_data)
            return
        ctrl = self.send_control(self.ap, "tf-bsrp", tf_bytes, now,
                                 nav_ns=txop.deadline_ns - now,
                                 involves=frozenset(polled), payload=tf)
        self.medium.transmit(ctrl)
        self.sim.at(ctrl.end_ns, "tf-end", self.ap.node_id,
                    lambda: self._bsrp_responses(txop, ctrl, tf, report_ns))

    def _bsrp_responses(self, txop: Txop, ctrl, tf, report_ns) -> None:
        start = self.sim.now + SIFS
        round_id = self.ctx.new_round()
        polled = frozenset(user.aid12 for user in tf.per_user)
        txs = []
        for user in tf.per_user:
            sta = self.by_id[user.aid12]
            if not self.control_decodes(ctrl, sta, frames.TF_BASE_BYTES):
                continue
            part = self._ru_part(user.ru_index, self.node_power(sta))
            txs.append((sta, self._he_tb(sta, part, start, start + report_ns,
                                         round_id, polled)))
        self.sim.at(start + report_ns, "bsrp-end", self.ap.node_id,
                    lambda: self._bsrp_done(txop, txs))

    def _bsrp_done(self, txop: Txop, txs) -> None:
        now = self.sim.now
        for sta, tx in txs:
            desired = self.medium.rx_power_dbm(sta.node_id, self.ap.node_id,
                                               tx.power_dbm)
            if self.mcs0_decodes(self._ru_sinr(tx, self.ap.node_id, desired),
                                 frames.BSR_REPORT_BYTES):
                self.bsr.ingest(sta.node_id, sta.flow.backlog_bytes(now), now)
        # BSRP rounds end without an MBA
        self.sim.after(SIFS, "post-bsrp", self.ap.node_id,
                       lambda: self._ul_data_round(txop))

    def _ul_data_round(self, txop: Txop) -> None:
        now = self.sim.now
        for sta in self.stas:       # drop drained entries before scheduling
            if sta.node_id in self.bsr.known() and \
                    sta.flow.backlog_count(now) == 0:
                self.bsr.ingest(sta.node_id, 0, now)
        tf = mu.build_schedule(self.bsr.backlogged(), self.layout, self.rng_sched,
                               ra_fraction=self.cfg.mac.ra_ru_fraction,
                               users_per_ru=self.users_per_ru,
                               nss_of=lambda sta: self.nss)
        if tf is None:
            self._finish_txop(txop, txop.any_data)
            return
        plan = {}
        max_air = 0
        for user in tf.scheduled_users:
            sta = self.by_id[user.aid12]
            tones = tf.ru_of(user).tones
            shared = len(tf.users_of(user.ru_index)) > 1
            mcs, bps = self._ul_mcs(sta, tones, shared)
            backlog = min(self.features.ampdu_cap, sta.flow.backlog_count(now))
            air = frames.data_duration_ns(phy.HE_TB_PPDU,
                                          backlog * self.mpdu_bits, bps)
            plan[user.aid12] = (user, mcs, bps, shared)
            max_air = max(max_air, air)
        n_users = len(tf.per_user)
        tf_bytes = frames.TF_BASE_BYTES + frames.TF_PER_USER_BYTES * n_users
        overhead = frames.legacy_frame_duration_ns(tf_bytes) + 2 * SIFS \
            + frames.mba_duration_ns(n_users)
        ul_duration = min(txop.deadline_ns - now - overhead, max_air)
        min_air = frames.data_duration_ns(phy.HE_TB_PPDU, self.mpdu_bits,
                                          min(p[2] for p in plan.values())
                                          if plan else 1e9)
        if ul_duration < min_air:
            self._finish_txop(txop, txop.any_data)
            return
        ctrl = self.send_control(self.ap, "tf", tf_bytes, now,
                                 nav_ns=txop.deadline_ns - now,
                                 involves=frozenset(plan), payload=tf)
        self.medium.transmit(ctrl)
        self.sim.at(ctrl.end_ns, "tf-end", self.ap.node_id,
                    lambda: self._ul_data_phase(txop, ctrl, tf, plan, ul_duration))

    def _ul_data_phase(self, txop: Txop, ctrl, tf, plan, ul_duration) -> None:
        now = self.sim.now
        start = now + SIFS
        end = start + ul_duration
        round_id = self.ctx.new_round()
        # random-access RUs solicit every STA of the BSS
        solicited = frozenset(s.node_id for s in self.stas) if tf.ra_ru_indices \
            else frozenset(plan)
        txs = []
        for aid, (user, mcs, bps, shared) in plan.items():
            sta = self.by_id[aid]
            if sta.power.dozing or not self.control_decodes(ctrl, sta, 28):
                continue
            if not sta.nav.idle(now, scheduled_in_intra_tf=True):
                continue
            n = frames.mpdus_that_fit(ul_duration, phy.HE_TB_PPDU, bps,
                                      self.mpdu_bits, self.features.ampdu_cap)
            mpdus = sta.flow.take(now, n)
            if not mpdus:
                continue
            partners = tuple(u.aid12 for u in tf.users_of(user.ru_index)
                             if u.aid12 != aid)
            part = self._ru_part(user.ru_index, self.node_power(sta), partners)
            tx = self._he_tb(sta, part, start, end, round_id, solicited,
                             nav_ns=txop.deadline_ns - end)
            txs.append((sta, tx, mpdus, mcs, shared))
        uora_txs = self._uora_phase(tf, start, end, round_id, solicited)
        self.sim.at(end, "ul-round-end", self.ap.node_id,
                    lambda: self._ul_round_end(txop, txs + uora_txs))

    def _uora_phase(self, tf, start, end, round_id, solicited):
        ra_indices = tf.ra_ru_indices
        if not ra_indices:
            return []
        now = self.sim.now
        scheduled = {u.aid12 for u in tf.scheduled_users}
        eligible = {}
        for sta in self.stas:
            if sta.node_id in scheduled or sta.power.dozing:
                continue
            if sta.flow.backlog_count(now) == 0:
                continue
            ok, sta.obo = mu.uora_update(sta.obo, len(ra_indices), self.rng_uora,
                                         self.cfg.mac.uora_boundary_eligible)
            if ok:
                eligible[sta.node_id] = sta.obo

        def carrier_idle(sta_id: int) -> bool:
            sta = self.by_id[sta_id]
            blocked, _ = self.cs_state(sta)
            return not blocked and sta.nav.idle(now, scheduled_in_intra_tf=True)

        outcomes, updated, transmitted = mu.uora_transmit_phase(
            eligible, len(ra_indices), carrier_idle, self.rng_uora)
        for sta_id, st in updated.items():
            self.by_id[sta_id].obo = st
        txs = []
        for sta_id in transmitted:
            sta = self.by_id[sta_id]
            ru_index = ra_indices[sta.obo.candidate_ru]
            tones = tf.layout.rus[ru_index].tones
            mcs, bps = self._ul_mcs(sta, tones, shared=False)
            n = frames.mpdus_that_fit(end - start, phy.HE_TB_PPDU, bps,
                                      self.mpdu_bits, self.features.ampdu_cap)
            mpdus = sta.flow.take(now, max(1, n))
            part = self._ru_part(ru_index, self.node_power(sta))
            tx = self._he_tb(sta, part, start, end, round_id, solicited)
            txs.append((sta, tx, mpdus, mcs, False))
        return txs

    def _ul_round_end(self, txop: Txop, txs) -> None:
        now = self.sim.now
        decoded = {}
        results = []
        for sta, tx, mpdus, mcs, shared in txs:
            desired = self.medium.rx_power_dbm(sta.node_id, self.ap.node_id,
                                               tx.power_dbm)
            partners = frozenset(tx.ru.users)
            sinr = self._ru_sinr(tx, self.ap.node_id, desired, co_group=partners)
            eff = None
            if sinr is not None:
                streams = self.nss * (len(partners) + 1)
                eff = sinr + phy.mu_mimo_sinr_adjustment_db(
                    self.ap.antennas, streams, shared,
                    self.cfg.phy.mu_stream_penalty_db)
            survivors, failed = self.mpdu_outcomes(sta.flow, mpdus, eff, mcs)
            results.append((sta, mpdus, failed))
            if survivors:
                decoded[sta.node_id] = tuple(m.seq for m in survivors)
                self.bsr.ingest(sta.node_id,
                                sta.flow.backlog_bytes(now), now)
        if not decoded:
            for sta, mpdus, _ in results:
                sta.flow.requeue(mpdus)
            self._finish_txop(txop, success=False)   # channel-access failure
            return
        txop.any_data = True
        start = now + SIFS
        mba_bytes = frames.MBA_BASE_BYTES + frames.MBA_PER_STA_BYTES * len(decoded)
        mba = self.send_control(self.ap, "mba", mba_bytes, start, nav_ns=0,
                                involves=frozenset(decoded),
                                payload=mu.mba_for(decoded))
        self.medium.transmit(mba)
        self.sim.at(mba.end_ns, "mba-end", self.ap.node_id,
                    lambda: self._mba_done(txop, mba, results, decoded))

    def _mba_done(self, txop: Txop, mba, results, decoded) -> None:
        for sta, mpdus, failed in results:
            acked = sta.node_id in decoded and \
                self.control_decodes(mba, sta, frames.MBA_BASE_BYTES)
            sta.flow.requeue(failed if acked else mpdus)
            if sta.obo is not None and sta.obo.obo == 0 and \
                    sta.obo.candidate_ru is not None:
                sta.obo = mu.ocw_on_result(sta.obo, acked)
        self.sim.after(SIFS, "cascade", self.ap.node_id,
                       lambda: self._ul_step(txop))

    # --- downlink ----------------------------------------------------------------------------

    def _dl_round(self, txop: Txop) -> None:
        now = self.sim.now
        # AIDs are 1-based positions in self.stas, ascending as build_schedule
        # expects; node ids would reach the reserved AID 2045 in large layouts
        backlogged = [aid for aid, sta in enumerate(self.stas, 1)
                      if self.dl_flows[sta.node_id].backlog_count(now) > 0]
        tf = mu.build_schedule(backlogged, self.layout, self.rng_sched,
                               users_per_ru=self.users_per_ru,
                               nss_of=lambda aid: self.nss)
        if tf is None:
            self._finish_txop(txop, txop.any_data)
            return
        n_rus = len(self.layout.rus)
        by_ru: dict[int, list[int]] = {}
        for user in tf.per_user:
            by_ru.setdefault(user.ru_index, []).append(
                self.stas[user.aid12 - 1].node_id)
        plan = {}
        max_air = 0
        for ru_index, members in by_ru.items():
            tones = self.layout.rus[ru_index].tones
            for sta_id in members:
                sta = self.by_id[sta_id]
                mcs, bps = self._dl_mcs(sta, tones, n_rus, len(members))
                backlog = min(self.features.ampdu_cap,
                              self.dl_flows[sta_id].backlog_count(now))
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
        per_ru_power = mu.dl_power_split_dbm(self.node_power(self.ap), n_rus)
        parts = []
        taken = {}
        for ru_index, members in by_ru.items():
            served = []
            for sta_id in members:
                bps = plan[sta_id][2]
                n = frames.mpdus_that_fit(dl_duration, phy.HE_MU_PPDU, bps,
                                          self.mpdu_bits, self.features.ampdu_cap)
                mpdus = self.dl_flows[sta_id].take(now, n)
                if mpdus:
                    taken[sta_id] = mpdus
                    served.append(sta_id)
            if served:
                parts.append(self._ru_part(ru_index, per_ru_power, tuple(served)))
        if not taken:
            self._finish_txop(txop, txop.any_data)
            return
        round_id = self.ctx.new_round()
        end = now + dl_duration
        self.ap.power.mark_tx(now, dl_duration)
        tx = Transmission(0, self.ap.node_id, self.bss_id, "he-mu", now, end,
                          self.ctx.subchannels, self.node_power(self.ap),
                          color=self.ap.color, round_id=round_id,
                          ru_parts=tuple(parts),
                          nav_duration_ns=txop.deadline_ns - end,
                          involves=frozenset(taken))
        self.medium.transmit(tx)
        self.sim.at(end, "dl-data-end", self.ap.node_id,
                    lambda: self._dl_data_done(txop, tx, plan, taken, ba_on_ru_ns))

    def _dl_data_done(self, txop: Txop, tx, plan, taken, ba_on_ru_ns) -> None:
        now = self.sim.now
        outcomes = {}
        for sta_id, mpdus in taken.items():
            ru_index, mcs, bps = plan[sta_id]
            sta = self.by_id[sta_id]
            if sta.power.dozing:
                outcomes[sta_id] = ([], mpdus)
                continue
            part = next(p for p in tx.ru_parts if p.ru_index == ru_index)
            users_on_ru = len(part.users)
            desired = self.medium.rx_power_dbm(
                self.ap.node_id, sta_id,
                part.power_dbm - 10.0 * math.log10(users_on_ru))
            sinr = self.medium.sinr_db(tx, sta_id, desired, part.bandwidth_hz,
                                       part.assignment.position, ru_index)
            eff = None
            if sinr is not None:
                eff = sinr + phy.mu_mimo_sinr_adjustment_db(
                    sta.antennas, self.nss * users_on_ru, users_on_ru > 1,
                    self.cfg.phy.mu_stream_penalty_db)
            outcomes[sta_id] = self.mpdu_outcomes(self.dl_flows[sta_id], mpdus,
                                                  eff, mcs)
        responders = [s for s, (survivors, _) in outcomes.items() if survivors]
        if not responders:
            for sta_id in outcomes:
                self.dl_flows[sta_id].requeue(taken[sta_id])
            self.sim.after(EIFS, "eifs-expiry", self.ap.node_id,
                           lambda: self._finish_txop(txop, success=False))
            return
        txop.any_data = True
        start = now + SIFS
        solicited = frozenset(responders)
        ba_txs = []
        for sta_id in responders:
            sta = self.by_id[sta_id]
            ru_index = plan[sta_id][0]
            partners = tuple(s for s in responders
                             if s != sta_id and plan[s][0] == ru_index)
            part = self._ru_part(ru_index, self.node_power(sta), partners)
            ba = self._he_tb(sta, part, start, start + ba_on_ru_ns, tx.round_id,
                             solicited)
            ba_txs.append((sta_id, ba))
        self.sim.at(start + ba_on_ru_ns, "dl-ba-end", self.ap.node_id,
                    lambda: self._dl_ba_done(txop, taken, outcomes, ba_txs))

    def _dl_ba_done(self, txop: Txop, taken, outcomes, ba_txs) -> None:
        acked = set()
        for sta_id, ba in ba_txs:
            desired = self.medium.rx_power_dbm(sta_id, self.ap.node_id,
                                               ba.power_dbm)
            sinr = self._ru_sinr(ba, self.ap.node_id, desired,
                                 co_group=frozenset(ba.ru.users))
            if self.mcs0_decodes(sinr, frames.BA_BYTES):
                acked.add(sta_id)
        for sta_id, (_, failed) in outcomes.items():
            self.dl_flows[sta_id].requeue(failed if sta_id in acked
                                          else taken[sta_id])
        if not acked:
            self.sim.after(EIFS, "eifs-expiry", self.ap.node_id,
                           lambda: self._finish_txop(txop, success=False))
            return
        self.sim.after(SIFS, "cascade", self.ap.node_id,
                       lambda: self._dl_round(txop))


# --- run assembly ------------------------------------------------------------------------------

class RunContext:
    """Builds nodes, gain matrix and engines for one (scenario, scheme) run."""

    def __init__(self, cfg: ScenarioConfig, scheme: Scheme,
                 trace=None, intra_ppdu_doze: bool = False):
        from . import topo
        self.cfg = cfg
        self.scheme = Scheme(scheme)
        self.features = scheme_features(scheme)
        self.sim = Simulator(trace=trace)
        self.rng = RngSet(cfg.seed)
        self.per_model = phy.PerModel(
            thresholds_db={i: cfg.phy.per_threshold_base_db
                           + cfg.phy.per_threshold_step_db * i
                           for i in phy.MCS_TABLE},
            slope_db=cfg.phy.per_slope_db)
        self.obss_cfg = ObssPdConfig(cfg.sr.obss_pd_min_dbm,
                                     cfg.sr.obss_pd_max_dbm,
                                     cfg.sr.txpwr_ref_dbm)
        self.intra_ppdu_doze = intra_ppdu_doze
        self.poll_interval_ns = 20 * 1000 * US
        self.subchannels = frozenset(range(cfg.bandwidth_mhz // 20))

        placement_rng = self.rng.stream("placement")
        kind = cfg.kind
        if kind == "indoor_single":
            topology = topo.gen_indoor_single(placement_rng, cfg.stas_per_bss,
                                              cfg.room_area_m2)
        elif kind == "outdoor_single":
            topology = topo.gen_outdoor_single(placement_rng, cfg.stas_per_bss,
                                               cfg.cell_inradius_m)
        elif kind == "indoor_multi":
            topology = topo.gen_indoor_multi(placement_rng, cfg.n_bss,
                                             cfg.stas_per_bss, cfg.room_area_m2)
        else:
            topology = topo.gen_outdoor_multi(placement_rng, cfg.n_bss,
                                              cfg.stas_per_bss, cfg.ap_spacing_m)
        self.topology = topology

        n = len(topology.placements)
        model = phy.PathLossModel(
            "outdoor" if cfg.outdoor else "indoor",
            cfg.phy.pathloss_near_exponent, cfg.phy.pathloss_far_exponent,
            cfg.phy.pathloss_breakpoint_m, cfg.phy.shadowing_sigma_db)
        shadow_rng = self.rng.stream("shadowing")
        loss = np.zeros((n, n))
        pts = [(p.x, p.y) for p in topology.placements]
        for i in range(n):
            for j in range(i + 1, n):
                shadow = shadow_rng.gauss(0.0, cfg.phy.shadowing_sigma_db) \
                    if cfg.phy.shadowing_sigma_db > 0 else 0.0
                d = math.dist(pts[i], pts[j])
                value = model.loss_db(d, cfg.radio.frequency_ghz, shadow)
                loss[i, j] = loss[j, i] = value
        self.loss_db = loss
        self.medium = Medium(self.sim, loss)
        self._round_counter = 0
        self._cs_sensed: list[Transmission] | None = None
        self._cs_key: tuple[int, ...] = ()
        self._cs_state: tuple[np.ndarray, np.ndarray | None] | None = None

        self.nodes: dict[int, SimNode] = {}
        self.stats: dict[int, FlowStats] = {}
        self.engines: list[BssEngine] = []
        engine_cls = AcBssEngine if not self.features.ofdma else AxBssEngine
        for bss_id in sorted({p.bss_id for p in topology.placements}):
            members = topology.of_bss(bss_id)
            ap_p = next(p for p in members if p.is_ap)
            color = topology.colors[bss_id]
            ap = SimNode(ap_p.node_id, bss_id, True, ap_p.pos,
                         cfg.radio.ap_tx_power_dbm, cfg.radio.ap_antennas, color)
            stas = [SimNode(p.node_id, bss_id, False, p.pos,
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
        worst = {e.bss_id: max(float(loss[e.ap.node_id, s.node_id]) for s in e.stas)
                 for e in self.engines}
        self.worst_loss = np.array([worst[self.nodes[i].bss_id] for i in range(n)])
        self.medium.listeners.append(self._dispatch_air)

    def _dispatch_air(self, event: str, tx: Transmission) -> None:
        if event == "end":
            self._nav_pass(tx)
        for engine in self.engines:
            engine.on_air(event, tx)

    def classify(self, node: SimNode, tx: Transmission) -> str:
        """Intra- or inter-BSS, as node classifies the frame tx."""
        if not self.features.spatial_reuse:
            return INTRA_BSS          # legacy single-NAV behaviour
        sight = spatial.FrameSight(color=tx.color, is_cf_end=tx.kind == "cf-end")
        return spatial.classify_frame(sight, my_bssid=node.bss_id,
                                      my_color=node.color)

    # --- carrier sense and NAV, over all nodes at once -----------------------------------

    def _cs_rows(self, tx: Transmission) -> tuple[np.ndarray, np.ndarray | None]:
        """(blocks, cap) rows of one sensed frame over all nodes: whether the
        frame blocks the node, and the SR power cap it sets (inf for none).

        A frame below CCA neither blocks nor caps.  Above it, an intra-BSS
        frame blocks; with spatial reuse, an inter-BSS one (another colour;
        the engines' frames always carry a colour, never 0) instead caps the
        power at the OBSS_PD boundary of spatial.max_sr_tx_power.  It blocks
        if no cap exists, if the cap is under MIN_SR_TXPWR_DBM, or if the
        capped power cannot close the node's BSS's worst link at the lowest
        MCS.
        """
        # SR deferral does not go through spatial.sr_decision: this caps the
        # power at the OBSS_PD boundary the sensed level allows, while
        # sr_decision tests a given candidate power strictly against it, so
        # the two give different results.
        if tx.cs_rows is None:
            p = tx.rx_dbm
            hears = p >= self.cfg.phy.cca_threshold_dbm
            hears[tx.tx_node] = False
            if not self.features.spatial_reuse:
                tx.cs_rows = (hears, None)
                return tx.cs_rows
            allowed = spatial.max_sr_tx_power_row(p, self.obss_cfg)
            snr = allowed - self.worst_loss - phy.noise_dbm(20e6)
            # where no cap exists allowed is NaN, every comparison with it is
            # False, and the frame blocks
            sr_ok = (self.colors != tx.color) & (allowed >= MIN_SR_TXPWR_DBM) \
                & (snr >= self.per_model.thresholds_db[0])
            tx.cs_rows = (hears & ~sr_ok, np.where(hears & sr_ok, allowed, np.inf))
        return tx.cs_rows

    def carrier_state(self, sensed: list[Transmission]
                      ) -> tuple[np.ndarray, np.ndarray | None]:
        """(blocked, cap) over all nodes for a list of sensed frames: a node is
        blocked if any frame blocks it, else its SR power cap is the lowest
        any frame sets (inf for none; cap is None without spatial reuse)."""
        if sensed is not self._cs_sensed:
            self._cs_sensed = sensed
            key = tuple(tx.tx_id for tx in sensed)
            if key != self._cs_key:
                self._cs_key = key
                rows = [self._cs_rows(tx) for tx in sensed]
                blocked = rows[0][0]
                for b, _ in rows[1:]:
                    blocked = blocked | b
                cap = None
                if self.features.spatial_reuse:
                    cap = rows[0][1]
                    for _, c in rows[1:]:
                        cap = np.minimum(cap, c)
                self._cs_state = (blocked, cap)
        return self._cs_state

    def _nav_pass(self, tx: Transmission) -> None:
        """NAV and EIFS updates at every node that hears a frame end."""
        if tx.nav_duration_ns <= 0 and tx.kind != "cf-end":
            return
        hearing = np.flatnonzero(tx.rx_dbm >= self.cfg.phy.cca_threshold_dbm)
        hearing = hearing[hearing != tx.tx_node]
        if not len(hearing):
            return
        corrupt_all, sinr = self.medium.nav_sinr_vector(tx, hearing)
        readable = sinr >= self.per_model.thresholds_db[0]
        now = self.sim.now
        is_cf_end = tx.kind == "cf-end"
        sr = self.features.spatial_reuse
        class_of: dict[int, str] = {}      # a frame's class depends on colour only
        for k, i in enumerate(hearing.tolist()):
            node = self.nodes[i]
            if node.power.dozing:
                continue
            # a corrupted frame is unreadable: no reservation, EIFS deferral
            if corrupt_all or not readable[k]:
                node.eifs_until_ns = now + (EIFS - DIFS)
                continue
            cls = class_of.get(node.color)
            if cls is None:
                cls = class_of[node.color] = self.classify(node, tx)
            if sr and cls == INTER_BSS and tx.rx_dbm[i] < self.obss_cfg.level_max_dbm:
                # some reduced transmit power clears this frame's OBSS_PD
                # level; skip the basic NAV and control power when contending
                continue
            node.nav.update(cls, now, tx.nav_duration_ns, is_cf_end=is_cf_end)

    def loss(self, a: SimNode, b: SimNode) -> float:
        return float(self.loss_db[a.node_id, b.node_id])

    def new_round(self) -> int:
        self._round_counter += 1
        return self._round_counter

    def effective_noise_dbm(self, rx: SimNode, tones: int | None,
                            own_bss: int) -> float:
        """Noise plus current other-BSS interference in the receiver's band,
        the quantity link adaptation selects MCS against."""
        band = (tones * 78_125.0 if tones is not None
                else self.cfg.bandwidth_mhz * 1e6)
        noise_mw = phy.dbm_to_mw(
            phy.noise_dbm(band, self.cfg.radio.noise_figure_db))
        interference = self.medium.interference_dbm(
            rx.node_id, min(band, 20e6), 0, own_bss, self.sim.now)
        return phy.mw_to_dbm(noise_mw + phy.dbm_to_mw(interference))

    def deliver(self, flow: CbrFlow, mpdu: Mpdu) -> None:
        now = self.sim.now
        self.stats[flow.flow_id].on_delivery(mpdu, now, now >= self.cfg.warmup_ns)

    def run(self) -> dict[int, FlowStats]:
        for engine in self.engines:
            engine.kick()
        self.sim.run_until(self.cfg.duration_ns)
        for node in self.nodes.values():
            node.power.finish(self.cfg.duration_ns)
        return self.stats
