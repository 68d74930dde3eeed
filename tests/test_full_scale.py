"""Default-scale runs: the full 2,080-node ``indoor_multi`` layout under HE
schemes, for as long as it takes each defect that made them fail to show,
and the full 1,235-node ``outdoor_multi`` layout under EDCA contention."""

from __future__ import annotations

from axsim import runner
from axsim.config import default_config
from axsim.engine import RunContext


def test_aggregate_check_holds_on_ofdma_dl():
    # MetricsReport.check compared two plain float sums of about 3e8 bps
    # taken in different orders against a 1e-6 tolerance, and raised here
    cfg = default_config("indoor_multi", direction="dl", duration_s=0.3, seed=1)
    report = runner.run(cfg, "ax_ofdma")
    assert report.aggregate_bps > 0


def test_uplink_schedules_by_aid_not_node_id():
    # with node ids as AID12, STA 2045 was scheduled as AID_UNASSOCIATED, a
    # random-access RU, and build_schedule raised MuMacError
    cfg = default_config("indoor_multi", direction="ul", duration_s=0.05, seed=1)
    report = runner.run(cfg, "ax_sr")
    assert report.aggregate_bps > 0


def test_edca_contention_holds_at_full_scale(monkeypatch):
    # 1,216 STAs contend.  Hardly a packet has arrived at the first traffic
    # poll, at 0, and the next is at 20 ms, so contention runs for the last
    # 10 ms.  The carrier state the contenders follow is the one at the last
    # medium change, a frame's start or end.
    ran = []
    last = {}
    run = RunContext.run

    def running(ctx):
        def note(*_):       # runs after RunContext._dispatch_air
            last["blocked"], _ = ctx.engines[0].cs_state()
        ctx.medium.listeners.append(note)
        ran.append(ctx)
        return run(ctx)

    monkeypatch.setattr(RunContext, "run", running)
    cfg = default_config("outdoor_multi", direction="ul", duration_s=0.03, seed=1)
    report = runner.run(cfg, "ac_baseline")
    assert report.aggregate_bps > 0
    ctx, = ran
    contention = ctx.contention
    assert len(contention.engine_of) == 19 * 64
    assert contention.active.sum() > 1000
    # every active contender is armed exactly when its node is not blocked
    assert not (contention.active & (contention.pending == last["blocked"])).any()
