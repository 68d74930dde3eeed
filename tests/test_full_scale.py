"""Default-scale runs that used to fail: the full 2,080-node ``indoor_multi``
layout under HE schemes, for as long as it takes each defect to show."""

from __future__ import annotations

from axsim import runner
from axsim.config import default_config


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
