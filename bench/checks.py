"""Output checks and the digest of simulated results.

The checks raise rather than ``assert``, so ``python -O`` keeps them.
"""

from __future__ import annotations

import hashlib
import json
import math

from axsim import runner
from axsim.config import ScenarioConfig
from axsim.metrics import MetricsReport


class CheckFailed(Exception):
    """A run's report breaks an invariant every correct run keeps."""


def check_report(report: MetricsReport, cfg: ScenarioConfig) -> None:
    problems = []
    aggregate = report.aggregate_bps
    bss_sum = sum(report.per_bss_bps.values())
    if not math.isclose(aggregate, bss_sum, rel_tol=1e-9, abs_tol=1e-6):
        problems.append(f"aggregate {aggregate} != per-BSS sum {bss_sum}")
    # Packets queued during warm-up are delivered inside the measurement
    # window, so a STA's window rate is bounded by what its source offered
    # over the whole run: a CBR source has emitted at most rate * duration
    # bits plus the packet at time zero.
    window_s = cfg.duration_s * (1 - cfg.warmup_fraction)
    offered_bits = cfg.per_sta_rate_mbps * 1e6 * cfg.duration_s \
        + 8 * cfg.packet_bytes
    for sta, bps in report.per_sta_bps.items():
        if not 0 <= bps * window_s <= offered_bits * (1 + 1e-9):
            problems.append(f"STA {sta} delivered {bps * window_s:.0f} bits, "
                            f"offered at most {offered_bits:.0f}")
    if not 0 <= report.per <= 1:
        problems.append(f"PER {report.per} outside [0, 1]")
    if not aggregate > 0:
        problems.append("the run delivered nothing")
    if problems:
        raise CheckFailed("; ".join(problems))


def digest(report: MetricsReport) -> str:
    """Hash of the simulated result row; equal inputs must give equal digests."""
    row = json.dumps(runner.report_row(report), sort_keys=True)
    return hashlib.sha256(row.encode()).hexdigest()[:16]
