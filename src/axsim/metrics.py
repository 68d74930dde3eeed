"""Run output: per-STA/per-BSS/aggregate throughput, 5th percentile, delay,
error ratio, per-node energy, CDF export."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile_low(values: list[float], fraction: float) -> float:
    """Percentile by sorted index (lower method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[k]


@dataclass
class EnergyRow:
    node: int
    awake_s: float
    doze_s: float
    energy_units: float


@dataclass
class MetricsReport:
    kind: str
    scheme: str
    bandwidth_mhz: int
    direction: str
    offered_mbps_per_sta: float
    per_sta_bps: dict[int, float]
    bss_of_sta: dict[int, int]
    mean_delay_ms: float
    per: float
    energy: list[EnergyRow] = field(default_factory=list)

    # Sums are correctly rounded (math.fsum), so they do not depend on the
    # order of their terms, and check's equalities hold on correct runs.

    @property
    def per_bss_bps(self) -> dict[int, float]:
        groups: dict[int, list[float]] = {}
        for sta, bps in self.per_sta_bps.items():
            groups.setdefault(self.bss_of_sta[sta], []).append(bps)
        return {bss: math.fsum(values) for bss, values in groups.items()}

    @property
    def aggregate_bps(self) -> float:
        return math.fsum(self.per_sta_bps.values())

    @property
    def p5_bps(self) -> float:
        return percentile_low(list(self.per_sta_bps.values()), 0.05)

    def cdf(self) -> list[tuple[float, float]]:
        """Monotone (throughput, cumulative fraction) pairs over STAs."""
        ordered = sorted(self.per_sta_bps.values())
        n = len(ordered)
        return [(v, (i + 1) / n) for i, v in enumerate(ordered)]

    def check(self) -> None:
        assert abs(self.aggregate_bps - math.fsum(self.per_bss_bps.values())) < 1e-6
        assert abs(self.aggregate_bps - math.fsum(self.per_sta_bps.values())) < 1e-6
