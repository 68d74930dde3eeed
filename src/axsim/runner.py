"""Experiment driver: single runs, scheme comparisons, rate sweeps, result files."""

from __future__ import annotations

import csv
import dataclasses
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .config import (ConfigError, ScenarioConfig, Scheme, default_config)
from .engine import RunContext
from .metrics import EnergyRow, MetricsReport

RESULT_COLUMNS = ["scenario", "scheme", "bw_mhz", "direction", "offered_mbps",
                  "thpt_mbps", "p5_mbps", "delay_ms", "per", "energy_units"]


def run(cfg: ScenarioConfig, scheme: Scheme | str,
        intra_ppdu_doze: bool = False) -> MetricsReport:
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    ctx = RunContext(cfg, Scheme(scheme), intra_ppdu_doze=intra_ppdu_doze)
    stats = ctx.run()
    window_s = cfg.duration_s * (1 - cfg.warmup_fraction)
    per_sta = {}
    bss_of = {}
    delay_sum = 0
    delivered = 0
    attempts = 0
    failures = 0
    for sta_id, fs in stats.items():
        per_sta[sta_id] = fs.delivered_bytes * 8 / window_s
        bss_of[sta_id] = ctx.nodes[sta_id].bss_id
        delay_sum += fs.delay_sum_ns
        delivered += fs.delivered_pkts
        attempts += fs.mpdu_attempts
        failures += fs.mpdu_failures
    energy = [EnergyRow(nid, node.power.account.awake_ns / 1e9
                        + node.power.account.tx_ns / 1e9,
                        node.power.account.doze_ns / 1e9,
                        node.power.account.energy_units)
              for nid, node in sorted(ctx.nodes.items())]
    report = MetricsReport(
        kind=cfg.kind, scheme=Scheme(scheme).value,
        bandwidth_mhz=cfg.bandwidth_mhz, direction=cfg.direction,
        offered_mbps_per_sta=cfg.per_sta_rate_mbps,
        per_sta_bps=per_sta, bss_of_sta=bss_of,
        mean_delay_ms=(delay_sum / delivered / 1e6) if delivered else 0.0,
        per=(failures / attempts) if attempts else 0.0,
        energy=energy)
    report.check()
    ctx.close()
    return report


def run_averaged(cfg: ScenarioConfig, scheme: Scheme | str,
                 seeds: list[int]) -> float:
    """Seed-averaged aggregate throughput in bits/s."""
    total = 0.0
    for seed in seeds:
        c = dataclasses.replace(cfg, seed=seed)
        total += run(c, scheme).aggregate_bps
    return total / len(seeds)


def compare(cfg: ScenarioConfig, schemes: list[Scheme | str],
            seeds: list[int] | None = None) -> dict[str, float]:
    """Saturation-throughput ratios against the first scheme (= 100%)."""
    seeds = seeds or [cfg.seed]
    values = {Scheme(s).value: run_averaged(cfg, s, seeds) for s in schemes}
    base = values[Scheme(schemes[0]).value]
    return {name: (v / base if base else 0.0) for name, v in values.items()}


@dataclass(frozen=True)
class SweepPoint:
    kind: str
    scheme: str
    bandwidth_mhz: int
    direction: str
    rate_mbps: float
    seed: int


def _sweep_one(args) -> tuple[SweepPoint, dict]:
    point, overrides = args
    cfg = default_config(point.kind, bandwidth_mhz=point.bandwidth_mhz,
                         direction=point.direction,
                         per_sta_rate_mbps=point.rate_mbps, seed=point.seed,
                         **overrides)
    report = run(cfg, point.scheme)
    return point, report_row(report)


def report_row(report: MetricsReport) -> dict:
    total_energy = sum(r.energy_units for r in report.energy)
    return {
        "scenario": report.kind, "scheme": report.scheme,
        "bw_mhz": report.bandwidth_mhz, "direction": report.direction,
        "offered_mbps": report.offered_mbps_per_sta,
        "thpt_mbps": round(report.aggregate_bps / 1e6, 3),
        "p5_mbps": round(report.p5_bps / 1e6, 4),
        "delay_ms": round(report.mean_delay_ms, 3),
        "per": round(report.per, 5),
        "energy_units": round(total_energy, 2),
    }


def sweep(kind: str, schemes: list[str], bandwidths: list[int],
          rates_mbps: list[float], directions: list[str], seeds: list[int],
          workers: int = 1, **overrides) -> list[dict]:
    """Fan runs out across processes; results merge in deterministic key order."""
    points = [(SweepPoint(kind, s, bw, d, r, seed), overrides)
              for s in schemes for bw in bandwidths for d in directions
              for r in rates_mbps for seed in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_sweep_one, points))
    else:
        results = dict(_sweep_one(p) for p in points)
    ordered = sorted(results, key=lambda p: (p.scheme, p.bandwidth_mhz,
                                             p.direction, p.rate_mbps, p.seed))
    return [results[p] for p in ordered]


def write_results_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def write_energy_csv(report: MetricsReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "awake_s", "doze_s", "energy_units"])
        for row in report.energy:
            writer.writerow([row.node, round(row.awake_s, 6),
                             round(row.doze_s, 6), round(row.energy_units, 4)])


def summary_table(ratio_rows: list[tuple[str, dict[str, float]]]) -> str:
    """Text summary with the first scheme pinned at 100 percent per row."""
    out = io.StringIO()
    for label, ratios in ratio_rows:
        cells = "  ".join(f"{name}={100 * value:.0f}%"
                          for name, value in ratios.items())
        out.write(f"{label}: {cells}\n")
    return out.getvalue()
