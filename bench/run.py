"""Benchmark of axsim on fixed scenario workloads.

Run from the repository root:

    python3 bench/run.py --workload ac_ul_7x16 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --list

One operation is one ``runner.run`` of the workload's scenario, built here
from a scenario seed.  An untraced run draws the workload's number of
scenario seeds from ``--seed`` and takes them in turn.  Operations run one after another in
this process while the next one, judged by the longest so far, still ends
within ``--seconds``; each scenario seed runs at least twice, and every
repeat must give an identical simulated result.

Host times are scaled to a fixed host speed: each operation's event loop
is interleaved with fixed calibration bursts, whose times tell how fast the
host ran while the simulator did (see ``Op.scaled_run_s``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced operation, then traced ones, and reports the per-layer metrics and
the tracing overhead.  Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-operation records,
the environment and the last traced operation's spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from axsim import runner  # noqa: E402
from axsim.config import ScenarioConfig, default_config  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
MIN_UNTRACED_OPS = 2
# Bursts on either side of a slice whose mean gives the host speed for it.
SMOOTH = 10


@dataclass(frozen=True)
class Workload:
    kind: str
    scheme: str
    direction: str
    duration_s: float
    inputs: int
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int) -> ScenarioConfig:
        return default_config(self.kind, direction=self.direction,
                              duration_s=self.duration_s, seed=seed,
                              **self.overrides)

    def input_seeds(self, seed: int) -> list[int]:
        """The scenario seeds of one untraced run; runs of different seeds
        share none."""
        return [seed * self.inputs + k for k in range(self.inputs)]


# Simulated durations are well beyond the 20 ms traffic poll and keep one
# operation at a few host seconds on a 2-core machine.  Scenarios drawn from
# different seeds differ in work: ac_ul_7x16's event count ranged over +-10%
# and its run phase over +-12% across 20 seeds, sr_ul_full's over +-4% and
# +-7%.  Each untraced run therefore averages ``inputs`` scenario seeds:
# four where an operation takes about 3 s, two for sr_ul_full, whose
# operations take 6-11 s, so that two repeats of each fit into a 40 s run.
WORKLOADS = {
    "ac_ul_7x16": Workload("indoor_multi", "ac_baseline", "ul", 0.6, 4,
                           {"n_bss": 7, "stas_per_bss": 16}),
    "mu_dl_1bss": Workload("indoor_single", "ax_ofdma_mumimo", "dl", 3.0, 4),
    "sr_ul_full": Workload("outdoor_multi", "ax_sr", "ul", 0.1, 2),
}


@dataclass
class Op:
    ok: bool
    error: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    cal_s: float = 0.0
    setup_cal_s: float = 0.0
    events: int = 0
    digest: str = ""
    seed: int = 0
    slice_s: list = field(default_factory=list, repr=False)
    burst_s: list = field(default_factory=list, repr=False)
    summary: dict = field(default_factory=dict, repr=False)
    counts: dict = field(default_factory=dict, repr=False)

    @property
    def scaled_setup_s(self) -> float:
        """Set-up phase at the reference host's speed, judged by the bursts
        right before and after it."""
        ref = 2 * probes.SETUP_BURSTS * probes.CAL_REF_S / probes.SLICES
        return self.setup_s * ref / self.setup_cal_s

    @property
    def scaled_run_s(self) -> float:
        """Run phase at the reference host's speed.

        The calibration bursts do fixed work between slices of the event
        loop, so a host running slower by some factor for a while stretches
        the bursts and the simulator alike.  Host speed changes within an
        operation, so each slice is scaled by the bursts next to it
        (``local_scale``), and the short rest of the run phase outside the
        slices by all of the operation's bursts.
        """
        slices = np.asarray(self.slice_s)
        rest = self.run_s - slices.sum()
        return float(slices @ local_scale(np.asarray(self.burst_s))) \
            + rest * probes.CAL_REF_S / self.cal_s

    def record(self) -> dict:
        scaled = {"scaled_setup_s": self.scaled_setup_s,
                  "scaled_run_s": self.scaled_run_s} if self.ok else {}
        return {"seed": self.seed, "ok": self.ok, "error": self.error,
                "wall_s": self.wall_s,
                "setup_s": self.setup_s, "run_s": self.run_s,
                "cal_s": self.cal_s, "setup_cal_s": self.setup_cal_s,
                **scaled, "events": self.events, "digest": self.digest}


def local_scale(burst_s: np.ndarray) -> np.ndarray:
    """Per slice: the reference burst time over the mean burst time within
    ``SMOOTH`` slices of it."""
    window = np.ones(2 * SMOOTH + 1)
    mean = np.convolve(burst_s, window, "same") \
        / np.convolve(np.ones_like(burst_s), window, "same")
    return probes.CAL_REF_S / probes.SLICES / mean


def run_op(workload: Workload, seed: int, tracer: Tracer) -> Op:
    cfg = workload.config(seed)
    gc.collect()
    tracer.clear()
    t0 = time.perf_counter()
    try:
        report = runner.run(cfg, workload.scheme)
        wall = time.perf_counter() - t0
        checks.check_report(report, cfg)
    except Exception as exc:  # a failed operation is counted; the run goes on
        traceback.print_exc(file=sys.stderr)
        return Op(ok=False, error=f"{type(exc).__name__}: {exc}",
                  wall_s=time.perf_counter() - t0, seed=seed)
    summary = tracer.summary()
    cal_s = summary[probes.CAL]["total_s"]
    return Op(True, wall_s=wall, setup_s=summary[probes.SETUP]["total_s"],
              run_s=summary[probes.RUN]["total_s"] - cal_s, cal_s=cal_s,
              setup_cal_s=summary[probes.SETUP_CAL]["total_s"],
              events=tracer.counts["core.events"], digest=checks.digest(report),
              seed=seed, slice_s=tracer.durations(probes.SLICE).tolist(),
              burst_s=tracer.durations(probes.CAL).tolist(), summary=summary,
              counts=dict(tracer.counts))


def check_repeats(ops: list[Op]) -> None:
    """Operations on one seed must all simulate the same thing."""
    first: dict[int, Op] = {}
    for op in ops:
        if not op.ok:
            continue
        ref = first.setdefault(op.seed, op)
        if (op.events, op.digest) != (ref.events, ref.digest):
            op.ok = False
            op.error = (f"same seed, different result: {op.events} events "
                        f"{op.digest} vs {ref.events} {ref.digest}")


def keep_going(ops: list[Op], t_start: float, seconds: float, minimum: int) -> bool:
    if len(ops) < minimum:
        return True
    longest = max(op.wall_s for op in ops)
    return time.perf_counter() - t_start + longest <= seconds


def measure(workload: Workload, seed: int, seconds: float) -> tuple[list[Op], dict]:
    """End-to-end metrics of untraced operations.

    A scaled time is the mean, over the run's scenario seeds, of its median
    over that seed's operations.  Every operation's unscaled phase times
    and calibration totals are kept in the run's record.
    """
    seeds = workload.input_seeds(seed)
    tracer = Tracer()
    probes.install_phases(tracer)
    ops: list[Op] = []
    t_start = time.perf_counter()
    with tracer:
        while keep_going(ops, t_start, seconds, MIN_UNTRACED_OPS * len(seeds)):
            ops.append(run_op(workload, seeds[len(ops) % len(seeds)], tracer))
    check_repeats(ops)
    good = [op for op in ops if op.ok]
    if not good:
        return ops, {}

    def per_input(value) -> float:
        by_seed: dict[int, list[float]] = {}
        for op in good:
            by_seed.setdefault(op.seed, []).append(value(op))
        return statistics.fmean(statistics.median(v) for v in by_seed.values())

    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ops, {
        "wall_s_per_sim_s": per_input(lambda op: op.scaled_run_s)
        / workload.duration_s,
        "setup_s": per_input(lambda op: op.scaled_setup_s),
        "peak_rss_mb": rss_kib / 1024,
    }


def measure_traced(workload: Workload, seed: int, seconds: float,
                   spans_path: Path) -> tuple[list[Op], dict]:
    seed = workload.input_seeds(seed)[0]
    tracer = Tracer()
    probes.install_phases(tracer)
    t_start = time.perf_counter()
    with tracer:
        ops = [run_op(workload, seed, tracer)]
        probes.install_layers(tracer)
        while keep_going(ops, t_start, seconds, 2):
            ops.append(run_op(workload, seed, tracer))
        tracer.save(spans_path)
    reference, traced = ops[0], ops[1:]
    check_repeats(ops)
    good = [op for op in traced if op.ok]
    if not reference.ok or not good:
        return ops, {}
    per_op = [probes.layer_metrics(op.summary, op.counts,
                                   reference.scaled_run_s)
              for op in good]
    metrics = {name: statistics.median_low(m[name] for m in per_op)
               for name in per_op[0]}
    metrics["trace.overhead_s"] = statistics.median(op.wall_s for op in good) \
        - reference.wall_s
    return ops, metrics


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def list_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for tier in ("end_to_end", "per_layer"):
        for m in spec[tier]:
            print(f"{tier:10s} {m['name']:40s} {m['unit']:8s} {m['better']} is better")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric with its unit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.list:
        list_metrics(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ops, values = measure_traced(workload, args.seed, args.seconds,
                                     OUT_DIR / f"{stem}-spans.npz")
        tier = spec["per_layer"]
    else:
        ops, values = measure(workload, args.seed, args.seconds)
        tier = spec["end_to_end"]
    failed = sum(not op.ok for op in ops)
    for i, op in enumerate(ops):
        print(f"op {i}: " + json.dumps(op.record()))
    if not values:
        print(f"no operation of {args.workload} succeeded", file=sys.stderr)
        return 1
    if {m["name"] for m in tier} != set(values):
        raise SystemExit(f"measured metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(m['name'] for m in tier)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in tier}
    env = environment()
    results = {op.seed: {"events": op.events, "digest": op.digest}
               for op in ops if op.ok}
    print(f"workload {args.workload} seed {args.seed}: results per scenario "
          f"seed {json.dumps(results)}; " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "environment": env,
               "results": results,
               "ops": [op.record() for op in ops], "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
