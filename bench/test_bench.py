"""Tests of the benchmark itself: span arithmetic, instrumentation hygiene
and the output checks.  Run with ``python3 -m pytest bench``."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from axsim import core, engine, frames, medium, mu, phy, runner, spatial, topo  # noqa: E402
from axsim.config import default_config  # noqa: E402
from axsim.metrics import MetricsReport  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times, summarise  # noqa: E402

TINY = run.Workload("outdoor_multi", "ax_sr", "ul", 0.05, 2,
                    {"n_bss": 3, "stas_per_bss": 4})

INSTRUMENTED = (runner, engine.RunContext, core.Simulator, medium.Medium,
                engine.BssEngine, engine.Contender, engine.AcBssEngine,
                engine.AxBssEngine, frames.Mpdu, phy.PerModel,
                phy.PathLossModel, mu, spatial, topo)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]

    names = ["root", "leaf"]
    name_id = np.array([0, 1, 1, 1], dtype=np.uint16)
    summary = summarise(names, name_id, start, end, parent)
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["leaf"] == {"calls": 3, "total_s": 8.0, "self_s": 7.0}


def test_tracer_links_nested_calls_to_their_parent():
    class Toy:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    with Tracer() as tracer:
        tracer.span(Toy, "outer", "outer")
        tracer.span(Toy, "inner", "inner")
        assert Toy().outer() == 2
    spans = tracer.arrays()
    assert spans["parent"].tolist() == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - summary["inner"]["total_s"])


def test_traced_run_restores_every_wrapped_attribute():
    before = [dict(vars(owner)) for owner in INSTRUMENTED]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            probes.install_phases(tracer)
            probes.install_layers(tracer)
            changed = [owner for owner, saved in zip(INSTRUMENTED, before)
                       if dict(vars(owner)) != saved]
            assert len(changed) == len(INSTRUMENTED)
            run.run_op(TINY, 1, tracer)
            raise RuntimeError("leave the block by an exception")
    after = [dict(vars(owner)) for owner in INSTRUMENTED]
    for owner, saved, now in zip(INSTRUMENTED, before, after):
        assert now.keys() == saved.keys(), owner
        for key, value in saved.items():
            assert now[key] is value, (owner, key)


def test_instrumentation_leaves_the_simulated_result_unchanged():
    cfg = TINY.config(3)
    bare = engine.RunContext(cfg, TINY.scheme)
    bare.run()
    bare_digest = checks.digest(runner.run(cfg, TINY.scheme))
    tracer = Tracer()
    with tracer:
        probes.install_phases(tracer)
        plain = run.run_op(TINY, 3, tracer)
        probes.install_layers(tracer)
        traced = run.run_op(TINY, 3, tracer)
    assert plain.ok and traced.ok
    calibration = plain.summary[probes.CAL]
    assert calibration["calls"] == probes.SLICES
    assert plain.cal_s == calibration["total_s"] > 0
    assert len(plain.slice_s) == len(plain.burst_s) == probes.SLICES
    assert plain.summary[probes.SETUP_CAL]["calls"] == 2 * probes.SETUP_BURSTS
    assert plain.run_s == pytest.approx(
        plain.summary[probes.RUN]["total_s"] - plain.cal_s)
    assert plain.events == traced.events == bare.sim.processed
    assert plain.digest == traced.digest == bare_digest
    metrics = probes.layer_metrics(traced.summary, traced.counts, plain.run_s)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) | {"trace.overhead_s"} == \
        {m["name"] for m in spec["per_layer"]}
    assert metrics["core.events"] == plain.events > 0
    assert metrics["medium.sensed.calls"] == metrics["engine.cs_state.calls"]


def test_scaling_follows_the_bursts_next_to_each_slice():
    ref = probes.CAL_REF_S / probes.SLICES
    n = probes.SLICES
    # the host runs at half speed during the first half of the event loop
    burst_s = [2 * ref] * (n // 2) + [ref] * (n // 2)
    op = run.Op(True, run_s=0.5 + 3 * n / 2, cal_s=sum(burst_s),
                slice_s=[2.0] * (n // 2) + [1.0] * (n // 2), burst_s=burst_s)
    far = run.local_scale(np.array(burst_s))
    assert far[0] == pytest.approx(0.5) and far[-1] == pytest.approx(1.0)
    assert op.scaled_run_s == pytest.approx(
        sum(s * k for s, k in zip(op.slice_s, far))
        + 0.5 * probes.CAL_REF_S / sum(burst_s))
    steady = run.Op(True, setup_s=1.0, run_s=4.0, cal_s=probes.CAL_REF_S,
                    setup_cal_s=2 * probes.SETUP_BURSTS * ref,
                    slice_s=[0.04] * n, burst_s=[ref] * n)
    assert steady.scaled_run_s == pytest.approx(4.0)
    assert steady.scaled_setup_s == pytest.approx(1.0)


def test_repeat_with_a_different_result_fails():
    ops = [run.Op(True, events=10, digest="a"), run.Op(True, events=10, digest="a"),
           run.Op(True, events=11, digest="a"), run.Op(True, events=10, digest="b"),
           run.Op(True, events=12, digest="c", seed=1),
           run.Op(True, events=12, digest="d", seed=1)]
    run.check_repeats(ops)
    assert [op.ok for op in ops] == [True, True, False, False, True, False]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_runs_of_different_seeds_share_no_scenario_seed(name):
    workload = run.WORKLOADS[name]
    seeds = [workload.input_seeds(seed) for seed in range(1, 50)]
    flat = [s for group in seeds for s in group]
    assert all(len(group) == workload.inputs for group in seeds)
    assert len(set(flat)) == len(flat)


CFG = default_config("indoor_single", per_sta_rate_mbps=1.0, duration_s=1.0)


def report(per_sta_bps=None, per=0.1) -> MetricsReport:
    per_sta_bps = per_sta_bps or {1: 0.5e6, 2: 0.9e6}
    return MetricsReport(
        kind=CFG.kind, scheme="ax_ofdma", bandwidth_mhz=20, direction="ul",
        offered_mbps_per_sta=1.0, per_sta_bps=per_sta_bps,
        bss_of_sta={sta: 0 for sta in per_sta_bps}, mean_delay_ms=1.0, per=per)


def test_checks_pass_on_a_consistent_report():
    checks.check_report(report(), CFG)


@pytest.mark.parametrize("doctored, message", [
    (report(per=1.5), "PER"),
    (report(per=float("nan")), "PER"),
    (report({1: 0.5e6, 2: 1.2e6}), "STA 2 delivered"),
    (report({1: 0.0, 2: 0.0}), "delivered nothing"),
])
def test_checks_fire_on_a_doctored_report(doctored, message):
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_report(doctored, CFG)


def test_checks_fire_on_a_per_bss_mismatch(monkeypatch):
    doctored = report()
    monkeypatch.setattr(MetricsReport, "per_bss_bps", property(lambda r: {0: 1.0}))
    with pytest.raises(checks.CheckFailed, match="per-BSS sum"):
        checks.check_report(doctored, CFG)


def test_checks_survive_python_optimize_mode():
    code = ("import test_bench, checks\n"
            "try:\n"
            "    checks.check_report(test_bench.report(per=2.0), test_bench.CFG)\n"
            "except checks.CheckFailed:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], cwd=HERE,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
