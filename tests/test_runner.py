"""Runner entry points: parallel sweeps, scheme comparison, CDF export."""

import gc
import weakref

import pytest

from axsim import runner
from axsim.config import default_config

TINY = dict(stas_per_bss=4, duration_s=0.05)


def test_parallel_sweep_matches_serial():
    args = ("indoor_single", ["ax_ofdma"], [20], [1.0, 4.0], ["ul"], [1])
    assert runner.sweep(*args, workers=2, **TINY) == \
        runner.sweep(*args, workers=1, **TINY)


def test_compare_pins_first_scheme():
    ratios = runner.compare(default_config("indoor_single", **TINY),
                            ["ac_baseline", "ax_ofdma"])
    assert list(ratios) == ["ac_baseline", "ax_ofdma"]
    assert ratios["ac_baseline"] == 1.0
    assert ratios["ax_ofdma"] > 0


def test_cdf_monotone_to_one():
    report = runner.run(default_config("indoor_single", **TINY), "ax_ofdma")
    cdf = report.cdf()
    assert len(cdf) == TINY["stas_per_bss"]
    assert all(a[0] <= b[0] and a[1] < b[1] for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1][1] == 1.0


@pytest.mark.parametrize("kind, scheme, direction, doze", [
    ("indoor_single", "ax_ofdma_mumimo", "dl", True),
    ("indoor_multi", "ac_baseline", "ul", False),
    ("outdoor_multi", "ax_sr", "ul", False),
])
def test_a_finished_run_frees_its_context_without_the_collector(
        monkeypatch, kind, scheme, direction, doze):
    """runner.run breaks its RunContext's reference cycles, so the context
    is gone once run returns, with the cyclic collector off."""
    contexts = []
    build = runner.RunContext

    def recorded(*args, **kwargs):
        ctx = build(*args, **kwargs)
        contexts.append(weakref.ref(ctx))
        return ctx

    cfg = default_config(kind, direction=direction, **TINY)
    if kind != "indoor_single":
        cfg.n_bss = 3
    monkeypatch.setattr(runner, "RunContext", recorded)
    gc.collect()
    gc.disable()
    try:
        report = runner.run(cfg, scheme, intra_ppdu_doze=doze)
        assert contexts and contexts[0]() is None
    finally:
        gc.enable()
    assert report.aggregate_bps > 0
