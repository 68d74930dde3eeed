"""The run's loss matrix, built in numpy blocks, against a scalar build.

The reference takes every node pair i < j in order, with `math.dist`, the
scalar log-distance formula and one `RngStream.gauss` shadowing draw per
pair.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from axsim import engine, phy
from axsim.config import default_config
from axsim.core import RngSet
from axsim.engine import RunContext


def scalar_loss(cfg, d: float, shadow: float) -> float:
    p = cfg.phy
    d = max(d, 0.1)
    loss = phy.fspl_db(1.0, cfg.radio.frequency_ghz)
    if d <= p.pathloss_breakpoint_m:
        loss += 10.0 * p.pathloss_near_exponent * math.log10(d)
    else:
        loss += 10.0 * p.pathloss_near_exponent * math.log10(p.pathloss_breakpoint_m)
        loss += 10.0 * p.pathloss_far_exponent * math.log10(d / p.pathloss_breakpoint_m)
    return loss + shadow


def scalar_reference(ctx: RunContext):
    """(loss matrix, pair distances, the shadowing stream after the build)."""
    cfg = ctx.cfg
    sigma = cfg.phy.shadowing_sigma_db
    shadowing = RngSet(cfg.seed).stream("shadowing")
    pos = {p.node_id: p.pos for p in ctx.topology.placements}
    n = len(pos)
    ref = np.zeros((n, n))
    distances = []
    for i in range(n):
        for j in range(i + 1, n):
            shadow = shadowing.gauss(0.0, sigma) if sigma > 0 else 0.0
            d = math.dist(pos[i], pos[j])
            distances.append(d)
            ref[i, j] = ref[j, i] = scalar_loss(cfg, d, shadow)
    return ref, np.array(distances), shadowing


def check(ctx: RunContext):
    loss = ctx.loss_db
    n = len(ctx.topology.placements)
    # row i is node id i: placements are listed in id order, and every
    # per-node array of the run is indexed by node id
    assert [p.node_id for p in ctx.topology.placements] == list(range(n))
    assert loss.shape == (n, n)
    assert (loss == loss.T).all()
    assert (np.diag(loss) == 0.0).all()
    ref, distances, shadowing = scalar_reference(ctx)
    np.testing.assert_allclose(loss, ref, rtol=0.0, atol=1e-9)
    # the build leaves the shadowing stream where the pair loop leaves it
    assert ctx.rng.stream("shadowing").getstate() == shadowing.getstate()
    return distances


CONFIGS = {
    # dual slope: pairs inside a room grid and across districts
    "indoor_multi": dict(kind="indoor_multi", n_bss=4, stas_per_bss=24),
    # 7 x 65 nodes: 103,285 pairs, many blocks
    "outdoor_multi": dict(kind="outdoor_multi", n_bss=7),
    "indoor_single": dict(kind="indoor_single"),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_loss_matrix_equals_scalar_pair_loop(name):
    cfg = default_config(**CONFIGS[name], seed=5)
    assert cfg.phy.shadowing_sigma_db > 0
    distances = check(RunContext(cfg, "ax_sr"))
    bp = cfg.phy.pathloss_breakpoint_m
    assert (distances < bp).any() and (distances > bp).any()


def test_loss_matrix_with_small_blocks(monkeypatch):
    # blocks of single rows, of several rows, and rows split at no boundary
    monkeypatch.setattr(engine, "LOSS_BLOCK_PAIRS", 150)
    check(RunContext(default_config("indoor_multi", n_bss=2, stas_per_bss=30,
                                    seed=2), "ax_sr"))


def test_loss_matrix_without_shadowing_draws_nothing():
    cfg = default_config("indoor_single", seed=4)
    cfg.phy.shadowing_sigma_db = 0.0
    ctx = RunContext(cfg, "ac_baseline")
    check(ctx)
    assert ctx.rng.stream("shadowing").getstate() == \
        RngSet(4).stream("shadowing").getstate()
