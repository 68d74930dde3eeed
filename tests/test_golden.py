"""Golden results: ``runner.report_row`` of short runs, pinned byte for byte.

The file ``golden_results.json`` pins the simulator's behaviour as it is,
defects included.  In particular the multi-BSS points show the channel
capture of ROADMAP item 2(a): a third-party NAV outlasts the TXOP, so one
BSS keeps the channel and p5 reads 0 on ``indoor_multi``.  A change that
fixes such a defect regenerates the file and states why in CHANGES.md; any
other change must reproduce it unchanged.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from axsim import runner
from axsim.config import default_config

GOLDEN = Path(__file__).with_name("golden_results.json")

SCHEMES = ("ac_baseline", "ax_ofdma", "ax_ofdma_mumimo", "ax_sr")
MULTI = dict(n_bss=3, stas_per_bss=8, duration_s=0.2, per_sta_rate_mbps=13)
SINGLE = dict(stas_per_bss=16, duration_s=0.3)


def _points() -> dict[str, tuple]:
    """id -> (kind, scheme, direction, overrides, mac overrides, doze)."""
    points = {f"indoor_multi/{s}/{d}": ("indoor_multi", s, d, MULTI, {}, False)
              for s in SCHEMES for d in ("ul", "dl")}
    # the only geometry whose antennas allow two users per RU, so the one
    # that exercises MU-MIMO grouping in both directions
    for d in ("ul", "dl"):
        points[f"indoor_single/ax_ofdma_mumimo/{d}"] = (
            "indoor_single", "ax_ofdma_mumimo", d, SINGLE, {}, False)
    points["indoor_single/ax_ofdma/ul/uora"] = (
        "indoor_single", "ax_ofdma", "ul", SINGLE, {"ra_ru_fraction": 0.34}, False)
    for d in ("ul", "dl"):
        points[f"indoor_multi/ax_sr/{d}/doze"] = (
            "indoor_multi", "ax_sr", d, MULTI, {}, True)
    return points


POINTS = _points()


def run_point(point_id: str) -> dict:
    kind, scheme, direction, overrides, mac, doze = POINTS[point_id]
    cfg = default_config(kind, direction=direction, **overrides)
    for key, value in mac.items():
        setattr(cfg.mac, key, value)
    return runner.report_row(runner.run(cfg, scheme, intra_ppdu_doze=doze))


@pytest.mark.parametrize("point_id", sorted(POINTS))
def test_golden_row(point_id):
    golden = json.loads(GOLDEN.read_text())
    assert run_point(point_id) == golden[point_id]


def test_golden_file_covers_every_point():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(POINTS)


def test_same_seed_same_row():
    point_id = "indoor_multi/ax_sr/ul"
    assert run_point(point_id) == run_point(point_id)


if __name__ == "__main__":
    rows = {point_id: run_point(point_id) for point_id in sorted(POINTS)}
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(rows)} rows to {GOLDEN}\n")
