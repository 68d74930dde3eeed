import math

import pytest

from axsim.config import (INDOOR_MULTI, INDOOR_SINGLE, OUTDOOR_MULTI, OUTDOOR_SINGLE,
                          default_config)
from axsim.core import RngSet
from axsim.topo import (gen_indoor_multi, gen_indoor_single, gen_outdoor_multi,
                        gen_outdoor_single, hex_ring_centers,
                        indoor_district_extent_m, point_in_hexagon)


def rng(seed=0):
    return RngSet(seed).stream("placement")


INDOOR = default_config(INDOOR_SINGLE)
OUTDOOR = default_config(OUTDOOR_SINGLE)


def test_indoor_single_counts():
    topo = gen_indoor_single(rng(), INDOOR)
    assert len(topo.aps) == 1
    assert len(topo.stas) == 64


def test_indoor_single_deterministic():
    a = gen_indoor_single(rng(5), INDOOR)
    b = gen_indoor_single(rng(5), INDOOR)
    assert [(p.x, p.y) for p in a.placements] == [(p.x, p.y) for p in b.placements]


def test_indoor_geometry_bound():
    # 4x4 grid of 2 m rooms with 1 m gaps spans 11 m; the farthest STA sits
    # within half the diagonal of that square district.
    extent = indoor_district_extent_m(INDOOR.room_area_m2)
    assert extent == pytest.approx(11.0)
    bound = math.hypot(extent / 2, extent / 2) + 1e-9
    topo = gen_indoor_single(rng(1), INDOOR)
    ap = topo.aps[0]
    for sta in topo.stas:
        assert math.dist(ap.pos, sta.pos) <= bound


def test_indoor_four_stas_per_room():
    topo = gen_indoor_single(rng(2), INDOOR)
    # 64 STAs over 16 rooms; rooms tile the district on a 3 m pitch
    rooms = {}
    for sta in topo.stas:
        rooms.setdefault((math.floor((sta.x + 5.5) / 3), math.floor((sta.y + 5.5) / 3)),
                         []).append(sta)
    assert len(rooms) == 16
    assert all(len(v) == 4 for v in rooms.values())


def test_outdoor_single_within_hexagon():
    topo = gen_outdoor_single(rng(3), OUTDOOR)
    assert len(topo.stas) == 64
    for sta in topo.stas:
        assert point_in_hexagon(sta.x, sta.y, OUTDOOR.cell_inradius_m)


def test_point_in_hexagon_oracle():
    assert point_in_hexagon(0, 64.9, 65)
    assert not point_in_hexagon(0, 65.1, 65)
    assert point_in_hexagon(74.0, 0, 65)        # along the flat direction
    assert not point_in_hexagon(50.0, 60.0, 65)  # beyond the slant edge


def test_indoor_multi_counts():
    topo = gen_indoor_multi(rng(4), default_config(INDOOR_MULTI))
    assert len(topo.aps) == 32
    assert len(topo.stas) == 32 * 64
    assert len(topo.colors) == 32


def test_indoor_multi_desk_scale_grid():
    topo = gen_indoor_multi(rng(4), default_config(INDOOR_MULTI, n_bss=9, stas_per_bss=8))
    assert len(topo.aps) == 9
    xs = sorted({round(p.x, 6) for p in topo.aps})
    assert len(xs) == 3  # 3x3 matrix


def test_outdoor_multi_19_aps_at_130m():
    topo = gen_outdoor_multi(rng(6), default_config(OUTDOOR_MULTI, stas_per_bss=4))
    assert len(topo.aps) == 19
    aps = topo.aps
    min_d = min(math.dist(a.pos, b.pos)
                for i, a in enumerate(aps) for b in aps[i + 1:])
    assert min_d == pytest.approx(130.0, rel=1e-6)


def test_outdoor_multi_cells_follow_the_inradius():
    cfg = default_config(OUTDOOR_MULTI, n_bss=7, stas_per_bss=16, cell_inradius_m=20.0)
    topo = gen_outdoor_multi(rng(7), cfg)
    ap_of = {ap.bss_id: ap for ap in topo.aps}
    for sta in topo.stas:
        ap = ap_of[sta.bss_id]
        assert point_in_hexagon(sta.x - ap.x, sta.y - ap.y, 20.0)
    aps = topo.aps
    min_d = min(math.dist(a.pos, b.pos)
                for i, a in enumerate(aps) for b in aps[i + 1:])
    assert min_d == pytest.approx(40.0, rel=1e-6)


def test_hex_rings_count():
    assert len(hex_ring_centers(130.0, 2)) == 19
    assert len(hex_ring_centers(130.0, 1)) == 7


@pytest.mark.parametrize("generate, kind, overrides", [
    (gen_indoor_single, INDOOR_SINGLE, dict(stas_per_bss=8)),
    (gen_outdoor_single, OUTDOOR_SINGLE, dict(stas_per_bss=8)),
    (gen_indoor_multi, INDOOR_MULTI, dict(n_bss=4, stas_per_bss=5)),
    (gen_outdoor_multi, OUTDOOR_MULTI, dict(n_bss=7, stas_per_bss=5)),
])
def test_node_ids_run_bss_by_bss_with_the_ap_first(generate, kind, overrides):
    """Node ids run 0..n-1 in placement order, each BSS holds one run of
    them, the runs follow in ascending BSS id, and each starts with the AP.
    So ascending node id, the order in which one medium change arms
    contenders, is engine order and then each engine's node order."""
    cfg = default_config(kind, **overrides)
    topo = generate(rng(8), cfg)
    assert [p.node_id for p in topo.placements] == list(range(len(topo.placements)))
    bss_ids = [p.bss_id for p in topo.placements]
    assert bss_ids == sorted(bss_ids)
    assert len(set(bss_ids)) == cfg.n_bss
    for bss_id in set(bss_ids):
        roles = [p.is_ap for p in topo.of_bss(bss_id)]
        assert roles == [True] + [False] * cfg.stas_per_bss
