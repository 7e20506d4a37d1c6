import hashlib
import io

import numpy as np
import pytest

from d1q3rv.cli import main
from d1q3rv.regionscan import (FEASIBLE, NECESSARY_ONLY, OUTSIDE, ScanSpec, _merge_rectangles,
                               default_u_list, emit_csv, emit_svg, parse_csv, scan)
from d1q3rv.stability import necessary_region, u_zero_region


def small_spec(V, u_list=(0.0,), n=23, s_range=(0.0, 2.2), sp_range=(0.0, 2.2)):
    return ScanSpec(V=V, u_list=u_list, s_points=n, s_prime_points=n,
                    s_range=s_range, s_prime_range=sp_range)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(V=0.5, s_points=1)
    with pytest.raises(ValueError):
        ScanSpec(V=0.5, s_range=(1.0, 1.0))


def test_default_u_list():
    assert default_u_list(0.5) == (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)


def test_scan_zero_velocity_matches_explicit_region():
    grid = scan(small_spec(0.0, n=45))[0]
    S, SP = np.meshgrid(grid.s_values, grid.s_prime_values, indexing="ij")
    expect = u_zero_region(0.0, S, SP)
    assert np.array_equal(grid.codes == 2, expect)


def test_scan_unit_velocity_confines_first_rate():
    grid = scan(small_spec(1.0, n=45))[0]
    feas = grid.codes == 2
    s_of_feasible = np.meshgrid(grid.s_values, grid.s_prime_values, indexing="ij")[0][feas]
    assert s_of_feasible.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("V", [0.0, 0.25, 0.5, 1.0])
def test_unit_rates_cell_always_feasible(V):
    for u in default_u_list(V) or (0.0,):
        grid = scan(small_spec(V, u_list=(u,), n=23))[0]
        i = np.argmin(np.abs(grid.s_values - 1.0))
        j = np.argmin(np.abs(grid.s_prime_values - 1.0))
        assert grid.classification(i, j) == FEASIBLE


def test_feasible_cells_lie_inside_necessary_region():
    for V in (0.0, 0.5, 1.0):
        for u in default_u_list(V):
            grid = scan(small_spec(V, u_list=(u,), n=23))[0]
            S, SP = np.meshgrid(grid.s_values, grid.s_prime_values, indexing="ij")
            nec = necessary_region(V, S, SP)
            assert not np.any((grid.codes == 2) & ~nec)


def test_feasible_count_shrinks_with_velocity():
    counts = [scan(small_spec(V, n=56))[0].count(FEASIBLE)
              for V in (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_degenerate_second_rate_column():
    # s' = 0 pins gamma; on the s' = 0 edge only sV = 0 and u s = 0 survive
    grid = scan(small_spec(0.5, u_list=(0.5,), n=23))[0]
    j = 0
    assert grid.s_prime_values[j] == 0.0
    for i, s in enumerate(grid.s_values):
        expect = FEASIBLE if s == 0.0 else (OUTSIDE if not necessary_region(0.5, s, 0.0)
                                            else NECESSARY_ONLY)
        assert grid.classification(i, j) == expect


def test_csv_shape_and_order():
    grid = scan(small_spec(0.5, n=2, s_range=(0.4, 0.6), sp_range=(0.4, 0.6)))[0]
    buf = io.StringIO()
    emit_csv(grid, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "V,u,s,s_prime,class,gamma_lower,gamma_upper"
    assert len(lines) == 1 + 4
    # s-major: s' varies fastest
    s_col = [ln.split(",")[2] for ln in lines[1:]]
    assert s_col == sorted(s_col)


def test_csv_outside_rows_have_empty_gamma_fields():
    grid = scan(small_spec(1.0, n=5, s_range=(1.8, 2.2), sp_range=(0.0, 0.4)))[0]
    buf = io.StringIO()
    emit_csv(grid, buf)
    outside = [ln for ln in buf.getvalue().strip().split("\n")[1:] if OUTSIDE in ln]
    assert outside
    assert all(ln.endswith(",OUTSIDE,,") for ln in outside)


def test_csv_round_trip_exact():
    grid = scan(small_spec(0.5, u_list=(0.25,), n=23))[0]
    buf = io.StringIO()
    emit_csv(grid, buf)
    back = parse_csv(io.StringIO(buf.getvalue()))
    assert back.V == grid.V and back.u == grid.u
    assert np.array_equal(back.s_values, grid.s_values)
    assert np.array_equal(back.s_prime_values, grid.s_prime_values)
    assert np.array_equal(back.codes, grid.codes)
    assert np.array_equal(np.isnan(back.gamma_lower), np.isnan(grid.gamma_lower))
    ok = ~np.isnan(grid.gamma_lower)
    assert np.array_equal(back.gamma_lower[ok], grid.gamma_lower[ok])
    assert np.array_equal(back.gamma_upper[ok], grid.gamma_upper[ok])


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "V,u,s,s_prime,class,gamma_lower,gamma_upper\n",
    "V,u,s,s_prime,class,gamma_lower,gamma_upper\n0.5,0,1,1,OUTSIDE,\n",
    "V,u,s,s_prime,class,gamma_lower,gamma_upper\n0.5,0,1,1,UNKNOWN,,\n",
])
def test_parse_csv_rejects_empty_or_malformed_input(text):
    with pytest.raises(ValueError):
        parse_csv(io.StringIO(text))


def test_csv_determinism():
    spec = small_spec(2 / 3, u_list=(1 / 3,), n=34)
    a, b = io.StringIO(), io.StringIO()
    emit_csv(scan(spec)[0], a)
    emit_csv(scan(spec)[0], b)
    assert a.getvalue() == b.getvalue()


def test_scan_per_u_grids():
    grids = scan(small_spec(0.5, u_list=(-0.5, 0.0, 0.5), n=12))
    assert [g.u for g in grids] == [-0.5, 0.0, 0.5]
    assert all(g.codes.shape == (12, 12) for g in grids)


def test_svg_full_grid_is_single_rectangle():
    grid = scan(small_spec(0.0, n=12, s_range=(0.5, 1.0), sp_range=(0.5, 1.0)))[0]
    assert grid.count(FEASIBLE) == 144
    buf = io.StringIO()
    emit_svg(grid, buf)
    svg = buf.getvalue()
    assert svg.count('fill="#b0b0b0"') == 1


def test_svg_empty_feasible_set_keeps_dotted_boundary():
    grid = scan(small_spec(1.5, n=23, s_range=(0.1, 2.2)))[0]
    assert grid.count(FEASIBLE) == 0
    assert grid.count(NECESSARY_ONLY) > 0
    buf = io.StringIO()
    emit_svg(grid, buf)
    svg = buf.getvalue()
    assert 'fill="#b0b0b0"' not in svg
    assert "stroke-dasharray" in svg
    assert ">s</text>" in svg and "&#8242;" in svg


def test_svg_is_well_formed_xml():
    import xml.dom.minidom
    grid = scan(small_spec(2 / 3, n=34))[0]
    buf = io.StringIO()
    emit_svg(grid, buf)
    xml.dom.minidom.parseString(buf.getvalue())


def _masks():
    rng = np.random.default_rng(2019)
    yield from (np.zeros((0, 0), bool), np.zeros((0, 4), bool), np.zeros((4, 0), bool),
                np.zeros((6, 5), bool), np.ones((6, 5), bool),
                rng.random((1, 9)) < 0.5, rng.random((9, 1)) < 0.5)
    for k in range(2000):
        shape = tuple(rng.integers(1, 13, 2))
        if k % 3 == 0:
            # repeated columns, so that runs merge across several columns
            mask = (rng.random((shape[0], 1)) < 0.6) & (rng.random((1, shape[1])) < 0.7)
        else:
            mask = rng.random(shape) < (k % 5) / 4
        yield mask


def test_merge_rectangles_is_the_greedy_column_run_tiling():
    assert _merge_rectangles(np.zeros((6, 5), bool)) == []
    assert _merge_rectangles(np.ones((6, 5), bool)) == [(0, 5, 0, 4)]
    for mask in _masks():
        rects = _merge_rectangles(mask)
        assert rects == sorted(rects)
        cover = np.zeros(mask.shape, int)
        padded = np.pad(mask, ((0, 0), (1, 1)))
        for i0, i1, j0, j1 in rects:
            cover[i0:i1 + 1, j0:j1 + 1] += 1
            # each column piece is a whole run of True cells
            assert not padded[i0:i1 + 1, j0].any() and not padded[i0:i1 + 1, j1 + 2].any()
        assert np.array_equal(cover, mask)
        starts = {(i0, j0, j1) for i0, _, j0, j1 in rects}
        assert not any((i1 + 1, j0, j1) in starts for _, i1, j0, j1 in rects)


def test_area_estimate_converges_with_resolution():
    areas = []
    for n in (221, 442):
        spec = ScanSpec(V=0.5, u_list=(0.0,), s_points=n, s_prime_points=n)
        grid = scan(spec)[0]
        cell = (2.2 / (n - 1)) ** 2
        areas.append(grid.count(FEASIBLE) * cell)
    assert abs(areas[1] - areas[0]) / areas[1] < 0.01


# sha256 of the files `d1q3rv region --V 2/3 --grid 41` writes, u0 .. u5
REGION_41_CSV_SHA256 = (
    "89eb1f924ee1d3e38c8b2b1b0addfa549deb0c593c9bee7c14eb534c8c6a6873",
    "8fee23ef8355652373ccee01971db23dc933ad84a40f994bbd6a8c5afb94c1d5",
    "399ead3bb4f5aa96e631738d3d419f2051c5509d6093839a242af0a0f726a855",
    "a62ee076290374eb36fcd2343532e7dbb6ca746c42d35e0aff663a1cf545a5c0",
    "0f27929a9d2c6c230c790a64789a009aa0076ed2e7a24fecda57a060f34b558c",
    "50111f481af39652cecda9b956a986b85c7813217ab09b363913cbf9b2875a88",
)
REGION_41_SVG_SHA256 = (
    "eda83b02b3483e5e6cece4c46dd22393200b6b111f8bd1313b634f80015ee0e1",
    "6fe35d085a6ba5ea06bbb0228e0b944c4c892b8d1dc45543a63695421688cf72",
    "fb4022389180aebe8d7ff2dcf03950758881f385b7e44eb3074454d7a46bdb40",
    "3974c8617e31a81f9f66abd2eb49deb4aba6cd625f990c9dedc1a478b061f254",
    "aa370b9f6ae23f99a0f87d2e3297538fa38a63f15088037075ecdd7a405fd785",
    "7e15ad28735764478feaa83e82293d03bb425a468df0d9aa63c008b808e3220c",
)


def test_region_output_bytes_are_pinned(tmp_path, capsys):
    assert main(["region", "--V", "2/3", "--grid", "41",
                 "--out-csv", str(tmp_path / "r.csv"), "--out-svg", str(tmp_path / "r.svg")]) == 0
    for i in range(6):
        for suffix, digests in (("csv", REGION_41_CSV_SHA256), ("svg", REGION_41_SVG_SHA256)):
            data = (tmp_path / f"r_u{i}.{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digests[i], f"r_u{i}.{suffix}"
