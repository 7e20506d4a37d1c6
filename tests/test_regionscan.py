import hashlib
import io
import re
import tracemalloc

import numpy as np
import pytest

from d1q3rv import regionscan
from d1q3rv.cli import main
from d1q3rv.regionscan import (_CLASS_CODES, _CLASS_NAMES, CSV_HEADER, FEASIBLE,
                               NECESSARY_ONLY, OUTSIDE, SVG_MARGIN, SVG_SIZE, RegionGrid,
                               ScanSpec, _boundary_segments, _merge_rectangles,
                               default_u_list, emit_csv, emit_svg, parse_csv, scan)
from d1q3rv.scheme import WORKING_SET_BYTES
from d1q3rv.stability import necessary_region, u_zero_region


def small_spec(V, u_list=(0.0,), n=23, s_range=(0.0, 2.2), sp_range=(0.0, 2.2)):
    return ScanSpec(V=V, u_list=u_list, s_points=n, s_prime_points=n,
                    s_range=s_range, s_prime_range=sp_range)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(V=0.5, s_points=1)
    with pytest.raises(ValueError):
        ScanSpec(V=0.5, s_range=(1.0, 1.0))
    with pytest.raises(ValueError, match="s_range must be finite"):
        ScanSpec(V=0.5, s_range=(0.0, np.inf), s_points=3)
    with pytest.raises(ValueError, match="s_prime_range must be finite"):
        ScanSpec(V=0.5, s_prime_range=(-np.inf, 1.0))
    with pytest.raises(ValueError, match="V must be finite, got nan"):
        ScanSpec(V=np.nan, u_list=(0.0,), s_points=5, s_prime_points=5)
    with pytest.raises(ValueError, match="V must be finite, got -inf"):
        ScanSpec(V=-np.inf)
    with pytest.raises(ValueError, match=r"u_list must be finite, got \(0.0, inf\)"):
        ScanSpec(V=0.5, u_list=(0.0, np.inf))
    with pytest.raises(ValueError, match=r"^s_points must be an integer, got 2.5$"):
        ScanSpec(V=0.5, u_list=(0.0,), s_points=2.5, s_prime_points=5)
    with pytest.raises(ValueError, match=r"^s_prime_points must be an integer, got 5.0$"):
        ScanSpec(V=0.5, u_list=(0.0,), s_points=5, s_prime_points=5.0)
    grid = scan(ScanSpec(V=0.5, u_list=(0.0,), s_points=np.int64(3), s_prime_points=np.int32(4)))[0]
    assert grid.codes.shape == (3, 4)


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


@pytest.mark.parametrize("huge, counts", [(1e300, (1, 1, 23)), (1e308, (0, 2, 23))])
def test_scan_of_overflowing_spec_classifies_without_warnings(huge, counts):
    # Every warning fails the suite, so this also checks that scan emits none.
    grid = scan(ScanSpec(V=huge, u_list=(huge,), s_points=5, s_prime_points=5))[0]
    assert tuple(grid.count(c) for c in (FEASIBLE, NECESSARY_ONLY, OUTSIDE)) == counts


@pytest.mark.parametrize("V", [0.0, 0.25, 0.5, 1.0])
def test_unit_rates_cell_always_feasible(V):
    for u in default_u_list(V) or (0.0,):
        grid = scan(small_spec(V, u_list=(u,), n=23))[0]
        i = np.argmin(np.abs(grid.s_values - 1.0))
        j = np.argmin(np.abs(grid.s_prime_values - 1.0))
        assert grid.codes[i, j] == _CLASS_CODES[FEASIBLE]


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
        assert grid.codes[i, j] == _CLASS_CODES[expect]


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


def _csv_text(grid):
    buf = io.StringIO()
    emit_csv(grid, buf)
    return buf.getvalue()


def _assert_same_grid(back, grid):
    assert back.V == grid.V and back.u == grid.u
    for field in ("s_values", "s_prime_values", "codes", "gamma_lower", "gamma_upper"):
        a, b = getattr(back, field), getattr(grid, field)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field


def test_csv_round_trip_exact():
    grids = (scan(small_spec(0.5, u_list=(0.25,), n=23))
             + scan(small_spec(2 / 3, u_list=default_u_list(2 / 3), n=41)))
    for grid in grids:
        _assert_same_grid(parse_csv(io.StringIO(_csv_text(grid))), grid)


def test_csv_bytes_match_per_value_format():
    odd = np.array([-0.0, 5e-324, 1 / 3, -1e300])
    codes = np.array([[2, 1, 0, 2], [0, 2, 2, 1], [2, 2, 2, 2], [1, 0, 0, 2]], np.int8)
    feasible = codes == _CLASS_CODES[FEASIBLE]
    grid = RegionGrid(V=1 / 3, u=-0.0, s_values=odd, s_prime_values=odd[::-1], codes=codes,
                      gamma_lower=np.where(feasible, odd[:, None], np.nan),
                      gamma_upper=np.where(feasible, odd[None, :], np.nan))
    expect = [CSV_HEADER]
    for i, s in enumerate(grid.s_values):
        for j, sp in enumerate(grid.s_prime_values):
            gamma = ((grid.gamma_lower[i, j], grid.gamma_upper[i, j]) if feasible[i, j]
                     else ())
            fields = [format(v, ".17g") for v in (grid.V, grid.u, s, sp)]
            fields += [_CLASS_NAMES[codes[i, j]]] + [format(g, ".17g") for g in gamma]
            expect.append(",".join(fields) + ("" if gamma else ",,"))
    assert _csv_text(grid) == "\n".join(expect) + "\n"


def test_parse_csv_reads_paths_binary_files_and_text_alike(tmp_path):
    grid = scan(small_spec(2 / 3, u_list=(1 / 3,), n=17))[0]
    text = _csv_text(grid)
    path = tmp_path / "g.csv"
    path.write_bytes(text.encode())
    _assert_same_grid(parse_csv(path), grid)
    _assert_same_grid(parse_csv(str(path)), grid)
    with open(path, "rb") as fh:
        _assert_same_grid(parse_csv(fh), grid)
    _assert_same_grid(parse_csv(io.StringIO(text)), grid)
    _assert_same_grid(parse_csv(io.StringIO(text.replace("\n", "\r\n"), newline="")), grid)


_ERROR_CASES = [
    ("V,u,s\n0.5,0,1\n", "unrecognized CSV header: 'V,u,s'"),
    ("V\u00e9,u\n", "unrecognized CSV header: 'V\u00e9,u'"),
    (CSV_HEADER + "\n0.5,0,1,1,UNKNOWN,,\n", "unknown region class 'UNKNOWN'"),
    (CSV_HEADER + "\n0.5,0,1,1.5.5,OUTSIDE,,\n", "could not convert string to float: '1.5.5'"),
    (CSV_HEADER + "\n0.5,0,1,1,FEASIBLE,junk,2\n", "could not convert string to float: 'junk'"),
    (CSV_HEADER + "\n0.5,0,1,1,FEASIBLE,nan,inf\n",
     "region CSV gamma bounds of FEASIBLE rows must be finite"),
    (CSV_HEADER + "\n0.5,0,1,1,FEASIBLE,-1,0.5\n0.5,0,1,2,OUTSIDE,zzz,\n",
     "region CSV gamma fields must be empty on OUTSIDE and NECESSARY_ONLY rows"),
    (CSV_HEADER + "\n0.5,0,1,1,NECESSARY_ONLY,,0\n",
     "region CSV gamma fields must be empty on OUTSIDE and NECESSARY_ONLY rows"),
    # eight fields and then six: 28 fields in all, but the rows are not a grid's
    (CSV_HEADER + "\n0.5,0,0,0,OUTSIDE,,\n0.5,0,0,1,OUTSIDE,,,0.5\n0,1,0,OUTSIDE,,\n"
     "0.5,0,1,1,OUTSIDE,,\n", "region CSV rows must have 7 fields"),
]


@pytest.mark.parametrize("text,message", _ERROR_CASES)
def test_parse_csv_errors_show_the_text(text, message):
    for source in (io.StringIO(text), io.BytesIO(text.encode())):
        with pytest.raises(ValueError) as exc:
            parse_csv(source)
        assert str(exc.value) == message


@pytest.mark.parametrize("column,spelling", [(0, "inf"), (1, "nan"), (2, "nan"), (3, "-inf")])
def test_parse_csv_rejects_a_non_finite_value(column, spelling):
    lines = _csv_text(scan(small_spec(0.5, u_list=(0.25,), n=5))[0]).split()
    first = lines[1].split(",")[column]   # every row of this V, u, s or s' value
    with pytest.raises(ValueError, match="V, u, s and s_prime must be finite"):
        parse_csv(io.StringIO(_respell(lines, column, {first: [spelling]})))


def _respell(lines, column, spellings):
    """lines with each value of one column respelled in turn by spellings[value]."""
    rows = [row.split(",") for row in lines[1:]]
    for k, row in enumerate(rows):
        choices = spellings.get(row[column])
        if choices:
            row[column] = choices[k % len(choices)]
    return "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"


def _aliased_csv():
    """A grid and its CSV with the s and s' values respelled in several ways."""
    grid = scan(small_spec(0.5, u_list=(0.25,), n=5, s_range=(0.0, 1.0), sp_range=(0.0, 1.0)))[0]
    lines = _csv_text(grid).split()
    aliases = {"0": ["0", "0.0", "-0", "0.00"], "0.5": ["0.5", "0.50", "0.500"]}
    text = _respell(lines, 2, aliases)
    return grid, _respell(text.split(), 3, aliases)


def test_parse_csv_aliased_spellings_are_one_grid_cell():
    grid, text = _aliased_csv()
    assert text != _csv_text(grid)
    _assert_same_grid(parse_csv(io.StringIO(text)), grid)  # -0.0 == 0.0 as numbers


def test_parse_csv_rejects_an_unparsable_rate():
    lines = _csv_text(scan(small_spec(0.5, u_list=(0.25,), n=5))[0]).split()
    s0 = lines[1].split(",")[2]
    with pytest.raises(ValueError, match="could not convert string to float"):
        parse_csv(io.StringIO(_respell(lines, 2, {s0: [s0, "0.5.5"]})))


@pytest.mark.parametrize("name", [OUTSIDE, NECESSARY_ONLY])
def test_parse_csv_rejects_gamma_fields_of_rows_not_feasible(name):
    grid = scan(small_spec(0.5, u_list=(0.25,), n=23))[0]
    assert grid.count(OUTSIDE) and grid.count(NECESSARY_ONLY) and grid.count(FEASIBLE)
    text = _csv_text(grid)
    with pytest.raises(ValueError, match="gamma fields must be empty"):
        parse_csv(io.StringIO(text.replace(f",{name},,", f",{name},junk,-", 1)))


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


def _edit_rows(lines, how):
    """A region CSV's lines with one edit that leaves every row well formed."""
    rows = lines[1:]
    k = next(k for k, row in enumerate(rows) if f",{FEASIBLE}," in row)
    V, u, s, sp, name, lo, hi = rows[k].split(",")
    if how == "drop":
        del rows[k]
    elif how == "drop last":
        del rows[-1]
    elif how == "duplicate":
        rows.append(",".join((V, u, s, sp, OUTSIDE, "", "")))
    elif how == "other V":
        rows[k] = ",".join(("0.75", u, s, sp, name, lo, hi))
    else:
        rows[k] = ",".join((V, "0.125", s, sp, name, lo, hi))
    return "\n".join([lines[0]] + rows) + "\n"


_NOT_ONE_GRID = ["drop", "drop last", "duplicate", "other V", "other u"]


def _respelled_V(lines):
    """lines as one text with the second row's V respelled, which is the same V."""
    return "\n".join(lines[:2] + [lines[2].replace("0.5,", "0.50,", 1)] + lines[3:])


@pytest.mark.parametrize("how", _NOT_ONE_GRID)
def test_parse_csv_rejects_rows_that_are_not_one_grid(how):
    lines = _csv_text(scan(small_spec(0.5, u_list=(0.25,), n=5))[0]).split()
    parse_csv(io.StringIO(_respelled_V(lines)))
    with pytest.raises(ValueError, match="grid cell exactly once|share one"):
        parse_csv(io.StringIO(_edit_rows(lines, how)))


def _outcome(text, source=None):
    """parse_csv of text (read from source, a BytesIO by default) as (V, u and
    the arrays' bytes), or as its error message."""
    try:
        grid = parse_csv(source or io.BytesIO(text.encode()))
    except ValueError as exc:
        return str(exc)
    arrays = (grid.s_values, grid.s_prime_values, grid.codes, grid.gamma_lower, grid.gamma_upper)
    return (repr(grid.V), repr(grid.u)) + tuple((a.dtype, a.shape, a.tobytes()) for a in arrays)


@pytest.mark.parametrize("piece_bytes", [1, 7, 100])
def test_parse_csv_piece_boundaries_change_nothing(piece_bytes, monkeypatch):
    text = _csv_text(scan(small_spec(0.5, u_list=(0.25,), n=23))[0])
    lines = _csv_text(scan(small_spec(0.0, u_list=(0.0,), n=5))[0]).split()
    lines[1] = "-0,-0," + lines[1].split(",", 2)[2]   # the first row's spelling is returned
    small = _csv_text(scan(small_spec(0.5, u_list=(0.25,), n=5))[0]).split()
    texts = ([text, text.replace("\n", "\r\n"), text.replace("\n", "\n\n \t"), " \n\t" + text,
              "\n".join(lines) + "\n", _aliased_csv()[1], _respelled_V(small)]
             + [_edit_rows(small, how) for how in _NOT_ONE_GRID]
             + [text for text, _ in _ERROR_CASES])
    expect = [_outcome(t) for t in texts]
    assert expect[4][:2] == ("-0.0", "-0.0")
    assert expect[-len(_ERROR_CASES):] == [message for _, message in _ERROR_CASES]
    monkeypatch.setattr(regionscan, "_PIECE_BYTES", piece_bytes)   # also the size of a read
    assert [_outcome(t) for t in texts] == expect
    assert [_outcome(t, io.StringIO(t, newline="")) for t in texts] == expect


def test_parse_csv_reads_a_crlf_split_across_a_read_boundary(monkeypatch):
    grid = scan(small_spec(0.5, u_list=(0.25,), n=9))[0]
    text = _csv_text(grid).replace("\n", "\r\n")
    for row in (1, 5):   # cut the header's and a row's line end between "\r" and "\n"
        cut = [k for k, c in enumerate(text) if c == "\r"][row - 1] + 1
        monkeypatch.setattr(regionscan, "_PIECE_BYTES", cut)
        assert text[:cut].endswith("\r") and text[cut] == "\n"
        _assert_same_grid(parse_csv(io.BytesIO(text.encode())), grid)
        _assert_same_grid(parse_csv(io.StringIO(text, newline="")), grid)


def test_parse_csv_working_memory_is_bounded(tmp_path):
    # Beyond the result, parse_csv holds one piece's bytes, rows and fields,
    # the FEASIBLE rows' gamma spellings and a few integers per row: not the
    # file's bytes, which alone take 3.1 MiB here.
    grid = scan(ScanSpec(V=2 / 3, u_list=(0.0,)))[0]   # 221^2, the most FEASIBLE rows at V = 2/3
    path = tmp_path / "g.csv"
    emit_csv(grid, path)
    tracemalloc.start()
    try:
        back = parse_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_grid(back, grid)
    result = sum(a.nbytes for a in (back.s_values, back.s_prime_values, back.codes,
                                    back.gamma_lower, back.gamma_upper))
    assert path.stat().st_size > 3 * WORKING_SET_BYTES
    assert peak <= result + 3 * WORKING_SET_BYTES, (peak, result)


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


def _parsed_grid(s_values, s_prime_values):
    """A parsed all-OUTSIDE grid on the given axes."""
    rows = [f"0.5,0,{s},{sp},{OUTSIDE},," for s in s_values for sp in s_prime_values]
    return parse_csv(io.StringIO("\n".join([CSV_HEADER] + rows) + "\n"))


@pytest.mark.parametrize("s_values,s_prime_values,message", [
    ((0.5,), (0, 0.5, 1), "fewer than two s values, got 1"),
    ((0, 0.5, 1), (0.5,), "fewer than two s_prime values, got 1"),
    ((0, 0.1, 1), (0, 0.5, 1), "s values are not evenly spaced"),
    ((0, 0.5, 1), (0, 0.5, 0.6, 1), "s_prime values are not evenly spaced"),
])
def test_svg_rejects_a_grid_it_cannot_draw(s_values, s_prime_values, message, tmp_path):
    grid = _parsed_grid(s_values, s_prime_values)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        emit_svg(grid, buf)
    with pytest.raises(ValueError, match=message):
        emit_svg(grid, tmp_path / "g.svg")
    assert buf.getvalue() == "" and not (tmp_path / "g.svg").exists()


def test_svg_draws_every_spec_grid_and_its_parsed_copy():
    for spec in (small_spec(0.5, n=2), small_spec(2 / 3, n=221),
                 small_spec(0.25, s_range=(0.1, 0.3), sp_range=(1.0, 2.0), n=7)):
        grid = scan(spec)[0]
        drawn = io.StringIO()
        emit_svg(grid, drawn)
        parsed = io.StringIO()
        emit_svg(parse_csv(io.StringIO(_csv_text(grid))), parsed)
        assert parsed.getvalue() == drawn.getvalue()


def test_svg_is_well_formed_xml():
    import xml.dom.minidom
    grid = scan(small_spec(2 / 3, n=34))[0]
    buf = io.StringIO()
    emit_svg(grid, buf)
    xml.dom.minidom.parseString(buf.getvalue())


def test_svg_boundary_path_matches_per_segment_format():
    grid = scan(small_spec(2 / 3, u_list=(1 / 3,), n=29, s_range=(0.1, 2.3),
                           sp_range=(-0.2, 1.9)))[0]
    s, sp = grid.s_values.tolist(), grid.s_prime_values.tolist()
    ds, dsp = (s[-1] - s[0]) / (len(s) - 1), (sp[-1] - sp[0]) / (len(sp) - 1)
    x0, x1, y0, y1 = s[0] - ds / 2, s[-1] + ds / 2, sp[0] - dsp / 2, sp[-1] + dsp / 2
    W = SVG_SIZE - 2 * SVG_MARGIN
    segments = []
    for ia, ja, ib, jb in _boundary_segments(grid.codes >= _CLASS_CODES[NECESSARY_ONLY]).tolist():
        ends = (SVG_MARGIN + (s[0] + ia * ds - x0) / (x1 - x0) * W,
                SVG_MARGIN + (y1 - (sp[0] + ja * dsp)) / (y1 - y0) * W,
                SVG_MARGIN + (s[0] + ib * ds - x0) / (x1 - x0) * W,
                SVG_MARGIN + (y1 - (sp[0] + jb * dsp)) / (y1 - y0) * W)
        segments.append("M {} {} L {} {}".format(*(format(v, ".2f") for v in ends)))
    buf = io.StringIO()
    emit_svg(grid, buf)
    path = re.search(r'<path d="([^"]*)"', buf.getvalue()).group(1)
    assert len(segments) > 4 and path == " ".join(segments)


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
