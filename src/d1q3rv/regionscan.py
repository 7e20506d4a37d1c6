"""Grid classification of the (s, s') parameter plane.

For a fixed advection velocity V and each relative velocity u in a list,
every grid point is labelled FEASIBLE (some alpha gives a non-negative
relaxation operator), NECESSARY_ONLY (inside the necessary-condition
polytope but not feasible), or OUTSIDE.  Grids serialize to CSV and to a
self-contained SVG picture with the feasible set filled gray and the
necessary region outlined with a dotted boundary.
"""

from __future__ import annotations

import itertools
import math
import numpy as np
from contextlib import nullcontext
from dataclasses import dataclass

from .scheme import WORKING_SET_BYTES, _integer, _real, _write_lines
from .stability import _feasibility, necessary_region

FEASIBLE = "FEASIBLE"
NECESSARY_ONLY = "NECESSARY_ONLY"
OUTSIDE = "OUTSIDE"

_CLASS_NAMES = (OUTSIDE, NECESSARY_ONLY, FEASIBLE)
_CLASS_CODES = {name: code for code, name in enumerate(_CLASS_NAMES)}
_CLASS_BYTES = {name.encode(): code for name, code in _CLASS_CODES.items()}

CSV_HEADER = "V,u,s,s_prime,class,gamma_lower,gamma_upper"

# parse_csv reads and tokenizes a file in pieces of about this many bytes:
# 1,600-1,900 rows of a region CSV, whose row and field objects take about
# 0.75 MiB (tracemalloc), within WORKING_SET_BYTES.  A piece ends just after
# its last byte that bytes.split() splits on, so no row spans two pieces.
_PIECE_BYTES = WORKING_SET_BYTES // 8
_NOT_WHITESPACE = bytes(sorted(set(range(256)) - set(b" \t\n\r\x0b\x0c")))


def default_u_list(V: float) -> tuple:
    """The relative velocities conventionally scanned alongside a given V:
    -2V, -V, 0, V/2, V and 2V, every zero among them +0.0."""
    return tuple(u + 0.0 for u in (-2.0 * V, -V, 0.0, V / 2.0, V, 2.0 * V))


@dataclass(frozen=True)
class ScanSpec:
    """What to scan: one V, several u, and the (s, s') grid.

    V, each u and both ends of each range are stored as Python floats, and
    the point counts as ints; a value that is not a real number, or does not
    fit a float, is a ValueError naming its field.
    """

    V: float
    u_list: tuple = None
    s_range: tuple = (0.0, 2.2)
    s_prime_range: tuple = (0.0, 2.2)
    s_points: int = 221
    s_prime_points: int = 221

    def __post_init__(self):
        V = _real(self.V, "V")
        default = self.u_list is None
        u_list = (default_u_list(V) if default
                  else tuple(_real(u, f"u_list[{i}]") for i, u in enumerate(self.u_list)))
        ranges = [tuple(_real(x, f"{name}_range[{i}]") for i, x in enumerate(rng))
                  for rng, name in ((self.s_range, "s"), (self.s_prime_range, "s_prime"))]
        for field, value in zip(("V", "u_list", "s_range", "s_prime_range"), (V, u_list, *ranges)):
            object.__setattr__(self, field, value)
        if not math.isfinite(V):
            raise ValueError(f"V must be finite, got {V}")
        if not all(map(math.isfinite, u_list)):
            raise ValueError((f"V={V:g} overflows its default u_list" if default
                              else "u_list must be finite") + f", got {u_list}")
        for rng, npts, name in ((ranges[0], self.s_points, "s"),
                                (ranges[1], self.s_prime_points, "s_prime")):
            npts = _integer(npts, f"{name}_points")
            if npts < 2:
                raise ValueError(f"{name}_points must be >= 2, got {npts}")
            object.__setattr__(self, f"{name}_points", npts)
            if not rng[1] > rng[0]:
                raise ValueError(f"{name}_range must be non-degenerate, got {rng}")
            if not all(map(math.isfinite, rng)):
                raise ValueError(f"{name}_range must be finite, got {rng}")

    def s_values(self) -> np.ndarray:
        return np.linspace(self.s_range[0], self.s_range[1], self.s_points)

    def s_prime_values(self) -> np.ndarray:
        return np.linspace(self.s_prime_range[0], self.s_prime_range[1], self.s_prime_points)


@dataclass(frozen=True)
class RegionGrid:
    """Classified grid for one (V, u) pair.

    codes[i, j] classifies (s_values[i], s_prime_values[j]); gamma_lower and
    gamma_upper hold the feasible gamma interval where codes == FEASIBLE
    (NaN elsewhere).
    """

    V: float
    u: float
    s_values: np.ndarray
    s_prime_values: np.ndarray
    codes: np.ndarray
    gamma_lower: np.ndarray
    gamma_upper: np.ndarray

    def count(self, name: str) -> int:
        return int(np.sum(self.codes == _CLASS_CODES[name]))


def scan(spec: ScanSpec) -> list:
    """Classify the grid for every u in the spec; one RegionGrid per u.

    A finite spec whose products overflow classifies without NumPy warnings:
    an inf slack or bound compares as IEEE floats do, and a cell whose chain
    bounds are NaN is never FEASIBLE.
    """
    s = spec.s_values()
    sp = spec.s_prime_values()
    S, SP = np.meshgrid(s, sp, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        outer = np.where(necessary_region(spec.V, S, SP), _CLASS_CODES[NECESSARY_ONLY],
                         _CLASS_CODES[OUTSIDE])
        grids = []
        for u in spec.u_list:
            lower, upper, _, feasible = _feasibility(spec.V, u, S, SP)
            grids.append(RegionGrid(
                V=spec.V, u=float(u), s_values=s, s_prime_values=sp,
                codes=np.where(feasible, _CLASS_CODES[FEASIBLE], outer).astype(np.int8),
                gamma_lower=np.where(feasible, lower, np.nan),
                gamma_upper=np.where(feasible, upper, np.nan)))
    return grids


def emit_csv(grid: RegionGrid, out) -> None:
    """Write one grid as CSV (s-major row order, 17 significant digits).

    out is a text-mode file object or a path.  Non-feasible rows leave the
    gamma fields empty.  Each value is formatted once, as format(v, '.17g'),
    a gamma value once however many cells share it, and each s row is one
    join of pieces; identical grids give identical bytes.
    """
    head = "%.17g,%.17g," % (grid.V, grid.u)
    pieces = np.empty(grid.codes.shape + (3,), object)   # head and s; s'; class and gamma
    pieces[..., 0] = [[head + "%.17g," % s] for s in grid.s_values.tolist()]
    pieces[..., 1] = list(map("%.17g,".__mod__, grid.s_prime_values.tolist()))
    pieces[..., 2] = np.array([f"{name},,\n" for name in _CLASS_NAMES], object)[grid.codes]
    feasible = grid.codes == _CLASS_CODES[FEASIBLE]
    # a grid has few distinct gamma values: format each bit pattern once
    gamma = np.array((grid.gamma_lower[feasible], grid.gamma_upper[feasible]), float)
    bits, inverse = np.unique(gamma.view(np.int64).ravel(), return_inverse=True)
    text = np.array(list(map("%.17g".__mod__, bits.view(float).tolist())), object)
    pieces[feasible, 2] = list(map(f"{FEASIBLE},%s,%s\n".__mod__,
                                   zip(*text[inverse.reshape(gamma.shape)].tolist())))
    rows = ("".join(row.ravel().tolist()) for row in pieces)
    _write_lines(out, itertools.chain((CSV_HEADER + "\n",), rows))


def _floats(spellings: list) -> list:
    """Python float of each bytes spelling; a bad one fails as its text does."""
    try:
        return list(map(float, spellings))
    except ValueError:
        return [float(x.decode(errors="replace")) for x in spellings]


def _ids(ids: dict, column: list, first_row: int) -> np.ndarray:
    """Each row's spelling id; a spelling new to ids takes the number of its row."""
    return np.fromiter(map(ids.setdefault, column, itertools.count(first_row)), np.intp,
                       len(column))


def _distinct(ids: dict, column_ids: np.ndarray):
    """From spelling ids: (the float of each distinct spelling, each row's index into them).

    Converts each distinct spelling once, so '-0' and '0' stay -0.0 and +0.0;
    a spelling that is not a number raises ValueError.
    """
    index = np.empty(len(column_ids), np.intp)
    index[list(ids.values())] = np.arange(len(ids))
    return np.array(_floats(list(ids)), float), index[column_ids]


def _axis(ids: dict, column_ids: np.ndarray):
    """A grid axis from spelling ids: (sorted distinct values, each row's index).

    np.unique runs on the distinct floats, so spellings of one value ('0.5'
    and '0.50', '0' and '-0') share an index.
    """
    values, index = _distinct(ids, column_ids)
    values, inverse = np.unique(values, return_inverse=True)
    return values, inverse[index]


def _pieces(source):
    """The bytes read from source, _PIECE_BYTES at a time, in pieces that each
    end just after the last ASCII whitespace byte read so far: the bytes after
    it, a row cut by the read, open the next piece.  A str read is encoded."""
    rest = b""
    while chunk := source.read(_PIECE_BYTES):
        data = rest + (chunk.encode() if isinstance(chunk, str) else chunk)
        piece = data.rstrip(_NOT_WHITESPACE)   # up to its last whitespace byte
        rest = data[len(piece):]
        yield piece
    yield rest


def parse_csv(source) -> RegionGrid:
    """Read back a grid written by emit_csv (exact round trip).

    source is a path or a text or binary file, tokenized as bytes: rows are
    split on ASCII whitespace, which no field contains.  The text is read and
    tokenized a piece of about _PIECE_BYTES at a time, so beyond the result it
    holds one piece's bytes and fields, a few integers per row, one spelling
    id per FEASIBLE row and gamma bound, and the distinct spellings.  A piece
    whose rows repeat one V and one u spelling, as emit_csv writes, costs
    one list count per column; Python's float converts each distinct s, s'
    and FEASIBLE gamma spelling once, and a gamma bound keeps the value of
    its own spelling ('-0' is -0.0).
    Raises ValueError on empty input, a wrong header, no rows, rows without
    exactly seven fields, rows that are not one grid: one V and one u, each
    (s, s') cell once, a V, u, s or s' value that is not finite, gamma text
    on a row that is not FEASIBLE, or a FEASIBLE gamma bound that is not
    finite.
    """
    n_fields = CSV_HEADER.count(",") + 1
    header, n_rows, n_feasible, empty_gamma = None, 0, 0, 0
    V, u = {}, {}   # distinct spellings in order
    s, sp, lo, hi = {}, {}, {}, {}   # each maps a distinct spelling to an id
    codes, i, j, lower, upper = [], [], [], [], []
    with nullcontext(source) if hasattr(source, "read") else open(source, "rb") as fh:
        for piece in _pieces(fh):
            rows = piece.split()
            if header is None and rows:
                header = rows.pop(0)
                if header != CSV_HEADER.encode():
                    raise ValueError(f"unrecognized CSV header: {header.decode(errors='replace')!r}")
            if not rows:
                continue
            # ",\n" joins the rows, so each row but the first starts its V field with
            # "\n": a row with too many or too few fields moves a mark out of the V column
            fields = b",\n".join(rows).split(b",")
            V_col, u_col = fields[::n_fields], fields[1::n_fields]
            # emit_csv repeats one V: then every V field after the first is the
            # last one, which carries a row mark, and the marks need no count
            one_V = V_col[-1][:1] == b"\n" and V_col.count(V_col[-1]) == len(rows) - 1
            if len(fields) != n_fields * len(rows) or (
                    not one_V and b"".join(V_col).count(b"\n") != len(rows) - 1):
                raise ValueError(f"region CSV rows must have {n_fields} fields")
            names = fields[4::n_fields]
            try:
                piece_codes = np.fromiter(map(_CLASS_BYTES.__getitem__, names), np.int8, len(names))
            except KeyError as exc:
                name = exc.args[0].decode(errors="replace")
                raise ValueError(f"unknown region class {name!r}") from None
            codes.append(piece_codes)
            V.update(dict.fromkeys((V_col[0], V_col[-1]) if one_V else V_col))
            u.update(dict.fromkeys(u_col[:1] if u_col.count(u_col[0]) == len(rows) else u_col))
            i.append(_ids(s, fields[2::n_fields], n_rows))
            j.append(_ids(sp, fields[3::n_fields], n_rows))
            n_rows += len(rows)
            feasible = np.flatnonzero(piece_codes == _CLASS_CODES[FEASIBLE]).tolist()
            lo_col, hi_col = fields[5::n_fields], fields[6::n_fields]
            lower.append(_ids(lo, [lo_col[k] for k in feasible], n_feasible))
            upper.append(_ids(hi, [hi_col[k] for k in feasible], n_feasible))
            n_feasible += len(feasible)
            empty_gamma += lo_col.count(b"") + hi_col.count(b"")
    if header is None:
        raise ValueError("empty region CSV: no header")
    if not codes:
        raise ValueError("region CSV has a header but no rows")
    V = list(dict.fromkeys(x.lstrip() for x in V))   # without the row marks
    for spellings in (V, list(u)):  # one spelling, as emit_csv writes, or else one value
        if len(spellings) > 1 and len(set(_floats(spellings))) != 1:
            raise ValueError("region CSV rows must share one V and one u")
    s_vals, i = _axis(s, np.concatenate(i))
    sp_vals, j = _axis(sp, np.concatenate(j))
    shape = (len(s_vals), len(sp_vals))
    cell = i * shape[1] + j  # row-major index into the grid
    if (np.bincount(cell, minlength=shape[0] * shape[1]) != 1).any():
        raise ValueError("region CSV must hold each (s, s') grid cell exactly once")
    flat_codes = np.concatenate(codes)
    codes = np.zeros(cell.size, np.int8)
    codes[cell] = flat_codes
    gamma = np.full((2, cell.size), np.nan)
    feasible = cell[flat_codes == _CLASS_CODES[FEASIBLE]]
    for bound, ids, column_ids in ((0, lo, lower), (1, hi, upper)):
        values, index = _distinct(ids, np.concatenate(column_ids))
        gamma[bound, feasible] = values[index]
    V, u = float(V[0]), float(next(iter(u)))
    if not np.isfinite(np.concatenate(([V, u], s_vals, sp_vals))).all():
        raise ValueError("region CSV values of V, u, s and s_prime must be finite")
    # no FEASIBLE row has an empty gamma field now; emit_csv leaves both of the others' empty
    if empty_gamma != 2 * (n_rows - n_feasible):
        raise ValueError(f"region CSV gamma fields must be empty on {OUTSIDE} and "
                         f"{NECESSARY_ONLY} rows")
    if not np.isfinite(gamma[:, feasible]).all():
        raise ValueError(f"region CSV gamma bounds of {FEASIBLE} rows must be finite")
    return RegionGrid(V=V, u=u, s_values=s_vals, s_prime_values=sp_vals, codes=codes.reshape(shape),
                      gamma_lower=gamma[0].reshape(shape), gamma_upper=gamma[1].reshape(shape))


# SVG geometry and colours, in pixels
SVG_SIZE = 480
SVG_MARGIN = 48
FEASIBLE_FILL = "#b0b0b0"
BOUNDARY_STROKE = "#303030"


def _merge_rectangles(mask: np.ndarray) -> np.ndarray:
    """Greedy decomposition of a cell mask into axis-aligned index rectangles.

    Columns (fixed i) are split into runs of consecutive True cells; runs
    identical across adjacent columns merge horizontally, so a fully True
    mask yields a single rectangle.  Returns an (n, 4) int array of rows
    (i0, i1, j0, j1) in sorted order.
    """
    edges = np.diff(np.pad(mask.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    i, j0 = np.nonzero(edges == 1)
    j1 = np.nonzero(edges == -1)[1] - 1
    order = np.lexsort((i, j1, j0))
    i, j0, j1 = i[order], j0[order], j1[order]
    # a rectangle starts where the run changes or a column is skipped
    first = np.ones(len(i), bool)
    first[1:] = (j0[1:] != j0[:-1]) | (j1[1:] != j1[:-1]) | (i[1:] != i[:-1] + 1)
    last = np.roll(first, -1)  # the run before a start ends a rectangle; first[0] is True
    rects = np.column_stack((i[first], i[last], j0[first], j1[first]))
    return rects[np.lexsort(rects.T[::-1])]


# (ia, ja, ib, jb) of the edge of cell (0, 0) toward i-1, i+1, j-1 and j+1
_SIDE_EDGES = np.array([[-0.5, -0.5, -0.5, 0.5], [0.5, -0.5, 0.5, 0.5],
                        [-0.5, -0.5, 0.5, -0.5], [-0.5, 0.5, 0.5, 0.5]])


def _boundary_segments(mask: np.ndarray) -> np.ndarray:
    """Unit edges separating True cells from False/off-grid neighbors.

    Returned as rows (ia, ja, ib, jb) in half-step cell-index coordinates:
    each row is the segment from (ia, ja) to (ib, jb) on the dual lattice
    bounding cell (i, j) between i +- 1/2 and j +- 1/2.  Cells come in
    row-major order, and a cell's edges in the order of _SIDE_EDGES.
    """
    padded = np.pad(mask, 1)
    inner = padded[1:-1, 1:-1]
    open_side = np.stack([inner & ~padded[:-2, 1:-1], inner & ~padded[2:, 1:-1],
                          inner & ~padded[1:-1, :-2], inner & ~padded[1:-1, 2:]], axis=-1)
    i, j, side = np.nonzero(open_side)
    return np.column_stack([i, j, i, j]) + _SIDE_EDGES[side]


def _ticks(lo: float, hi: float):
    step = 0.5 if hi - lo > 1.0 else 0.1
    t = np.arange(np.ceil(lo / step) * step, hi + step / 2, step)
    return [round(v, 6) for v in t]


def _step(values: np.ndarray, name: str) -> float:
    """The spacing of an axis a grid picture can draw: two or more evenly spaced values."""
    if len(values) < 2:
        raise ValueError(f"cannot draw a grid with fewer than two {name} values, got {len(values)}")
    step = (values[-1] - values[0]) / (len(values) - 1)
    if not (np.abs(np.diff(values) - step) <= 1e-9 * abs(step)).all():
        raise ValueError(f"cannot draw a grid whose {name} values are not evenly spaced")
    return step


def emit_svg(grid: RegionGrid, out) -> None:
    """Render one grid to a static SVG.

    FEASIBLE cells are drawn as merged gray rectangles; the boundary of the
    necessary region (feasible plus necessary-only cells) is drawn dotted;
    axes are labelled s and s'.  Raises ValueError, before writing, unless
    each axis has two or more values spaced evenly to within 1e-9 relative.
    out is a text-mode file object or a path.
    """
    ds, dsp = _step(grid.s_values, "s"), _step(grid.s_prime_values, "s_prime")
    _write_lines(out, _svg_lines(grid, ds, dsp))


def _svg_lines(grid: RegionGrid, ds: float, dsp: float):
    """emit_svg's picture of grid, whose axes step by ds and dsp, line by line."""
    s, sp = grid.s_values, grid.s_prime_values
    # plot window covers cell footprints (half a cell beyond the end values)
    x0, x1 = s[0] - ds / 2, s[-1] + ds / 2
    y0, y1 = sp[0] - dsp / 2, sp[-1] + dsp / 2
    W = H = SVG_SIZE - 2 * SVG_MARGIN

    def px(sv):
        return SVG_MARGIN + (sv - x0) / (x1 - x0) * W

    def py(spv):
        return SVG_MARGIN + (y1 - spv) / (y1 - y0) * H

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
           f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n')
    yield f'<rect x="0" y="0" width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n'
    yield (f'<text x="{SVG_SIZE / 2:.1f}" y="{SVG_MARGIN / 2:.1f}" text-anchor="middle" '
           f'font-size="13">V = {grid.V:g}, u = {grid.u:g}</text>\n')

    feasible = grid.codes == _CLASS_CODES[FEASIBLE]
    i0, i1, j0, j1 = _merge_rectangles(feasible).T
    rx, ry = px(s[i0] - ds / 2), py(sp[j1] + dsp / 2)
    boxes = zip(*(v.tolist() for v in (rx, ry, px(s[i1] + ds / 2) - rx, py(sp[j0] - dsp / 2) - ry)))
    yield "".join(map('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                      f'fill="{FEASIBLE_FILL}" stroke="none"/>\n'.__mod__, boxes))

    necessary = grid.codes >= _CLASS_CODES[NECESSARY_ONLY]
    if necessary.any():
        ia, ja, ib, jb = _boundary_segments(necessary).T
        ends = (px(s[0] + ia * ds), py(sp[0] + ja * dsp), px(s[0] + ib * ds), py(sp[0] + jb * dsp))
        path = " ".join(map("M %.2f %.2f L %.2f %.2f".__mod__, zip(*(v.tolist() for v in ends))))
        yield (f'<path d="{path}" stroke="{BOUNDARY_STROKE}" stroke-width="1" '
               f'stroke-dasharray="2,3" fill="none"/>\n')

    # axes with ticks and labels
    ax_y = py(y0)
    ax_x = px(x0)
    yield (f'<line x1="{ax_x:.1f}" y1="{ax_y:.1f}" x2="{px(x1):.1f}" y2="{ax_y:.1f}" '
           f'stroke="black" stroke-width="1"/>\n')
    yield (f'<line x1="{ax_x:.1f}" y1="{ax_y:.1f}" x2="{ax_x:.1f}" y2="{py(y1):.1f}" '
           f'stroke="black" stroke-width="1"/>\n')
    for t in _ticks(x0, x1):
        yield (f'<line x1="{px(t):.1f}" y1="{ax_y:.1f}" x2="{px(t):.1f}" y2="{ax_y + 4:.1f}" '
               f'stroke="black" stroke-width="1"/>\n')
        yield (f'<text x="{px(t):.1f}" y="{ax_y + 16:.1f}" text-anchor="middle" '
               f'font-size="10">{t:g}</text>\n')
    for t in _ticks(y0, y1):
        yield (f'<line x1="{ax_x - 4:.1f}" y1="{py(t):.1f}" x2="{ax_x:.1f}" y2="{py(t):.1f}" '
               f'stroke="black" stroke-width="1"/>\n')
        yield (f'<text x="{ax_x - 7:.1f}" y="{py(t) + 3:.1f}" text-anchor="end" '
               f'font-size="10">{t:g}</text>\n')
    yield (f'<text x="{px(x1) + 4:.1f}" y="{ax_y + 4:.1f}" font-size="12" '
           f'font-style="italic">s</text>\n')
    yield (f'<text x="{ax_x - 4:.1f}" y="{py(y1) - 8:.1f}" font-size="12" '
           f'font-style="italic" text-anchor="end">s&#8242;</text>\n')
    yield "</svg>\n"
