"""Grid classification of the (s, s') parameter plane.

For a fixed advection velocity V and each relative velocity u in a list,
every grid point is labelled FEASIBLE (some alpha gives a non-negative
relaxation operator), NECESSARY_ONLY (inside the necessary-condition
polytope but not feasible), or OUTSIDE.  Grids serialize to CSV and to a
self-contained SVG picture with the feasible set filled gray and the
necessary region outlined with a dotted boundary.
"""

from __future__ import annotations

import io
import numpy as np
from dataclasses import dataclass

from .stability import alpha_feasible, chain_bounds, necessary_region

FEASIBLE = "FEASIBLE"
NECESSARY_ONLY = "NECESSARY_ONLY"
OUTSIDE = "OUTSIDE"

_CLASS_NAMES = (OUTSIDE, NECESSARY_ONLY, FEASIBLE)
_CLASS_CODES = {name: code for code, name in enumerate(_CLASS_NAMES)}

CSV_HEADER = "V,u,s,s_prime,class,gamma_lower,gamma_upper"


def default_u_list(V: float) -> tuple:
    """The relative velocities conventionally scanned alongside a given V."""
    return (-2.0 * V, -V, 0.0, V / 2.0, V, 2.0 * V)


@dataclass(frozen=True)
class ScanSpec:
    """What to scan: one V, several u, and the (s, s') grid."""

    V: float
    u_list: tuple = None
    s_range: tuple = (0.0, 2.2)
    s_prime_range: tuple = (0.0, 2.2)
    s_points: int = 221
    s_prime_points: int = 221

    def __post_init__(self):
        if self.u_list is None:
            object.__setattr__(self, "u_list", default_u_list(self.V))
        else:
            object.__setattr__(self, "u_list", tuple(float(u) for u in self.u_list))
        for rng, npts, name in ((self.s_range, self.s_points, "s"),
                                (self.s_prime_range, self.s_prime_points, "s_prime")):
            if npts < 2:
                raise ValueError(f"{name}_points must be >= 2, got {npts}")
            if not rng[1] > rng[0]:
                raise ValueError(f"{name}_range must be non-degenerate, got {rng}")

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

    def classification(self, i: int, j: int) -> str:
        return _CLASS_NAMES[self.codes[i, j]]

    def count(self, name: str) -> int:
        return int(np.sum(self.codes == _CLASS_CODES[name]))


def scan(spec: ScanSpec) -> list:
    """Classify the grid for every u in the spec; one RegionGrid per u."""
    s = spec.s_values()
    sp = spec.s_prime_values()
    S, SP = np.meshgrid(s, sp, indexing="ij")
    outer = np.where(necessary_region(spec.V, S, SP), _CLASS_CODES[NECESSARY_ONLY],
                     _CLASS_CODES[OUTSIDE])
    grids = []
    for u in spec.u_list:
        feasible = alpha_feasible(spec.V, u, S, SP)
        lower, upper = chain_bounds(spec.V, u, S, SP)
        grids.append(RegionGrid(
            V=spec.V, u=float(u), s_values=s, s_prime_values=sp,
            codes=np.where(feasible, _CLASS_CODES[FEASIBLE], outer).astype(np.int8),
            gamma_lower=np.where(feasible, lower / 2.0, np.nan),
            gamma_upper=np.where(feasible, upper / 2.0, np.nan)))
    return grids


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_all(a) -> np.ndarray:
    """Object array of each value as _fmt writes it ('%.17g' is the same format)."""
    return np.char.mod("%.17g", np.asarray(a, float)).astype(object)


def emit_csv(grid: RegionGrid, out) -> None:
    """Write one grid as CSV (s-major row order, 17 significant digits).

    out is a text-mode file object or a path.  Non-feasible rows leave the
    gamma fields empty.  Output is a pure function of the grid, so identical
    scans serialize byte-identically.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit_csv(grid, fh)
        return
    tails = np.array([f"{name},,\n" for name in _CLASS_NAMES], dtype=object)[grid.codes]
    feasible = grid.codes == _CLASS_CODES[FEASIBLE]
    tails[feasible] = (FEASIBLE + "," + _fmt_all(grid.gamma_lower[feasible]) + ","
                       + _fmt_all(grid.gamma_upper[feasible]) + "\n")
    heads = _fmt(grid.V) + "," + _fmt(grid.u) + "," + _fmt_all(grid.s_values) + ","
    lines = heads[:, None] + (_fmt_all(grid.s_prime_values) + ",")[None, :] + tails
    out.write(CSV_HEADER + "\n")
    out.write("".join(lines.ravel()))


def parse_csv(source) -> RegionGrid:
    """Read back a grid written by emit_csv (exact round trip).

    Lines are split on whitespace, which no field contains.  Raises
    ValueError on empty input, a wrong header, no rows, or malformed rows.
    """
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_csv(fh)
    lines = source.read().split()
    if not lines:
        raise ValueError("empty region CSV: no header")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header: {lines[0]!r}")
    if len(lines) == 1:
        raise ValueError("region CSV has a header but no rows")
    n_fields = CSV_HEADER.count(",") + 1
    fields = ",".join(lines[1:]).split(",")
    if len(fields) != n_fields * (len(lines) - 1):
        raise ValueError(f"region CSV rows must have {n_fields} fields")
    V, u, s, sp, names, lower, upper = (fields[k::n_fields] for k in range(n_fields))
    try:
        flat_codes = np.fromiter(map(_CLASS_CODES.__getitem__, names), np.int8, len(names))
    except KeyError as exc:
        raise ValueError(f"unknown region class {exc.args[0]!r}") from None
    s_vals, i = np.unique(np.array(s, float), return_inverse=True)
    sp_vals, j = np.unique(np.array(sp, float), return_inverse=True)
    shape = (len(s_vals), len(sp_vals))
    codes = np.zeros(shape, np.int8)
    codes[i, j] = flat_codes
    feasible = flat_codes == _CLASS_CODES[FEASIBLE]
    glo = np.full(shape, np.nan)
    ghi = np.full(shape, np.nan)
    glo[i[feasible], j[feasible]] = np.array(lower, object)[feasible].astype(float)
    ghi[i[feasible], j[feasible]] = np.array(upper, object)[feasible].astype(float)
    return RegionGrid(V=float(V[0]), u=float(u[0]), s_values=s_vals, s_prime_values=sp_vals,
                      codes=codes, gamma_lower=glo, gamma_upper=ghi)


# SVG geometry and colours, in pixels
SVG_SIZE = 480
SVG_MARGIN = 48
FEASIBLE_FILL = "#b0b0b0"
BOUNDARY_STROKE = "#303030"


def _merge_rectangles(mask: np.ndarray):
    """Greedy decomposition of a cell mask into axis-aligned index rectangles.

    Columns (fixed i) are split into runs of consecutive True cells; runs
    identical across adjacent columns merge horizontally, so a fully True
    mask yields a single rectangle.  Rectangles (i0, i1, j0, j1) come sorted.
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
    return list(map(tuple, rects[np.lexsort(rects.T[::-1])].tolist()))


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


def emit_svg(grid: RegionGrid, out) -> None:
    """Render one grid to a static SVG.

    FEASIBLE cells are drawn as merged gray rectangles; the boundary of the
    necessary region (feasible plus necessary-only cells) is drawn dotted;
    axes are labelled s and s'.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit_svg(grid, fh)
        return
    s = grid.s_values
    sp = grid.s_prime_values
    ds = (s[-1] - s[0]) / (len(s) - 1)
    dsp = (sp[-1] - sp[0]) / (len(sp) - 1)
    # plot window covers cell footprints (half a cell beyond the end values)
    x0, x1 = s[0] - ds / 2, s[-1] + ds / 2
    y0, y1 = sp[0] - dsp / 2, sp[-1] + dsp / 2
    W = H = SVG_SIZE - 2 * SVG_MARGIN

    def px(sv):
        return SVG_MARGIN + (sv - x0) / (x1 - x0) * W

    def py(spv):
        return SVG_MARGIN + (y1 - spv) / (y1 - y0) * H

    buf = io.StringIO()
    buf.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    buf.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{SVG_SIZE}" height="{SVG_SIZE}" '
              f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n')
    buf.write(f'<rect x="0" y="0" width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>\n')
    buf.write(f'<text x="{SVG_SIZE / 2:.1f}" y="{SVG_MARGIN / 2:.1f}" text-anchor="middle" '
              f'font-size="13">V = {grid.V:g}, u = {grid.u:g}</text>\n')

    feasible = grid.codes == _CLASS_CODES[FEASIBLE]
    for i0, i1, j0, j1 in _merge_rectangles(feasible):
        rx = px(s[i0] - ds / 2)
        ry = py(sp[j1] + dsp / 2)
        rw = px(s[i1] + ds / 2) - rx
        rh = py(sp[j0] - dsp / 2) - ry
        buf.write(f'<rect x="{rx:.2f}" y="{ry:.2f}" width="{rw:.2f}" height="{rh:.2f}" '
                  f'fill="{FEASIBLE_FILL}" stroke="none"/>\n')

    necessary = grid.codes >= _CLASS_CODES[NECESSARY_ONLY]
    if necessary.any():
        ia, ja, ib, jb = _boundary_segments(necessary).T
        xa, ya, xb, yb = (np.char.mod("%.2f", v).astype(object)
                          for v in (px(s[0] + ia * ds), py(sp[0] + ja * dsp),
                                    px(s[0] + ib * ds), py(sp[0] + jb * dsp)))
        path = " ".join("M " + xa + " " + ya + " L " + xb + " " + yb)
        buf.write(f'<path d="{path}" stroke="{BOUNDARY_STROKE}" stroke-width="1" '
                  f'stroke-dasharray="2,3" fill="none"/>\n')

    # axes with ticks and labels
    ax_y = py(y0)
    ax_x = px(x0)
    buf.write(f'<line x1="{ax_x:.1f}" y1="{ax_y:.1f}" x2="{px(x1):.1f}" y2="{ax_y:.1f}" '
              f'stroke="black" stroke-width="1"/>\n')
    buf.write(f'<line x1="{ax_x:.1f}" y1="{ax_y:.1f}" x2="{ax_x:.1f}" y2="{py(y1):.1f}" '
              f'stroke="black" stroke-width="1"/>\n')
    for t in _ticks(x0, x1):
        buf.write(f'<line x1="{px(t):.1f}" y1="{ax_y:.1f}" x2="{px(t):.1f}" y2="{ax_y + 4:.1f}" '
                  f'stroke="black" stroke-width="1"/>\n')
        buf.write(f'<text x="{px(t):.1f}" y="{ax_y + 16:.1f}" text-anchor="middle" '
                  f'font-size="10">{t:g}</text>\n')
    for t in _ticks(y0, y1):
        buf.write(f'<line x1="{ax_x - 4:.1f}" y1="{py(t):.1f}" x2="{ax_x:.1f}" y2="{py(t):.1f}" '
                  f'stroke="black" stroke-width="1"/>\n')
        buf.write(f'<text x="{ax_x - 7:.1f}" y="{py(t) + 3:.1f}" text-anchor="end" '
                  f'font-size="10">{t:g}</text>\n')
    buf.write(f'<text x="{px(x1) + 4:.1f}" y="{ax_y + 4:.1f}" font-size="12" '
              f'font-style="italic">s</text>\n')
    buf.write(f'<text x="{ax_x - 4:.1f}" y="{py(y1) - 8:.1f}" font-size="12" '
              f'font-style="italic" text-anchor="end">s&#8242;</text>\n')
    buf.write("</svg>\n")
    out.write(buf.getvalue())
