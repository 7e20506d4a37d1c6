"""The text writers: a path, given as str or Path, and an open text file get the same bytes."""

import io

import pytest

from d1q3rv import regionscan, simulator
from d1q3rv.scheme import SchemeParameters


def _grid():
    spec = regionscan.ScanSpec(V=2 / 3, u_list=(1 / 3,), s_points=17, s_prime_points=13)
    return regionscan.scan(spec)[0]


def _result():
    p = SchemeParameters(V=0.25, u=0.0, s=1.9, s_prime=1.4, alpha=1 / 7)
    profile = simulator.InitialProfile(kind=simulator.STEP)
    return simulator.run(profile, simulator.default_grid(24), p, 30, snap_every=7)


WRITERS = {
    "emit_csv": lambda out: regionscan.emit_csv(_grid(), out),
    "emit_svg": lambda out: regionscan.emit_svg(_grid(), out),
    "write_diagnostics_csv": lambda out: simulator.write_diagnostics_csv(_result().diagnostics, out),
    "write_snapshots_csv": lambda out: simulator.write_snapshots_csv(_result(), out),
}


@pytest.mark.parametrize("name", WRITERS)
def test_paths_and_open_files_get_the_same_bytes(name, tmp_path):
    write = WRITERS[name]
    buf = io.StringIO()
    write(buf)
    assert not buf.closed   # an open file is written to, and left open
    write(str(tmp_path / "str.out"))
    write(tmp_path / "path.out")
    want = buf.getvalue().encode("utf-8")
    assert len(want) > 100
    assert (tmp_path / "str.out").read_bytes() == want
    assert (tmp_path / "path.out").read_bytes() == want


def test_emit_svg_checks_each_axis_once(tmp_path, monkeypatch):
    step, checked = regionscan._step, []

    def counting_step(values, name):
        checked.append(name)
        return step(values, name)

    monkeypatch.setattr(regionscan, "_step", counting_step)
    grid = _grid()
    regionscan.emit_svg(grid, tmp_path / "g.svg")
    assert checked == ["s", "s_prime"]
    checked.clear()
    regionscan.emit_svg(grid, io.StringIO())
    assert checked == ["s", "s_prime"]
