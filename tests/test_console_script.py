"""The command line as a user runs it: one process per run.

Each run is the installed ``d1q3rv`` script when it is on PATH, and
``python -m d1q3rv`` otherwise, with ``PYTHONWARNINGS=error`` (any warning
is a traceback and a failed run) and this checkout's ``src`` on PYTHONPATH.
It runs in an empty directory, and must exit with its code, print no
traceback and leave exactly its files there, each non-empty.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from d1q3rv.regionscan import parse_csv

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = shutil.which("d1q3rv")
COMMAND = [SCRIPT] if SCRIPT else [sys.executable, "-m", "d1q3rv"]
REGION_FILES = [f"r_u{i}.{ext}" for i in range(6) for ext in ("csv", "svg")]

# command line after "d1q3rv", exit code, files written
RUNS = [
    ("matrix --V 0.25 --u 0 --s 1 --sp 1 --alpha 0", 0, []),
    ("check --V 0.25 --u 0 --s 1 --sp 1 --alpha 0", 0, []),
    ("check --V 0.25 --u 0 --s 1 --sp 1", 0, []),
    ("check --V 0 --u 0 --s -0 --sp 0", 0, []),
    ("check --V 0.25 --u 0.25 --s 1.6 --sp 1.3 --alpha 0", 1, []),
    ("check --V 1e6 --u 1e5 --s 1e-17 --sp 0", 1, []),
    ("reproduce", 0, []),
    ("region --V 2/3 --grid 21", 0, []),
    ("region --V 2/3 --grid 21 --out-csv r.csv --out-svg r.svg", 0, REGION_FILES),
    ("simulate --V 0.25 --u 0 --s 1 --sp 1 --alpha 0 --steps 50 --ncells 40", 0, []),
    ("simulate --V 0.25 --u 0 --s 1 --sp 1 --alpha 0 --steps 50 --ncells 40 "
     "--snap-every 10 --out d.csv", 0, ["d.csv", "d.snapshots.csv"]),
]


@pytest.mark.parametrize("args,code,files", RUNS, ids=[args for args, _, _ in RUNS])
def test_console_script_run(args, code, files, tmp_path):
    env = dict(os.environ, PYTHONWARNINGS="error", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(COMMAND + shlex.split(args), cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    assert all((tmp_path / name).stat().st_size > 0 for name in files)
    for name in files:
        if name.startswith("r_") and name.endswith(".csv"):
            parse_csv(tmp_path / name)
