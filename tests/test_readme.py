import re
import shlex
from pathlib import Path

from d1q3rv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    block = re.match(rf"\s*```{language}\n(.*?)```", section, re.S)
    assert block, f"README has no {language} block under {heading!r}"
    return block.group(1)


def test_readme_library_example_runs():
    # pytest turns every warning into an error, so the example must also run cleanly
    exec(compile(_block("Library example", "python"), str(README), "exec"), {})


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    # each d1q3rv line of the block, its backslash continuations joined, run in a scratch directory
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("d1q3rv ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
