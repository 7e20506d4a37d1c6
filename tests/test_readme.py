import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # pytest turns every warning into an error, so the example must also run cleanly
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S)
    assert block, "README has no python block under 'Library example'"
    exec(compile(block.group(1), str(README), "exec"), {})
