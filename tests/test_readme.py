"""README's Quick-start example must run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert blocks, "README's Quick start has no python block"
    exec(compile(blocks[0], f"{README}:quick-start", "exec"), {"__name__": "readme"})
