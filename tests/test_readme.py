"""The README's Python examples run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_python_blocks_run_in_order(monkeypatch):
    # every block in order in one namespace, as pasted into one session, from
    # the repository root that the examples' paths start at
    monkeypatch.chdir(ROOT)
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
