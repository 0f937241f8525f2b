"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run_in_order_in_one_namespace():
    assert BLOCKS
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
