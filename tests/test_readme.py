"""The README's python code blocks run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python code blocks"
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
