"""Every ```python block of README.md runs as written.

The "Library use" section is the package's documented API; a signature
change that breaks it fails here rather than in a reader's session.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
