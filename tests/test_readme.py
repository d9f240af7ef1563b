"""Every ``python`` block of README.md runs as written.

The CLI examples are captured byte for byte in ``test_golden_cli.py``;
this runs the library examples, each in a fresh namespace, so a renamed
function or a changed value fails here rather than in a reader's hands.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
