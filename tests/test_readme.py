"""Every ```python block of README.md runs as written, each in a fresh
namespace, so the examples keep up with the public API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"),
                    flags=re.M | re.S)


def test_readme_has_its_python_blocks():
    assert len(BLOCKS) == 4


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
