"""The Python blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert blocks
    for i, code in enumerate(blocks, 1):
        ns = {}
        exec(compile(code, f"README.md python block {i}", "exec"), ns)
        for dof in re.findall(r"(\d+) dof", code):   # a stated system size
            assert ns["geom"].dofmap.coupled_dim == int(dof)
    assert "4422 dof" in blocks[0]                   # the quickstart's
