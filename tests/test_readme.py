"""The Python blocks of README.md run as written, and the module attributes
it names exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("bench", "grid_fem", "krylov", "newton", "operators", "precond")


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


def test_readme_module_names_resolve():
    """Every backticked `module.name` (or `module.name(args)`) of an nsctl
    module is an attribute of it; a file name such as `precond.py` is not
    such a name."""
    names = re.findall(rf"`({'|'.join(MODULES)})\.(\w+)(?:\([^`]*\))?`",
                       README.read_text())
    assert names
    missing = sorted({f"{module}.{name}" for module, name in names
                      if name != "py" and not hasattr(
                          importlib.import_module(f"nsctl.{module}"), name)})
    assert missing == []
