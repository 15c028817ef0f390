"""Every module-level function and class in src/nsctl has a caller: it is
referenced in src/nsctl or perfbench/ somewhere other than its own
definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nsctl"

# definitions kept without a caller in the program, with the reason
ALLOWED = {
    ("bench", "load_results"): "the documented public reader of the JSON "
                               "output that `bench` writes",
}


def _references(node):
    """Identifiers that a statement refers to: names, attributes, imported
    names and identifier strings (such as the attribute names that
    perfbench's tracing replaces)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def test_every_definition_is_referenced():
    paths = sorted(SRC.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    statements = []                    # (path, top-level statement)
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path, stmt) for stmt in tree.body]
    refs = [(stmt, _references(stmt)) for _, stmt in statements]
    defs = [(path.stem, stmt) for path, stmt in statements
            if path.parent == SRC and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defs
    unused = [(module, d.name) for module, d in defs
              if not any(d.name in names for stmt, names in refs
                         if stmt is not d)]
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowlisted name that gains a caller leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []
