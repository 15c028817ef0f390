"""Every module-level function and class in src/nsctl has a caller: it is
referenced in src/nsctl or perfbench/ somewhere other than its own
definition. Every annotated field of a class in src/nsctl is read there,
and every parameter of a function in src/nsctl is read in its body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nsctl"

# definitions kept without a caller in the program, with the reason
ALLOWED = {
    ("bench", "load_results"): "the documented public reader of the JSON "
                               "output that `bench` writes",
}

# (class, field) kept although nothing in the program reads it, with the
# reason
ALLOWED_FIELDS = {}

# (module, function, parameter) kept although the body never reads it, with
# the reason
ALLOWED_PARAMS = {}


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


def _program():
    """(path, parsed module) of every module in src/nsctl and perfbench/."""
    paths = sorted(SRC.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def test_every_definition_is_referenced():
    statements = []                    # (path, top-level statement)
    for path, tree in _program():
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


def _reads(tree):
    """Names that a module reads as attributes: loaded attributes, and
    identifier strings (such as the metric names that `getattr` takes).
    Bare names are not reads: locals share the field names."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def test_every_field_is_read():
    """An annotated class field that nothing reads (annotations, writes and
    constructor keywords are not reads) is dead storage. Reads in the
    class's own methods count."""
    program = _program()
    reads = set().union(*(_reads(tree) for _, tree in program))
    fields = [(cls.name, stmt.target.id) for path, tree in program
              if path.parent == SRC
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    assert fields
    unread = {f for f in fields if f[1] not in reads}
    assert sorted(unread - set(ALLOWED_FIELDS)) == []
    assert sorted(set(ALLOWED_FIELDS) - unread) == []


def test_every_parameter_is_read():
    """A parameter that its function never reads (`self` and `cls` aside)
    is an argument every caller passes for nothing. Reads in nested
    functions and lambdas count."""
    params, unread = [], set()
    for path, tree in _program():
        if path.parent != SRC:
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                     + [v for v in (a.vararg, a.kwarg) if v is not None]
                     if x.arg not in ("self", "cls")]
            loads = {sub.id for stmt in fn.body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name)
                     and isinstance(sub.ctx, ast.Load)}
            params += [(path.stem, fn.name, n) for n in names]
            unread |= {(path.stem, fn.name, n) for n in names
                       if n not in loads}
    assert params
    assert sorted(unread - set(ALLOWED_PARAMS)) == []
    assert sorted(set(ALLOWED_PARAMS) - unread) == []
