"""Every module-level function and class in src/nsctl has a caller: it is
referenced in src/nsctl or perfbench/ somewhere other than its own
definition. Every annotated field, method and property of a class in
src/nsctl is read there, every dataclass field default is overridden there,
every parameter of a function in src/nsctl is read in its body and takes
more than one value across the calls there, and so does every dataclass
field that each construction passes."""

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

# (class, field) whose default no caller overrides, kept as a setting, with
# the reason
ALLOWED_SETTINGS = {}

# (class, method or property) kept although nothing reads it, with the
# reason
ALLOWED_METHODS = {}

# (module, function, parameter) kept although every call passes it the same
# literal, with the reason
ALLOWED_VALUES = {
    ("bench", "main", "argv"): "the console-script entry point reads "
                               "sys.argv; tests pass their own argv",
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


def _program():
    """(path, parsed module) of every module in src/nsctl and perfbench/."""
    paths = sorted(SRC.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def _classes(program):
    """Every class node defined in src/nsctl."""
    return [cls for path, tree in program if path.parent == SRC
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)]


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
    fields = [(cls.name, stmt.target.id) for cls in _classes(program)
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


def test_every_method_is_read():
    """A method or property (dunders aside) that nothing reads as an
    attribute is dead code. Reads in the class's own methods count."""
    program = _program()
    reads = set().union(*(_reads(tree) for _, tree in program))
    methods = [(cls.name, fn.name) for cls in _classes(program)
               for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    assert methods
    unread = {m for m in methods if m[1] not in reads}
    assert sorted(unread - set(ALLOWED_METHODS)) == []
    assert sorted(set(ALLOWED_METHODS) - unread) == []


def _plain_default(value):
    """Whether a dataclass field's right-hand side is a default that a
    caller could override: a value, or `field(default=...)`, but not
    `field(default_factory=...)` or `field(init=False)`."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "field":
        return any(kw.arg == "default" for kw in value.keywords)
    return True


def test_every_setting_is_set():
    """A dataclass field default that no caller overrides, by a keyword
    argument or an attribute store, is a setting with one value in use:
    a constant, not a field."""
    program = _program()
    sets = set()
    for _, tree in program:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                sets |= {kw.arg for kw in sub.keywords}
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.ctx, ast.Store):
                sets.add(sub.attr)
    settings = [(cls.name, stmt.target.id) for cls in _classes(program)
                if any("dataclass" in _references(d)
                       for d in cls.decorator_list)
                for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and _plain_default(stmt.value)]
    assert settings
    unset = {f for f in settings if f[1] not in sets}
    assert sorted(unset - set(ALLOWED_SETTINGS)) == []
    assert sorted(set(ALLOWED_SETTINGS) - unset) == []


def _constants(program):
    """Names of the module-level UPPER_CASE constants of the program."""
    return {target.id for _, tree in program for stmt in tree.body
            if isinstance(stmt, ast.Assign) for target in stmt.targets
            if isinstance(target, ast.Name) and target.id.isupper()}


def _literal(node, constants):
    """(type, repr) of a literal expression, ("constant", name) of a name
    in `constants`, or None for any other expression."""
    if isinstance(node, ast.Name) and node.id in constants:
        return "constant", node.id
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value).__name__, repr(value)


def _callee(node):
    """The name a call goes through: `f` of `f(...)` and of `x.f(...)`."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _calls(program):
    """(callee, positional arguments, keyword arguments, is a binding) of
    every call in src/nsctl and perfbench/, with import aliases resolved; a
    `partial(f, ...)` is a binding of f to the arguments it names. Calls
    that unpack *args or **kwargs are skipped."""
    out = []
    for _, tree in program:
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            binding = _callee(func) == "partial" and bool(args)
            if binding:
                func, args = args[0], args[1:]
            name = _callee(func)
            if name is None or any(isinstance(a, ast.Starred) for a in args) \
                    or any(kw.arg is None for kw in call.keywords):
                continue
            out.append((aliases.get(name, name), args,
                        {kw.arg: kw.value for kw in call.keywords}, binding))
    return out


def _init_fields(program):
    """(module, class, field) of each constructor field of every dataclass
    in src/nsctl, inherited fields first, keyed by class name."""
    classes = {cls.name: (path.stem, cls) for path, tree in program
               if path.parent == SRC for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and any(
                   "dataclass" in _references(d) for d in cls.decorator_list)}
    out = {}

    def fields(name):
        if name not in out:
            module, cls = classes[name]
            out[name] = [f for base in cls.bases if isinstance(base, ast.Name)
                         and base.id in classes for f in fields(base.id)]
            out[name] += [
                (module, name, stmt.target.id) for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not (isinstance(stmt.value, ast.Call) and any(
                    kw.arg == "init" for kw in stmt.value.keywords))]
        return out[name]

    for name in classes:
        fields(name)
    return out


def test_every_parameter_takes_two_values():
    """A parameter that every call in the program sets to the same literal
    (an omitted argument counts as its default) has one value in use: a
    constant, not a parameter. A module-level UPPER_CASE constant counts as
    a literal. Calls are matched by name; a parameter that a `partial`
    leaves open, or that a call leaves without a default, takes a value
    that cannot be read here, so it is not flagged. A dataclass field is
    checked on the constructor calls of its class and of its subclasses
    when every one of them passes it."""
    program = _program()
    calls = _calls(program)
    constants = _constants(program)
    values = {}
    for cls, fields in _init_fields(program).items():
        for name, args, keywords, binding in calls:
            if name != cls or binding:
                continue
            for i, (module, owner, f) in enumerate(fields):
                node = args[i] if i < len(args) else keywords.get(f)
                values.setdefault((module, owner, f), []).append(
                    None if node is None else _literal(node, constants))
    for path, tree in program:
        if path.parent != SRC:
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name.startswith("__"):
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            tail = pos[len(pos) - len(a.defaults):]
            defaults = {x.arg: d for x, d in zip(tail, a.defaults)}
            defaults.update((x.arg, d) for x, d in zip(a.kwonlyargs,
                                                       a.kw_defaults) if d)
            if pos and pos[0].arg in ("self", "cls"):
                pos = pos[1:]
            for name, args, keywords, binding in calls:
                if name != fn.name:
                    continue
                for i, x in enumerate(pos + a.kwonlyargs):
                    if i < len(pos) and i < len(args):
                        node = args[i]
                    elif x.arg in keywords:
                        node = keywords[x.arg]
                    else:
                        node = None if binding else defaults.get(x.arg)
                    values.setdefault((path.stem, fn.name, x.arg), []).append(
                        None if node is None else _literal(node, constants))
    assert values
    single = {p for p, v in values.items()
              if None not in v and len(set(v)) == 1}
    assert sorted(single - set(ALLOWED_VALUES)) == []
    assert sorted(set(ALLOWED_VALUES) - single) == []
