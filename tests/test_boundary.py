"""The package holds no code that only tests reach.

Each module-level function or class under `src/flowsentry`, and each method
that is not a dunder, must be named somewhere in `src/`, `scripts/` or
`perfbench/` outside its own definition.  A helper only tests call belongs
in `tests/`.  Each field of a dataclass there must be read somewhere in
those trees: a field that is only ever written is state nothing uses.  One
helper alone forks and alone looks at the usable CPUs, so every child
process the package makes is placed, made, reaped and tested in one place.
One reader alone turns a header row into a schema, through one memo.
One table alone, `flowdata.PROFILES`, groups label spellings into classes.
And the layers make no generator of their own: the caller supplies all
their randomness.
"""

import ast
import re
from pathlib import Path

from flowsentry.flowdata import PROFILES

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "flowsentry"


def _sources():
    """Every Python file the guard reads a reference from, with its text."""
    files = sorted(_PACKAGE.glob("*.py"))
    for sub in ("scripts", "perfbench"):
        files += sorted((_ROOT / sub).rglob("*.py"))
    return {path: path.read_text(encoding="utf-8") for path in files}


def _definitions(tree):
    """(name, first line, last line) of each module-level function or class,
    and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno


def test_every_definition_has_a_reader_outside_tests():
    sources = _sources()
    assert (_PACKAGE / "flowdata.py") in sources
    unread = []
    for path in sorted(_PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        for name, first, last in _definitions(ast.parse(sources[path])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            # the file with the definition's own lines blanked, then every other file
            rest = "\n".join(lines[:first - 1] + lines[last:])
            if not word.search(rest) and not any(
                    word.search(text) for other, text in sources.items() if other != path):
                unread.append(f"{path.name}:{first} {name}")
    assert unread == []


def _is_dataclass(decorator) -> bool:
    """Whether a decorator is `dataclass`, bare, called or module-qualified."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def _dataclass_fields(tree):
    """(class, field, line) of each annotated field of each module-level
    dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def _attribute_reads(tree):
    """Each name read as an attribute: `x.name` in load context, or
    `getattr(x, "name", ...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            yield node.args[1].value


def test_every_dataclass_field_is_read_outside_tests():
    sources = _sources()
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = {name for tree in trees.values() for name in _attribute_reads(tree)}
    fields = [(path, field) for path in sorted(_PACKAGE.glob("*.py"))
              for field in _dataclass_fields(trees[path])]
    assert any(name == "features" for _, (_, name, _) in fields)
    unread = [f"{path.name}:{line} {cls}.{name}" for path, (cls, name, line) in fields
              if name not in read]
    assert unread == []


def _os_references(tree, names):
    """The line of each `os.<name>` reference, for `names`, and of each
    import of them from os."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"
                or isinstance(node, ast.ImportFrom) and node.module == "os"
                and {a.name for a in node.names} & set(names)):
            yield node.lineno


def _only_the_shared_helper_uses(names):
    helper = next(node for node in ast.parse((_PACKAGE / "flowdata.py").read_text("utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "items_from_child")
    found = [(path.name, line) for path in sorted(_PACKAGE.glob("*.py"))
             for line in _os_references(ast.parse(path.read_text(encoding="utf-8")), names)]
    assert len(found) == 1
    name, line = found[0]
    assert name == "flowdata.py" and helper.lineno <= line <= helper.end_lineno


def test_only_the_shared_helper_forks():
    _only_the_shared_helper_uses(("fork", "forkpty"))


def test_only_the_shared_helper_reads_the_usable_cpus():
    _only_the_shared_helper_uses(("sched_getaffinity",))


def test_only_the_run_level_check_compares_inodes():
    """Whether a run would write over a file is decided in one place: the
    check `cli.run` makes before any subcommand body runs."""
    check = next(node for node in ast.parse((_PACKAGE / "cli.py").read_text("utf-8")).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_refuse_overwrites")
    found = [(path.name, lineno) for path in sorted(_PACKAGE.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "st_ino" in line]
    assert found
    assert all(name == "cli.py" and check.lineno <= lineno <= check.end_lineno
               for name, lineno in found)


def test_only_read_schema_resolves_a_header():
    """A header row becomes a schema in one place: `flowdata.read_schema`
    calls the memo `_schema_of`, the one wrapper of `_resolve_schema`.  And
    no function takes a `resolve` callback that could go round the memo."""
    tree = ast.parse((_PACKAGE / "flowdata.py").read_text("utf-8"))
    reader = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "read_schema")
    memo = next(node for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["_schema_of"])
    within = {"_resolve_schema": memo, "_schema_of": reader}
    stray, params = [], []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id in within and isinstance(node.ctx, ast.Load):
                home = within[node.id]
                if not (path.name == "flowdata.py"
                        and home.lineno <= node.lineno <= home.end_lineno):
                    stray.append(f"{path.name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & set(within):
                stray.append(f"{path.name}:{node.lineno} import")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "resolve" in {a.arg for a in (*args.posonlyargs, *args.args,
                                                 *args.kwonlyargs)}:
                    params.append(f"{path.name}:{node.lineno}")
    assert stray == [] and params == []


def test_layers_make_no_generator():
    tree = ast.parse((_PACKAGE / "nncore.py").read_text(encoding="utf-8"))
    made = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "default_rng" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None))
            or isinstance(node, ast.ImportFrom)
            and "default_rng" in {a.name for a in node.names}]
    assert made == []


def test_only_the_profiles_group_labels():
    """No module-level dict outside `flowdata` is keyed by a label spelling
    that a profile's rules group into a class: a key a rule maps is a class
    name, so a table by class takes its classes from `PROFILES`."""
    classes = {name for lm in PROFILES.values() for name in lm.class_names}
    stray = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "flowdata.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                stray += [f"{path.name}:{key.lineno} {key.value!r}" for key in node.value.keys
                          if isinstance(key, ast.Constant) and isinstance(key.value, str)
                          and key.value not in classes
                          and any(lm.match(key.value) for lm in PROFILES.values())]
    assert stray == []
