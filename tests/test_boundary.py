"""The package holds no code that only tests reach.

Each module-level function or class under `src/flowsentry`, and each method
that is not a dunder, must be named somewhere in `src/`, `scripts/` or
`perfbench/` outside its own definition.  A helper only tests call belongs
in `tests/`.  Each field of a dataclass there must be read somewhere in
those trees: a field that is only ever written is state nothing uses.
"""

import ast
import re
from pathlib import Path

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
