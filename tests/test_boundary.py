"""The package holds no code that only tests reach.

Each module-level function or class under `src/flowsentry`, and each method
that is not a dunder, must be named somewhere in `src/`, `scripts/` or
`perfbench/` outside its own definition.  A helper only tests call belongs
in `tests/`.
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
