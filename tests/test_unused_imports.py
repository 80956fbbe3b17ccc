"""No module under ``src/`` imports a name it never uses.

A stdlib-``ast`` scan: every name an ``import`` or ``from ... import`` binds
must be read somewhere in the same file.  A name read only inside a string
annotation (``"Optional[Program]"``) counts as read.  Package ``__init__``
modules are skipped, since their imports are the package's re-exports, and
so is ``from __future__``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree: ast.AST) -> Set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _names_read(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def unused_imports(source: str) -> List[str]:
    """``"<line>: <name>"`` for every imported name *source* never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names if alias.name != "*"]
    read = _names_read(tree)
    return [f"{line}: {name}" for line, name in bound if name not in read]


def test_scanner_sees_string_annotations_and_skips_future():
    source = (
        "from __future__ import annotations\n"
        "from typing import Optional, Tuple\n"
        "import os\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["2: Tuple", "3: os"]


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC)}:{entry}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path.read_text())
    ]
    assert found == []
