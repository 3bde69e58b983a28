"""Static check: every module-level import in the package is used.

No linter is a dependency of the project, so this walks the syntax tree of
each module in ``src/folsing`` with the standard library's ``ast``: a name
bound by a module-level ``import`` must be read somewhere in the module
(annotations written as strings included) or be listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "folsing"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module):
    """Module-level import bindings as {name: line}."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotation_nodes(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotation_nodes(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used_names(ast.parse(n.value, mode="eval"))
    return used


def _exported(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in _imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport sys\nfrom typing import List, Dict\n"
                    "__all__ = ['Dict']\n\n"
                    "def f(x: 'List[int]'):\n    return sys.argv\n")
    assert unused_imports(path) == ["m.py:1 os"]
