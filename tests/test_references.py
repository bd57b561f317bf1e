"""Tooling: every module-level function and class of ``treebound`` has a use.

A use is a reference outside the definition itself: an AST name, attribute
or import anywhere under ``src/``, ``tests/``, ``demos/`` or ``bench/``, or
an attribute name in ``bench/spans.py``'s ``WRAPPED``, which the tracer
patches by string.  A definition nothing refers to is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _wrapped_attributes() -> set[str]:
    """The attribute strings, second in each entry, of ``WRAPPED``."""
    for node in ast.parse((ROOT / "bench" / "spans.py").read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "WRAPPED" for t in targets):
                return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("bench/spans.py defines no WRAPPED")


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Each referenced name, with the file and line of every reference."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for tree in ("src", "tests", "demos", "bench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_module_level_function_and_class_is_referenced():
    refs, wrapped = _references(), _wrapped_attributes()
    unused = []
    for path in sorted((ROOT / "src" / "treebound").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = [(p, line) for p, line in refs.get(node.name, ())
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside and node.name not in wrapped:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)
