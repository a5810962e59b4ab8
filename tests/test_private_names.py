"""Dead-code guard: a module-level private name in `src/skewcalc` that
nothing under `src/` reads is left over from a change and should go."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "skewcalc"


def _defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_private_name_is_used():
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _defined_names(tree):
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = path.name
        read.update(_read_names(tree))
    assert len(defined) > 50  # the scan found the package
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in read)
    assert unused == []
