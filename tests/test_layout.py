"""Every public definition of the library has a caller.

A public module-level function or class of ``src/maninalg`` must be
referenced in code (a name, an attribute or an import) by some other code
of the package, by ``bench/`` or by ``demos/``, or be named as public API
in an inline code span of README.md (`name`, `module.name` or a call of
either).  Tests alone do not count: a definition that only tests reach
belongs in ``tests/dense_reference.py`` as an oracle, or goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maninalg"


def referenced_names(node) -> set:
    """The names that a piece of code reads: names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names


def readme_names() -> set:
    """The names README gives in inline code spans, without their module."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = (re.fullmatch(r"(?:\w+\.)*(\w+)(?:\(.*\))?", span)
             for span in re.findall(r"`([^`\n]+)`", text))
    return {span.group(1) for span in spans if span}


def test_every_public_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    statements = [(stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body]
    outside = set()
    for path in sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py")):
        outside |= referenced_names(ast.parse(path.read_text()))
    documented = readme_names()
    orphans = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            name = stmt.name
            if name in outside or name in documented:
                continue
            # its own body does not count, so a recursive orphan stays one
            if not any(name in names for other, names in statements if other is not stmt):
                orphans.append(f"{module}.{name}")
    assert orphans == []
