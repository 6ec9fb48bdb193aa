"""Every public definition of the library has a caller.

A public module-level function or class of ``src/maninalg`` must be
referenced in code (a name, an attribute or an import) by some other code
of the package, by ``bench/`` or by ``demos/``, or be named as public API
in an inline code span of README.md (`name`, `module.name` or a call of
either).  A public method, property or static method of one of its classes
must be read as an attribute by such code, be named as ``Class.member`` in
a string under ``bench/`` (the tracer wraps those by name), or be named in
README the same way.  Tests alone do not count: a definition that only
tests reach belongs in ``tests/dense_reference.py`` as an oracle, or goes.

The checks match names, not types: a member that shares its name with a
member another caller reads passes here, so such a member is cut by hand.
"""

import ast
import re
from collections import Counter
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


def public_members(cls: ast.ClassDef):
    """The public methods and properties a class body defines, by node."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
        elif (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
              and getattr(stmt.value.func, "id", None) == "property"):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, stmt


def attribute_reads(node) -> Counter:
    """How often a piece of code reads each attribute name."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def bench_member_paths() -> set:
    """The ``Class.member`` pairs named in the string constants of bench/."""
    paths = set()
    for path in sorted(ROOT.glob("bench/*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                paths.update(re.findall(r"(\w+)\.(?=(\w+))", sub.value))
    return paths


def test_every_public_member_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    package = sum(map(attribute_reads, trees.values()), Counter())
    outside = set()
    for path in sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py")):
        outside |= set(attribute_reads(ast.parse(path.read_text())))
    named = bench_member_paths()
    documented = readme_names()
    orphans = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in public_members(cls):
                if name in outside or name in documented or (cls.name, name) in named:
                    continue
                # its own body does not count, so a recursive orphan stays one
                if package[name] == attribute_reads(node)[name]:
                    orphans.append(f"{module}.{cls.name}.{name}")
    assert orphans == []
