"""Source-level rules for the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "descentlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so an invariant check written
    # as one would silently vanish; raise an exception instead.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_the_package_sources_are_found():
    assert any(p.name == "processes.py" for p in SOURCES)


# The exact invariant checks made as a cache grows or a gate is built; each
# must raise ArithmeticError, whatever the interpreter's optimization level.
CHECKS = [
    ("families.py", "_next_count"),
    ("families.py", "_next_row"),
    ("batch.py", "_gates"),
    ("processes.py", "_StageTable._next_parts"),
]


def _function(path, qualname):
    node = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


@pytest.mark.parametrize("module, qualname", CHECKS, ids=lambda v: v)
def test_invariant_checks_raise_arithmetic_errors(module, qualname):
    path = next(p for p in SOURCES if p.name == module)
    raised = [node.exc for node in ast.walk(_function(path, qualname))
              if isinstance(node, ast.Raise)]
    assert any(isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ArithmeticError"
               for exc in raised), f"{module}:{qualname} raises no ArithmeticError"


def _imported_packages(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_families_imports_threading():
    # The per-index caches grow, and lock, in one place: ``families._Grown``.
    offenders = [p.name for p in SOURCES
                 if p.name != "families.py" and "threading" in _imported_packages(p)]
    assert not offenders, f"modules importing threading: {offenders}"


def _imported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_only_the_engines_import_the_exact_draw_constant():
    # The exact test ``u * den < c * 2**64`` is written once, in
    # ``rng.Jump.draw``; the scalar process and the batch engine's ceilings
    # are the only other places 2**64 may enter a draw.
    allowed = {"rng.py", "processes.py", "batch.py"}
    offenders = [p.name for p in SOURCES
                 if p.name not in allowed and "TWO64" in _imported_names(p)]
    assert not offenders, f"modules importing TWO64: {offenders}"
