"""Module layering: the runtime does not depend on its reference skill.

`skillet.repair` is a skill built on the runtime's public surface; only the
package's `__init__`, which imports it to register its bindings, may import
it. So the store, the hooks and the planner hold no knowledge of repair, and
the skill could be removed without touching them.
"""

import ast
from pathlib import Path

import pytest

import skillet

PACKAGE = Path(skillet.__file__).parent
RUNTIME_MODULES = sorted(p for p in PACKAGE.glob("*.py")
                         if p.name not in ("__init__.py", "repair.py"))


def imported_modules(path: Path) -> set[str]:
    """The absolute names of the modules `path` imports, relative imports
    resolved against the package, and `from X import name` also counted as
    an import of `X.name`, which may be a submodule."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # every module sits at the package's top level
                base = f"skillet.{base}" if base else "skillet"
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_the_runtime_modules_are_found():
    names = {p.name for p in RUNTIME_MODULES}
    assert {"sessions.py", "workspace.py", "hooks.py", "planner.py"} <= names


@pytest.mark.parametrize("path", RUNTIME_MODULES, ids=lambda p: p.name)
def test_no_runtime_module_imports_the_repair_skill(path):
    assert "skillet.repair" not in imported_modules(path)


def test_the_check_sees_every_spelling_of_the_import(tmp_path):
    spellings = ["from .repair import RepairState", "from . import repair",
                 "import skillet.repair", "from skillet.repair import before_llm",
                 "from skillet import repair"]
    for source in spellings:
        module = tmp_path / "m.py"
        module.write_text(source + "\n")
        assert "skillet.repair" in imported_modules(module), source
