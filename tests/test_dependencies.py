"""The package promises no runtime dependencies: `src/binmat` may import
only the standard library and itself, and it must run on the oldest
Python that `pyproject.toml` admits."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "binmat"


def test_package_parses_on_the_oldest_supported_python():
    # Newer syntax, such as `except*` (3.11), would break the package on
    # the oldest interpreter `requires-python` admits.
    found = re.search(r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert found
    oldest = (3, int(found.group(1)))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=oldest)


def test_package_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "binmat" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_package_has_no_function_local_imports():
    # With every import at module level, a cycle between modules fails
    # at import time instead of hiding inside a function body.
    local = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                local.append(f"{path.name}:{node.lineno}")
    assert local == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _read_names(paths) -> set[str]:
    """Every name the files read: loaded names and attribute names."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _module_level_names():
    """(file, line, name) for each function, class and assigned name at
    the top level of a package module."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_every_private_module_name_is_read():
    # A module-level `_name` (helper, constant or class) that no code in the
    # package reads is dead: its definition is the only mention.
    read = _read_names(SRC.glob("*.py"))
    orphans = [
        f"{filename}:{line}: {name}"
        for filename, line, name in _module_level_names()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert orphans == []


def test_every_public_module_name_is_read():
    # A public module-level name that neither the package, its tests nor
    # its benchmark reads is dead.
    read = _read_names([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    orphans = [
        f"{filename}:{line}: {name}"
        for filename, line, name in _module_level_names()
        if not name.startswith("_") and name not in read
    ]
    assert orphans == []


def _reads_of(tree, name: str) -> int:
    """How many times the tree reads `name`, as a loaded name or an attribute."""
    return sum(
        (isinstance(node, ast.Name) and node.id == name and not isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(tree)
    )


def test_only_matroid_reads_the_cycle_space():
    # Equality compares label-ordered forms and circuits are decided by
    # rank, so nothing in the package lists the cycle space.  No module
    # reads `Matroid.cycle_masks`, and `gf2.cycle_space_masks` is read
    # once, inside it: both stay only for the benchmark's layer tracer.
    sources = sorted(SRC.glob("*.py"))
    assert [path.name for path in sources if "cycle_masks" in _read_names([path])] == []
    assert [path.name for path in sources if "cycle_space_masks" in _read_names([path])] == ["matroid.py"]
    tree = ast.parse((SRC / "matroid.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Matroid")
    method = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "cycle_masks")
    assert _reads_of(method, "cycle_space_masks") == _reads_of(tree, "cycle_space_masks") == 1
