"""The opt-in mutation sweep (``tools/mutation_sweep.py``) still applies:
every mutant's snippet is in its file once, and every test it names to
kill it exists.  Read from the source alone; no pytest run."""

import ast
import importlib.util
import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@cache
def _mutants():
    spec = importlib.util.spec_from_file_location("mutation_sweep", ROOT / "tools" / "mutation_sweep.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up while being defined
    spec.loader.exec_module(module)
    return module.MUTANTS


@cache
def _top_level(path: Path) -> list:
    return ast.parse(path.read_text()).body


def _defines(body, names) -> bool:
    """Whether the path of class and function names is defined in `body`."""
    first, *rest = names
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == first:
            return not rest or (isinstance(node, ast.ClassDef) and _defines(node.body, rest))
    return False


def test_every_snippet_occurs_once_in_its_file():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    misses = [m.name for m in mutants if (ROOT / m.path).read_text().count(m.snippet) != 1]
    assert misses == []


def test_every_named_killer_is_a_test_that_exists():
    # A node id is a file under tests/ and a class and function path in
    # it; a parametrized id's "[...]" suffix is not checked.  "tests"
    # names the whole suite.
    missing = []
    for mutant in _mutants():
        for node_id in mutant.tests:
            path, *names = node_id.split("::")
            target = ROOT / path
            if not target.exists():
                missing.append((mutant.name, node_id))
            elif names:
                names[-1] = names[-1].partition("[")[0]
                if not _defines(_top_level(target), names):
                    missing.append((mutant.name, node_id))
    assert missing == []
