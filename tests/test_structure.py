"""Structure guard: ``src/repro`` keeps one shortest path search loop.

Every proof method, provider and client, runs
:func:`repro.shortestpath.kernel.search`.  A module that imports
``heapq`` is growing a second heap loop; only the search's own module
and the owner's bulk repair (a different algorithm) may.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ALLOWED = {"shortestpath/kernel.py", "shortestpath/bulk.py"}


def _imports_heapq(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name == "heapq" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
            return True
    return False


def test_only_the_search_module_and_bulk_import_heapq():
    importers = {path.relative_to(SRC).as_posix()
                 for path in SRC.rglob("*.py") if _imports_heapq(path)}
    assert importers - ALLOWED == set()
    assert "shortestpath/kernel.py" in importers
