"""Structure guards over ``src/repro``.

* One shortest path search loop.  Every proof method, provider and
  client, runs :func:`repro.shortestpath.kernel.search`.  A module that
  imports ``heapq`` is growing a second heap loop; only the search's own
  module and the owner's bulk repair (a different algorithm) may.
* One accepting verdict.  The paper's guarantee is that a client which
  accepts a reply holds the shortest path, so ``ok=True`` is built in
  one place, :meth:`VerificationResult.success`, which every method's
  checks reach only after the optimality check.
* A bounded verifier.  ``import repro.api.client`` loads no process
  machinery, no load driver or experiment harness, and at most a fixed
  budget of ``repro`` code.
* One box, one process.  The sharded and pre-forked topologies are gone,
  and none of their vocabulary may come back into the source.
* One load instrument.  Load is driven and measured from outside the
  package (``perfbench``); the in-package driver and the server-side
  phase windows only it read are gone, and their vocabulary with them.
* One BATCH layout, checked once.  The client no longer expands a
  multiproof into standalone replies to verify them one by one.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
ALLOWED = {"shortestpath/kernel.py", "shortestpath/bulk.py"}

#: The verifier's import closure (the QUERY and BATCH verifiers), as
#: measured when the budget was set.
CLIENT_MODULE_BUDGET = 63
CLIENT_LINE_BUDGET = 12_859

#: Words that only the deleted multi-box and multi-process serving code,
#: the deleted in-package load driver and the deleted per-item BATCH
#: path (expand, re-encode, re-verify) used (matched case-insensitively
#: against every source line).
RETIRED_VOCABULARY = ["shard", "manifest", "composite_slots", "workerpool",
                      "reuse_port", "merge_snapshots", "multiprocessing",
                      "loadtest", "begin_phase", "expand_multi",
                      "recover_responses", "query_many"]


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


def _verdict(call: ast.Call) -> "ast.expr | None":
    """The ``ok`` a call passes: by keyword, or first to a
    ``VerificationResult(...)``; ``None`` when it passes none."""
    for keyword in call.keywords:
        if keyword.arg == "ok":
            return keyword.value
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")
    if name == "VerificationResult" and call.args:
        return call.args[0]
    return None


def _accepting_sites(path: Path) -> "set[str]":
    """Qualified names of the scopes that may build ``ok=True``: every
    call whose ``ok`` is anything but the literal ``False``."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                verdict = _verdict(child)
                if verdict is not None and not (
                        isinstance(verdict, ast.Constant)
                        and verdict.value is False):
                    found.add(".".join(scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_verification_result_success_accepts():
    sites = {(path.relative_to(SRC).as_posix(), qualname)
             for path in SRC.rglob("*.py")
             for qualname in _accepting_sites(path)}
    assert sites == {("core/framework.py", "VerificationResult.success")}


def test_client_import_closure_is_bounded():
    probe = (
        "import json, sys\n"
        "import repro.api.client, repro.core.batch\n"
        "mods = [m for n, m in sys.modules.items()\n"
        "        if n.split('.')[0] == 'repro' and getattr(m, '__file__', None)]\n"
        "print(json.dumps({\n"
        "    'names': sorted(sys.modules),\n"
        "    'modules': len(mods),\n"
        "    'lines': sum(len(open(m.__file__, 'rb').read().splitlines())\n"
        "                 for m in mods)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         cwd=SRC.parent).stdout
    closure = json.loads(out)
    names = closure["names"]
    assert "repro.core.batch" in names  # the BATCH verifier is counted
    assert not [n for n in names if n.split(".")[0] == "multiprocessing"]
    assert not [n for n in names if n.startswith("repro.shard")]
    assert "repro.workload.traffic" not in names
    assert not [n for n in names if n.split(".")[:2] == ["repro", "bench"]]
    assert closure["modules"] <= CLIENT_MODULE_BUDGET
    assert closure["lines"] <= CLIENT_LINE_BUDGET


@pytest.mark.parametrize("word", RETIRED_VOCABULARY)
def test_retired_topology_vocabulary_stays_out(word):
    hits = [f"{path.relative_to(SRC).as_posix()}:{number}"
            for path in SRC.rglob("*.py")
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if word in line.lower()]
    assert hits == []
