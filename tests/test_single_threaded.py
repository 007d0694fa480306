"""The package is single-threaded by construction.

No module under ``src/repro`` starts a thread.  The only parallelism is
the tuning fleet's process pool (``tuning/fleet.py``): its workers are
processes that write only content-addressed objects, and the
coordinator claims, settles and registers from its own thread through
``wait(FIRST_COMPLETED)``.  That is why ``JobQueue``, ``PlanStore`` and
``PlanCache`` take no lock.  This test keeps it so: it fails on any
module that

* imports ``threading`` or ``_thread``;
* imports from ``concurrent.futures`` anything but the process-pool
  names the fleet uses, or imports it anywhere but ``tuning/fleet.py``;
* touches ``add_done_callback``, whose callbacks run on the pool's
  management thread.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

THREAD_MODULES = {"threading", "_thread"}
POOL_MODULE = "concurrent.futures"
POOL_NAMES = {"ProcessPoolExecutor", "wait", "FIRST_COMPLETED", "Future"}
POOL_OWNER = "tuning/fleet.py"


def thread_violations(source: str, rel_path: str) -> List[str]:
    """Every way ``source`` (module ``rel_path`` under the package)
    could bring a thread in, one line each."""
    out: List[str] = []
    for node in ast.walk(ast.parse(source)):
        where = f"{rel_path}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            modules = []
        for module in modules:
            top = module.split(".")[0]
            if top in THREAD_MODULES:
                out.append(f"{where} imports {module}")
            elif top != "concurrent":
                continue
            elif rel_path != POOL_OWNER:
                out.append(f"{where} imports {module} outside {POOL_OWNER}")
            elif isinstance(node, ast.Import) or module != POOL_MODULE:
                out.append(f"{where} imports {module} whole")
            else:
                for alias in node.names:
                    if alias.name not in POOL_NAMES:
                        out.append(f"{where} imports {module}.{alias.name}")
        if isinstance(node, ast.Attribute) and node.attr == "add_done_callback":
            out.append(f"{where} uses add_done_callback")
    return out


def test_no_module_under_src_repro_can_start_a_thread():
    files = sorted(PACKAGE.rglob("*.py"))
    assert any(p.relative_to(PACKAGE).as_posix() == POOL_OWNER for p in files)
    violations = [
        violation
        for path in files
        for violation in thread_violations(
            path.read_text(), path.relative_to(PACKAGE).as_posix()
        )
    ]
    assert not violations, "\n".join(violations)


@pytest.mark.parametrize("rel_path, source", [
    pytest.param("core/cache.py", "import threading\n", id="threading"),
    pytest.param(
        "core/cache.py", "from threading import RLock\n", id="from-threading"
    ),
    pytest.param("core/cache.py", "import _thread\n", id="_thread"),
    pytest.param(
        "store/plan_store.py", "from concurrent.futures import wait\n",
        id="pool-outside-fleet",
    ),
    pytest.param(
        POOL_OWNER, "from concurrent.futures import ThreadPoolExecutor\n",
        id="thread-pool",
    ),
    pytest.param(
        POOL_OWNER, "import concurrent.futures\n", id="whole-module"
    ),
    pytest.param(
        POOL_OWNER, "from concurrent import futures\n", id="whole-package"
    ),
    pytest.param(
        POOL_OWNER, "def f(fut, cb):\n    fut.add_done_callback(cb)\n",
        id="done-callback",
    ),
])
def test_each_thread_entry_is_caught(rel_path, source):
    assert len(thread_violations(source, rel_path)) == 1


def test_the_fleet_pool_imports_pass():
    source = (
        "from concurrent.futures import "
        "FIRST_COMPLETED, Future, ProcessPoolExecutor, wait\n"
    )
    assert thread_violations(source, POOL_OWNER) == []
