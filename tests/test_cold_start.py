"""Cold-start guard: what a fresh process pays before it can build a site.

Every ledger subprocess, ``repro`` CLI call and spawned federation worker
starts from these imports.  The simulation core owns the little graph work
it needs (routing tables, independence groups); the graph library stays
behind ``repro.learning.attackgraph``'s own import.
"""

import os
import pathlib
import subprocess
import sys

import repro

PROBE = """
import sys
import repro.core.deployment, repro.federation.runner, repro.cli
assert "networkx" not in sys.modules, "the core imported networkx"
"""


def test_core_imports_do_not_load_networkx():
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
