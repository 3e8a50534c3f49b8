"""Pool runs must leave stderr clean of resource-tracker noise.

Shared-memory blocks are created and unlinked by the parent and
attached by forked pool children.  Unless the children share the
parent's resource tracker, one side either reports the blocks as leaked
or makes the tracker print ``KeyError`` tracebacks on unlink.  Tracker
output only shows at process exit, so the check runs in a subprocess.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: ER n=1500 p_edge=0.01 listed at p=3 on a two-process pool, twice, the
#: pool closed in between; prints how many shared-memory blocks it made.
#: That listing is predicted below the dispatch floor, so the script
#: drops the floor, as the other pool tests do, to make the pool run.
TRACKER_SCRIPT = """
import repro
from repro import AlgorithmParameters, ExecutionConfig
from repro.graphs.generators import erdos_renyi
from repro.parallel import executor, shm

executor.MIN_PARALLEL_ITEMS = 0

blocks = []
create = shm.SharedBlock.__init__

def counted(self, array):
    blocks.append(array.nbytes)
    create(self, array)

shm.SharedBlock.__init__ = counted
graph = erdos_renyi(1500, 0.01, seed=0)
params = AlgorithmParameters(3, execution=ExecutionConfig(plane="parallel", workers=2))
for _ in range(2):
    repro.list_cliques(graph, 3, model="congested-clique", params=params)
    params.execution.resolve_executor().close()
print(len(blocks))
"""


def test_pool_runs_leave_the_resource_tracker_quiet():
    """Two pool runs with the pool closed in between, in a fresh
    interpreter: children must share the parent's tracker, so the
    parent's unlinks raise no tracker ``KeyError`` and nothing is
    reported leaked.  The input is large enough for real shared
    memory (above ``SHM_MIN_BYTES`` / ``MIN_PARALLEL_ITEMS``)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACKER_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 0  # blocks really went to shm
    assert "KeyError" not in proc.stderr
    assert "leaked" not in proc.stderr
