"""Allowlist of tasks a worker node will execute, resolved by name.

Remote dispatch never ships callables: a ``call`` frame carries a task
*name*, looked up here on the executing side (worker process or
:class:`~repro.dist.node.LocalNode`).  The allowlist holds dotted
``module:attribute`` strings so importing this module stays cheap —
``spawn``-started workers re-import it on every boot, and the sweep
task pulls in the whole analysis stack only when actually called.

Every entry follows the shard-kernel contract of
:mod:`repro.parallel.tasks`: ``fn(refs, *args)`` where ``refs`` maps
names to :class:`~repro.parallel.shm.ArrayRef` inputs and ``args`` are
JSON values; the return value is a tree of fresh numeric arrays and
JSON values — what :mod:`repro.dist.protocol` can carry.  The cluster
reuses the *identical* kernels the single-box shard executor runs —
that is the whole determinism argument of the dist plane (see
``docs/distributed.md``).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.dist.errors import UnknownTaskError

#: name → "module:attribute".  Extend here (and only here) to expose a
#: new kernel to remote nodes.
TASKS: Dict[str, str] = {
    # The three shard kernels of the parallel plane (repro.parallel.tasks).
    "grouped_tables_shard": "repro.parallel.tasks:grouped_tables_shard",
    "forward_table_shard": "repro.parallel.tasks:forward_table_shard",
    "forward_count_shard": "repro.parallel.tasks:forward_count_shard",
    # Out-of-core partition kernels (repro.dist.partition).
    "partition_table_shard": "repro.dist.partition:partition_table_shard",
    "partition_count_shard": "repro.dist.partition:partition_count_shard",
    # One whole sweep grid cell (repro.dist.registry, lazy import below).
    "sweep_cell": "repro.dist.registry:sweep_cell",
}

_RESOLVED: Dict[str, Callable] = {}


def resolve_task(name: str) -> Callable:
    """The callable registered under ``name`` (cached after first use)."""
    fn = _RESOLVED.get(name)
    if fn is not None:
        return fn
    target = TASKS.get(name)
    if target is None:
        raise UnknownTaskError(
            f"task {name!r} is not in the worker allowlist "
            f"(known: {sorted(TASKS)})"
        )
    module_name, attribute = target.split(":")
    fn = getattr(importlib.import_module(module_name), attribute)
    _RESOLVED[name] = fn
    return fn


def sweep_cell(refs, payload: dict) -> dict:
    """Execute one sweep grid cell remotely; returns its result row.

    ``payload`` is the :class:`~repro.analysis.sweeps.RunSpec` as a
    field dict.  Tuples arrive as lists, so the item lists are re-frozen
    here; a ``faults`` entry of ``extra`` arrives as its field dict and
    is rebuilt as a :class:`~repro.faults.FaultModel`, which re-tuples
    its own lists.  The heavy imports happen inside the call: worker
    boot stays fast and the parallel-plane task imports above stay
    usable without the analysis stack.
    """
    del refs  # sweep cells carry no array inputs
    from repro.analysis.sweeps import RunSpec, execute_run
    from repro.faults.model import FaultModel

    params = tuple(map(tuple, payload["params"]))
    extra = tuple(
        (name, FaultModel(**value) if name == "faults" and value else value)
        for name, value in payload["extra"]
    )
    return execute_run(RunSpec(**{**payload, "params": params, "extra": extra}))
