"""In-memory spans and counters, wrapped around ``repro`` from outside.

The traced run replaces the functions listed in :data:`SPANS` at the
names their callers look up (for example
``repro.core.congested_clique_listing.grouped_clique_tables``, not
``repro.graphs.csr.grouped_clique_tables``) and puts the originals back
afterwards.  Nothing under ``src/`` changes.

A span records its name, thread, start, end, parent and op id; spans of
one op share the op id of its root span.  Self time is a span's duration
minus the durations of its children on the same thread.  Calls made once
per clique (``ListingResult.attribute``) bump a counter instead of
opening a span.  Spans stay in memory and are written as JSON lines
when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

# Record layout: one mutable list per span, cheap to build on the hot path.
# TAG is free for the caller (serve tags a read's handle span with its index).
SID, NAME, THREAD, START, END, PARENT, OP, TAG = range(8)


class Tracer:
    """Nested spans per thread plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sums: Dict[str, float] = defaultdict(float)
        self._tallies: Dict[str, List[int]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, parent: Optional[list] = None) -> list:
        """Open a span under ``parent`` (default: this thread's open span)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        record = [
            sid, name, threading.get_ident(), time.perf_counter(), 0.0,
            parent[SID] if parent else 0, parent[OP] if parent else sid, None,
        ]
        stack.append(record)
        return record

    def exit(self, record: list) -> None:
        record[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self.spans.append(record)

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a counter; safe from any thread."""
        with self._lock:
            self._sums[name] += amount

    def tally(self, name: str) -> List[int]:
        """A one-cell counter for calls made once per clique.  Bumping it
        is a bare ``cell[0] += 1``: use it only from one thread at a time."""
        return self._tallies.setdefault(name, [0])

    def counters(self) -> Dict[str, float]:
        with self._lock:
            out = dict(self._sums)
        for name, cell in self._tallies.items():
            out[name] = out.get(name, 0) + cell[0]
        return out

    def write_jsonl(self, path, extra: Optional[Dict] = None) -> None:
        keys = ("id", "name", "thread", "start", "end", "parent", "op", "tag")
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")
            out.write(json.dumps({"counters": self.counters(), **(extra or {})}) + "\n")


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the children that ran on its thread."""
    by_id = {record[SID]: record for record in spans}
    own = {record[SID]: record[END] - record[START] for record in spans}
    for record in spans:
        parent = by_id.get(record[PARENT])
        if parent is not None and parent[THREAD] == record[THREAD]:
            own[parent[SID]] -= record[END] - record[START]
    return own


def roots(spans: Sequence[list]) -> List[list]:
    """The spans that opened an op (their op id is their own id)."""
    return [record for record in spans if record[OP] == record[SID]]


def self_ms_per_op(spans: Sequence[list]) -> Dict[str, float]:
    """Mean self time per op, in ms, for every span name.

    An op is a root span; a name that runs under several kinds of root
    (a serve read and a serve ingest) gets the sum of its per-kind means.
    """
    own = self_times(spans)
    kind = {r[SID]: r[NAME] for r in roots(spans)}
    ops: Dict[str, int] = defaultdict(int)
    for name in kind.values():
        ops[name] += 1
    totals: Dict[tuple, float] = defaultdict(float)
    for record in spans:
        root = kind.get(record[OP])
        if root is not None:
            totals[record[NAME], root] += own[record[SID]] * 1e3
    out: Dict[str, float] = defaultdict(float)
    for (name, root), total in totals.items():
        out[name] += total / ops[root]
    return dict(out)


# ----------------------------------------------------------------------
# Instrumentation table
# ----------------------------------------------------------------------
def _batch_words(tracer, record, args, kwargs, result) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tracer.add("congest.words_routed", len(batch) * batch.words_per_message)


def _tuple_words(tracer, record, args, kwargs, result) -> None:
    messages = args[1] if len(args) > 1 else kwargs["messages"]
    per = kwargs.get("words_per_message", args[4] if len(args) > 4 else 1)
    tracer.add("congest.words_routed", per * sum(map(len, messages.values())))


def _rows(tracer, record, args, kwargs, result) -> None:
    tracer.add("csr.grouped_clique_tables.rows", int(result[1].shape[0]))


def _calls(tracer, record, args, kwargs, result) -> None:
    tracer.add(record[NAME] + ".calls")


def _request_index(tracer, record, args, kwargs, result) -> None:
    record[TAG] = (args[1] if len(args) > 1 else kwargs["request"]).index


#: (module, class or None for a module-level name, attribute, span name,
#: feed).  A feed runs after the call and may add to counters or tag the
#: span.
SPANS = (
    ("repro.core.congested_clique_listing", None, "grouped_clique_tables",
     "csr.grouped_clique_tables", _rows),
    ("repro.graphs.csr", "CSRGraph", "clique_table", "csr.clique_table", None),
    ("repro.core.congested_clique_listing", None, "fanout_edges_by_pair",
     "congest.fanout_edges_by_pair", None),
    ("repro.congest.congested_clique", "CongestedClique", "route_batch",
     "congest.route_batch", _batch_words),
    ("repro.congest.congested_clique", "CongestedClique", "charge_batch",
     "congest.charge_batch", _batch_words),
    ("repro.congest.routing", "ClusterRouter", "route",
     "congest.cluster_router", _tuple_words),
    ("repro.congest.routing", "ClusterRouter", "route_batch",
     "congest.cluster_router", _batch_words),
    ("repro.congest.routing", "ClusterRouter", "charge_batch",
     "congest.cluster_router", _batch_words),
    ("repro.parallel.executor", "ShardExecutor", "fanout_tables",
     "parallel.fanout_tables", _calls),
    ("repro.core.cluster_task", None, "sparsity_aware_listing",
     "core.sparsity_aware_listing", None),
    ("repro.core.cluster_task", None, "gather_outside_edges",
     "core.gather_outside_edges", None),
    ("repro.core.cluster_task", None, "reshuffle_edges", "core.reshuffle_edges", None),
    ("repro.core.result", "ListingResult", "attribute_table", "core.attribute_table", None),
    ("repro.core.listing", None, "degeneracy_orientation",
     "orientation.degeneracy_orientation", _calls),
    ("repro.core.congested_clique_listing", None, "degeneracy_orientation",
     "orientation.degeneracy_orientation", _calls),
    ("repro.core.arb_list", None, "expander_decomposition",
     "decomposition.expander_decomposition", _calls),
    ("repro.graphs.table", "CliqueTable", "difference", "table.difference", None),
    ("repro.graphs.table", "CliqueTable", "union", "table.union", None),
    ("repro.stream.engine", None, "touched_clique_table",
     "stream.touched_clique_table", None),
    ("repro.stream.engine", "StreamEngine", "apply", "stream.apply", None),
    ("repro.serve.service", "CliqueService", "ingest", "serve.publish", None),
    ("repro.serve.service", "CliqueService", "handle", "serve.handle", _request_index),
    ("repro.serve.epoch", "EpochSnapshot", "listing_result", "serve.listing_result", None),
    # Serve's listing runs import the Theorem 1.3 driver lazily from here;
    # the driver workloads open their own ``core.driver`` root span.
    ("repro.core.congested_clique_listing", None, "list_cliques_congested_clique",
     "core.driver", None),
)


class Instrumentation:
    """Install the span and counter wrappers; :meth:`restore` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[tuple] = []

    def install(self) -> "Instrumentation":
        import importlib

        from repro.core.result import ListingResult

        for module_name, owner_name, attr, name, feed in SPANS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._replace(owner, attr, self._span(self._original(owner, attr), name, feed))
        cell = self.tracer.tally("core.attribute.calls")
        original = self._original(ListingResult, "attribute")
        self._replace(ListingResult, "attribute", _counted_attribute(original, cell))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    @staticmethod
    def _original(owner, attr: str):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _replace(self, owner, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, self._original(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, original: Callable, name: str, feed) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(record)
            if feed is not None:
                feed(tracer, record, args, kwargs, result)
            return result

        return wrapper


def _counted_attribute(original: Callable, cell: List[int]) -> Callable:
    # Same signature as ListingResult.attribute: a generic *args wrapper
    # costs ~3x more, which at 390k calls per CONGEST op shows.
    @functools.wraps(original)
    def attribute(self, node, clique):
        cell[0] += 1
        return original(self, node, clique)

    return attribute
