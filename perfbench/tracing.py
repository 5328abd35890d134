"""Span recorder for the traced run.

The traced run wraps the public functions of each layer *from the
benchmark's side*: nothing under ``src/`` is edited.  A wrapped call
records one span ``(name, start, end, parent, request)``:

* ``parent`` is the index of the span that was open on the same thread
  when the call started (``-1`` for a root span);
* ``request`` is the identifier the driver set with
  :meth:`SpanRecorder.request` before issuing the operation, shared by
  every span of that operation (``-1`` outside a request, e.g. in the
  background rebuild thread).

Spans are kept in memory and written out once, after the run.  A
span's *self time* is its duration minus the time its direct children
cover; children run on the parent's thread and nest strictly inside
it, so that is the plain sum of the children's durations.

Names a module imports from another one (``parse`` inside
``repro.engine.executor``, ``batch_topk`` inside
``repro.indexes.robust``) are patched in the importing module, where
the call looks them up; methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from pathlib import Path

__all__ = ["SpanRecorder", "LAYER_SPANS"]

#: (module path, attribute path, span name) for every wrapped entry
#: point.  An attribute path with a dot is ``Class.method``.
LAYER_SPANS = (
    ("repro.engine.executor", "TopKExecutor.execute_many", "executor.execute_many"),
    ("repro.engine.executor", "TopKExecutor.execute_auto", "executor.execute_auto"),
    ("repro.engine.executor", "parse", "sql.parse"),
    ("repro.engine.planner", "CostBasedPlanner.choose", "planner.choose"),
    ("repro.engine.cache", "ResultCache.lookup", "cache.lookup"),
    ("repro.engine.cache", "ResultCache.store", "cache.store"),
    ("repro.engine.relation", "Relation.take", "relation.take"),
    ("repro.indexes.robust", "RobustIndex.query_batch", "index.query_batch"),
    ("repro.indexes.robust", "RobustIndex.query", "index.query"),
    ("repro.indexes.robust", "batch_topk", "qkernel.batch_topk"),
    ("repro.indexes.robust", "topk_select", "qkernel.topk_select"),
    ("repro.indexes.robust", "appri_build", "appri.build"),
    ("repro.indexes.robust", "exact_build", "exact.build"),
    ("repro.core.appri", "appri_build", "appri.build"),
    ("repro.indexes.dynamic", "DynamicRobustIndex.query", "dynamic.query"),
    ("repro.indexes.dynamic", "DynamicRobustIndex.insert", "dynamic.insert"),
    ("repro.indexes.dynamic", "DynamicRobustIndex.delete", "dynamic.delete"),
    ("repro.indexes.dynamic", "topk_select", "qkernel.topk_select"),
    ("repro.core.dynamic", "layer_for_new_tuple", "dynamic.layer_for_new_tuple"),
    ("repro.engine.rebuild", "RebuildManager.rebuild_now", "rebuild.rebuild_now"),
    ("repro.engine.snapshot", "save_snapshot", "snapshot.save"),
    ("repro.engine.snapshot", "load_snapshot", "snapshot.load"),
)


class SpanRecorder:
    """Collects spans from wrapped layer entry points (thread-safe)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- request scoping ---------------------------------------------

    def request(self, request_id: int) -> None:
        """Tag spans opened on this thread from now on with ``request_id``."""
        self._local.request = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that every call records a span ``name``."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [
                name,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                getattr(self._local, "request", -1),
            ]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every entry point in :data:`LAYER_SPANS` (undo with
        :meth:`uninstall`)."""
        for module_name, attr_path, span_name in LAYER_SPANS:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _request) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line (with a header)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\trequest\n")
            for i, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                fh.write(
                    f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n"
                )
