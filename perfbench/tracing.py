"""Per-layer self-time attribution, recorded from the benchmark's side.

A :class:`LayerTracer` wraps the entry points of each layer of the
``repro`` package (question selection, knowledge base, significance
test, crowd simulation, dispatcher, storage, serving, HTTP, asyncio)
and keeps, per layer, the *self time*: a span's duration minus the
part of it covered by nested spans of any layer. Wall time not covered
by any span is the unattributed remainder.

Only synchronous functions are wrapped, so a span never straddles an
``await`` and one stack serves the whole process. Generator functions
(the lazy lattice scans) are left unwrapped; their cost lands in the
self time of whoever consumes them. A probe whose target no longer
exists (or is no longer a plain function or property) is skipped and
listed in :attr:`LayerTracer.missing`, so a renamed method costs its
layer's attribution, not the run.

Tracing is installed only for ``--trace 1`` runs; end-to-end metrics
are measured without it.
"""

from __future__ import annotations

import asyncio.events
import functools
import importlib
import inspect
import json
import selectors
import time
import types

#: Every layer the tracer attributes, in report order. The names are
#: the per-layer metric prefixes declared in ``BENCHMARK.json``.
LAYERS = (
    "miner",
    "select",
    "ingest",
    "kb",
    "significance",
    "aggregate",
    "crowd",
    "dispatch",
    "checkpoint",
    "wal_append",
    "wal_commit",
    "sql_index",
    "serve",
    "http_route",
    "http_encode",
    "json",
    "asyncio",
    "loop_wait",
)

#: (module, attribute path, layer) for every wrapped entry point.
PROBES = (
    ("repro.miner.crowdminer", "CrowdMiner.step", "miner"),
    ("repro.miner.crowdminer", "CrowdMiner.is_done", "miner"),
    ("repro.miner.crowdminer", "CrowdMiner.propose_question", "select"),
    ("repro.miner.crowdminer", "CrowdMiner.ingest_answer", "ingest"),
    ("repro.miner.state", "MiningState.record_answer", "kb"),
    ("repro.miner.state", "MiningState.add_rule", "kb"),
    ("repro.estimation.significance", "SignificanceTest.assess", "significance"),
    (
        "repro.estimation.significance",
        "SignificanceTest.probability_support_exceeds",
        "significance",
    ),
    ("repro.estimation.significance", "SignificanceTest.point_decision", "significance"),
    ("repro.estimation.aggregate", "MeanAggregator.summarize", "aggregate"),
    ("repro.estimation.aggregate", "TrimmedMeanAggregator.summarize", "aggregate"),
    ("repro.estimation.aggregate", "DynamicTrustAggregator.summarize", "aggregate"),
    ("repro.estimation.aggregate", "WeightedAggregator.summarize", "aggregate"),
    ("repro.crowd.crowd", "SimulatedCrowd.next_member", "crowd"),
    ("repro.crowd.crowd", "SimulatedCrowd.ask_closed", "crowd"),
    ("repro.crowd.crowd", "SimulatedCrowd.ask_open", "crowd"),
    ("repro.crowd.crowd", "SimulatedCrowd.ask_closed_async", "crowd"),
    ("repro.crowd.crowd", "SimulatedCrowd.ask_open_async", "crowd"),
    ("repro.crowd.array_crowd", "ArrayCrowd.next_member", "crowd"),
    ("repro.crowd.array_crowd", "ArrayCrowd.ask_closed", "crowd"),
    ("repro.crowd.array_crowd", "ArrayCrowd.ask_open", "crowd"),
    ("repro.crowd.array_crowd", "ArrayCrowd.ask_closed_batch", "crowd"),
    ("repro.crowd.array_crowd", "ArrayCrowd.make_in_flight", "crowd"),
    ("repro.crowd.partition", "CrowdPartition.next_member", "crowd"),
    ("repro.serve.roster", "WorkerRoster.next_member", "crowd"),
    ("repro.serve.differential", "SimulatedWorkerPool.answer", "crowd"),
    ("repro.dispatch.dispatcher", "Dispatcher.run", "dispatch"),
    ("repro.dispatch.sharded", "ShardedDispatcher.run", "dispatch"),
    ("repro.miner.crowdminer", "CrowdMiner.checkpoint", "checkpoint"),
    ("repro.storage.sqlite", "SQLiteBackend.append_answer", "wal_append"),
    ("repro.storage.sqlite", "SQLiteBackend.save_checkpoint", "wal_commit"),
    ("repro.storage.sqlite", "SQLiteBackend.truncate_answers", "wal_commit"),
    ("repro.storage.sqlite", "SQLiteRuleIndex.add", "sql_index"),
    ("repro.serve.session", "ServeSession.next_question", "serve"),
    ("repro.serve.session", "ServeSession.post_answer", "serve"),
    ("repro.serve.app", "MinerServer._dispatch", "http_route"),
    ("repro.serve.app", "encode_response", "http_encode"),
)


class LayerTracer:
    """Self time per layer, from wrapped entry points."""

    def __init__(self) -> None:
        self.self_seconds = dict.fromkeys(LAYERS, 0.0)
        #: Probes whose target was not found (renamed or removed).
        self.missing: list[str] = []
        # One child-time accumulator per open span, innermost last.
        self._stack: list[list[float]] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, func, layer: str):
        stack = self._stack
        self_seconds = self.self_seconds
        clock = time.perf_counter

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_seconds[layer] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        return spanned

    # -- installation --------------------------------------------------------

    def _patch(self, owner, name: str, layer: str) -> bool:
        """Wrap ``owner.name`` in a ``layer`` span; False if not wrappable."""
        static = inspect.getattr_static(owner, name, None)
        if isinstance(static, property):
            replacement = property(self._wrap(static.fget, layer))
        elif inspect.isfunction(static):
            replacement = self._wrap(static, layer)
        else:
            return False
        had_own = name in vars(owner)
        setattr(owner, name, replacement)
        if had_own:
            self._undo.append(lambda: setattr(owner, name, static))
        else:
            self._undo.append(lambda: delattr(owner, name))
        return True

    def install(self) -> None:
        """Wrap every probe target, the JSON codec and asyncio callbacks."""
        for module_name, path, layer in PROBES:
            *parents, name = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                owner = None
            if owner is None or not self._patch(owner, name, layer):
                self.missing.append(f"{module_name}.{path}")
        # The HTTP module reads ``json.dumps``/``json.loads`` through its
        # module global, on both the server and the client side.
        http = importlib.import_module("repro.serve.http")
        if getattr(http, "json", None) is json:
            http.json = types.SimpleNamespace(
                dumps=self._wrap(json.dumps, "json"),
                loads=self._wrap(json.loads, "json"),
            )
            self._undo.append(lambda: setattr(http, "json", json))
        else:
            self.missing.append("repro.serve.http.json")
        # Every asyncio callback (a task step, a transport read) runs
        # through Handle._run: its self time is coroutine code outside
        # the other layers — HTTP framing, stream I/O, client glue.
        if not self._patch(asyncio.events.Handle, "_run", "asyncio"):
            self.missing.append("asyncio.events.Handle._run")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def selector(self) -> selectors.BaseSelector:
        """A default selector whose blocking ``select`` is a loop_wait span."""
        span = self._wrap
        base = selectors.DefaultSelector

        class WaitTimedSelector(base):
            select = span(base.select, "loop_wait")

        return WaitTimedSelector()

    # -- reading -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """A copy of the self-time accumulators (diff two to scope a region)."""
        return dict(self.self_seconds)


def attribution(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer accrued between two :meth:`totals`."""
    return {layer: after[layer] - before[layer] for layer in LAYERS}
