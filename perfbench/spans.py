"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/repro`` is edited: :func:`install` replaces the
public entry points of each layer -- module functions and class
methods, so instances built later pick them up -- with wrappers that
open a span around the original call, and :func:`Tracer.uninstall`
puts the originals back.

A span has a name, a start, an end and a parent (the span open on the
same thread when it began).  Its *self time* is its duration minus the
time covered by its child spans.  Two kinds of span are kept in memory:

* coarse spans (one per campaign, shard, simulation, service call) are
  kept individually with id, parent id, start and end;
* hot spans (one or more per simulated reference: L1/L2 accesses, the
  cleaning sweep, write buffer, memory, the workload generator, codec
  checks) are folded into ``(name, parent name)`` aggregates of count,
  total and self time, so tracing a 600k-reference pass stays small.

:meth:`Tracer.dump` writes both out at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _ThreadState:
    """One thread's open-span stack and folded results (no locking)."""

    def __init__(self) -> None:
        #: Open frames: [name, start, child time, span id or None].
        self.stack: List[list] = []
        #: (name, parent name) -> [count, total s, self s].
        self.agg: Dict[Tuple[str, Optional[str]], list] = {}
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()
        self.values: Dict[str, List[float]] = {}
        #: Time spent in span bookkeeping rather than in the layers.
        self.overhead = 0.0


class Tracer:
    """Span recorder plus the wrappers it installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self.sim_keys: set = set()

    # -- recording -----------------------------------------------------------

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def wrap(
        self,
        func: Callable,
        name: Any,
        hot: bool = False,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``func`` inside a span.  ``name`` may be a callable of the
        call's arguments; ``before(state, args)`` returns a token handed
        to ``after(state, args, result, token)``, which may record
        counts on the thread state."""
        state_of = self.state
        ids = self._ids
        named = callable(name)

        def wrapper(*args, **kwargs):
            enter = _clock()
            state = state_of()
            stack = state.stack
            span = name(args) if named else name
            token = before(state, args) if before is not None else None
            frame = [span, 0.0, 0.0, None if hot else next(ids)]
            stack.append(frame)
            ok = False
            start = _clock()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if hot:
                    key = (span, parent[0] if parent else None)
                    entry = state.agg.get(key)
                    if entry is None:
                        entry = state.agg[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
                else:
                    state.spans.append({
                        "id": frame[3],
                        "name": span,
                        "parent": parent[3] if parent else None,
                        "parent_name": parent[0] if parent else None,
                        "start": start,
                        "end": end,
                        "self_s": duration - frame[2],
                    })
                if ok and after is not None:
                    after(state, args, result, token)
                leave = _clock()
                # The parent is charged the whole call, bookkeeping
                # included, so its self time stays clean; the
                # bookkeeping itself is kept apart as overhead.
                if parent is not None:
                    parent[2] += leave - enter
                state.overhead += (leave - enter) - duration

        wrapper.__wrapped__ = func
        return wrapper

    def patch(self, owner: Any, attr: str, name: Any, **kwargs) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kwargs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def overhead_s(self) -> float:
        """Span bookkeeping time summed over all threads."""
        with self._lock:
            return sum(state.overhead for state in self._states)

    def merged(self) -> Tuple[dict, List[dict], Counter, Dict[str, list]]:
        """(aggregates, coarse spans, counts, values) over all threads."""
        agg: Dict[Tuple[str, Optional[str]], list] = {}
        spans: List[dict] = []
        counts: Counter = Counter()
        values: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (n, total, own) in state.agg.items():
                entry = agg.setdefault(key, [0, 0.0, 0.0])
                entry[0] += n
                entry[1] += total
                entry[2] += own
            spans.extend(state.spans)
            counts.update(state.counts)
            for key, vals in state.values.items():
                values.setdefault(key, []).extend(vals)
        return agg, spans, counts, values

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} over both span kinds.

        ``total_s`` counts only outermost spans of a name, so a layer
        that re-enters itself is not counted twice.
        """
        agg, spans, _, _ = self.merged()
        out: Dict[str, Dict[str, float]] = {}
        for (name, parent), (n, total, own) in agg.items():
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += n
            entry["self_s"] += own
            if parent != name:
                entry["total_s"] += total
        for span in spans:
            entry = out.setdefault(
                span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += span["self_s"]
            if span["parent_name"] != span["name"]:
                entry["total_s"] += span["end"] - span["start"]
        return out

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        agg, spans, counts, _ = self.merged()
        doc = {
            "spans": sorted(spans, key=lambda s: s["start"]),
            "aggregates": [
                {"name": name, "parent": parent, "count": n,
                 "total_s": total, "self_s": own}
                for (name, parent), (n, total, own) in sorted(
                    agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
            "counts": dict(counts),
            "overhead_s": self.overhead_s(),
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


# -- the layer boundaries -----------------------------------------------------

_ACCESS_SPANS = {"l1d": "cache.l1d.access", "l1i": "cache.l1i.access",
                 "l2": "core.l2.access", "l3": "core.l3.access"}


def _access_name(args) -> str:
    return _ACCESS_SPANS.get(args[0].config.name, "cache.other.access")


def _count_access(state, args, result, token) -> None:
    name = args[0].config.name
    state.counts[f"{name}.calls"] += 1
    if result.hit:
        state.counts[f"{name}.hits"] += 1


def _cleaning_before(state, args) -> int:
    cleaning = getattr(args[0], "cleaning", None)
    return cleaning.checks if cleaning is not None else 0


def _cleaning_after(state, args, result, before) -> None:
    cleaning = getattr(args[0], "cleaning", None)
    if cleaning is not None:
        state.counts["cleaning.checks"] += cleaning.checks - before


def _push_before(state, args) -> int:
    return args[0].stats.coalesced


def _push_after(state, args, result, before) -> None:
    state.counts["write_buffer.pushes"] += 1
    state.counts["write_buffer.coalesced"] += args[0].stats.coalesced - before


def _count(key: str) -> Callable:
    def after(state, args, result, token) -> None:
        state.counts[key] += 1
    return after


class _TimedStream:
    """A reference stream whose every ``next`` is a hot span."""

    def __init__(self, stream, tracer: Tracer) -> None:
        self._next = tracer.wrap(
            iter(stream).__next__, "workloads.gen", hot=True,
            after=_count("workloads.refs"),
        )

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.autotune as autotune
    import repro.experiments.runner as runner
    import repro.reliability.campaign as campaign
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.mainmem import MainMemory
    from repro.cache.write_buffer import WriteBuffer
    from repro.core.protected_cache import ProtectedL2
    from repro.cpu.ooo import OoOCore
    from repro.ecc import available_codecs, get_codec
    from repro.experiments.pool import ResultCache, SweepEngine
    from repro.reliability import CampaignEngine
    from repro.service.client import ServiceClient

    # workloads: the generator behind every reference stream.
    make_ref_stream = runner.__dict__["make_ref_stream"]
    tracer._patches.append((runner, "make_ref_stream", make_ref_stream))
    runner.make_ref_stream = (
        lambda *a, **k: _TimedStream(make_ref_stream(*a, **k), tracer)
    )

    # cache: hierarchy entry points, L1s/L2 access, write buffer, memory.
    for attr in ("load", "store", "ifetch"):
        tracer.patch(MemoryHierarchy, attr, "cache.hierarchy", hot=True)
    tracer.patch(SetAssociativeCache, "access", _access_name, hot=True,
                 after=_count_access)
    tracer.patch(WriteBuffer, "push", "cache.write_buffer.push", hot=True,
                 before=_push_before, after=_push_after)
    for attr in ("read", "write"):
        tracer.patch(MainMemory, attr, "cache.memory", hot=True,
                     after=_count("memory.transactions"))

    # core: the cleaning sweep (a no-op advance on unprotected L2s).
    for cls in (SetAssociativeCache, ProtectedL2):
        tracer.patch(cls, "advance", "core.cleaning.advance", hot=True,
                     before=_cleaning_before, after=_cleaning_after)

    # cpu: the out-of-order core.
    def ooo_after(state, args, result, token) -> None:
        state.counts["ooo.insts"] += result.instructions
    tracer.patch(OoOCore, "run", "cpu.ooo", after=ooo_after)

    # ecc: every registered codec's check.
    patched = set()
    for codec_name in available_codecs():
        cls = type(get_codec(codec_name))
        for klass in cls.__mro__:
            if "check" in klass.__dict__ and klass not in patched:
                if getattr(klass.__dict__["check"], "__isabstractmethod__",
                           False):
                    continue
                patched.add(klass)
                tracer.patch(klass, "check", "ecc.check", hot=True)
                break

    # reliability: shards, campaigns.
    def shard_after(state, args, result, token) -> None:
        spec = args[0]
        state.counts["reliability.shards"] += 1
        state.counts[f"kernel.{spec.kernel}.trials"] += spec.trials
    tracer.patch(campaign, "run_shard",
                 lambda args: f"reliability.kernel.{args[0].kernel}",
                 after=shard_after)
    tracer.patch(CampaignEngine, "run", "reliability.campaign")

    # experiments: simulations (one run_ref_stream each), the engine
    # and its result cache.
    def sim_after(state, args, result, token) -> None:
        hierarchy, config = args[1], args[2]
        protection = args[4] if len(args) > 4 else None
        state.counts["runner.sim_calls"] += 1
        state.values.setdefault("bus_utilization", []).append(
            result.bus_utilization
        )
        key = (
            result.benchmark,
            type(hierarchy.l2).__name__,
            None if protection is None else (
                protection.cleaning_interval,
                protection.ecc_entries_per_set,
            ),
            config.n_refs, config.warmup_refs, config.seed,
            config.geometry,
        )
        with tracer._lock:
            tracer.sim_keys.add(key)
    tracer.patch(runner, "run_ref_stream", "experiments.runner.sim",
                 after=sim_after)
    tracer.patch(SweepEngine, "run_cells", "experiments.pool.run_cells")

    def cache_get_after(state, args, result, token) -> None:
        state.counts["pool.lookups"] += 1
        if result is not None:
            state.counts["pool.hits"] += 1
    tracer.patch(ResultCache, "get", "experiments.pool.cache_get",
                 hot=True, after=cache_get_after)

    # autotune: the explorer and the front computation, looked up on
    # the package by the facade at call time.
    tracer.patch(autotune, "explore", "autotune.explore")
    tracer.patch(autotune, "pareto_front", "autotune.pareto")

    # service: the client side of every job.
    tracer.patch(ServiceClient, "submit", "service.submit")
    tracer.patch(ServiceClient, "result", "service.result_wait")
    return tracer
