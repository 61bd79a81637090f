"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it wraps the entry points of each layer
at the name its caller looks up (a module attribute, or a method patched on
its class), records one open and one close event per call in a per-thread
list, and restores every original afterwards.

Attribution is a sweep over the merged timeline of all threads.  At each
instant every thread is in its innermost open span; the instant is split
equally between the threads whose innermost span is *working*.  Spans
marked ``wait`` are a caller blocked on another thread (a cluster RPC, a
request parked at the fusion barrier, a round waiting on its thread-pool
chunks, the generator waiting on a drain); they receive time only while no
thread is working.  That is how a pool thread's oracle work is charged to
the round that dispatched it, and why the layer shares of a run add up to
exactly the wall time of the traced window, with the remainder (harness
code and anything unwrapped) reported as ``other``.  Work done inside
``process``-backend worker processes is invisible here and stays in the
self time of ``engine.execute``.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: every wrapped entry point: (span key, wait?, targets).  A target is
#: ``"module:attribute"`` or ``"module:Class.method"``, always the name the
#: caller resolves at call time.
TARGETS: Tuple[Tuple[str, bool, Tuple[str, ...]], ...] = (
    ("service.sample", False, ("repro.service.session:SamplerSession.sample",)),
    ("service.scheduler", True, ("repro.service.scheduler:RoundScheduler.drain",
                                 "repro.service.scheduler:_FusingBackend.execute")),
    ("cluster.wire", True, ("repro.cluster.client:ClusterClient.call_node",)),
    ("cluster.node", False, ("repro.cluster.node:ShardNode.handle",)),
    ("engine.plan", False, ("repro.engine.planner:RoundPlanner.plan",)),
    ("engine.execute", False, ("repro.engine.backends:ExecutionBackend.execute",
                               "repro.engine.planner:AutoBackend.execute")),
    ("engine.pool_wait", True, ("repro.engine.backends:ThreadPoolBackend._map_chunks",)),
    ("core.driver", False, ("repro.service.session:batched_sample",)),
    ("dpp.spectral", False, ("repro.service.session:sample_kdpp_spectral",)),
    ("dpp.marginals", False, ("repro.dpp.symmetric:SymmetricKDPP.marginal_vector",
                              "repro.dpp.symmetric:SymmetricKDPP.joint_marginals_batch",
                              "repro.dpp.symmetric:SymmetricKDPP.counting")),
    ("dpp.leave_one_out_esp", False, ("repro.dpp.elementary:leave_one_out_esp",)),
    ("dpp.normalization", False, ("repro.dpp.symmetric:SymmetricKDPP.partition_function",)),
    ("dpp.intermediate", False, ("repro.service.session:sample_kdpp_intermediate",)),
    ("linalg.eig", False, ("numpy.linalg:eigh", "numpy.linalg:eigvalsh")),
    ("linalg.projection_step", False, ("repro.engine.backends:hkpv_projection_step",)),
    ("linalg.updates", False, ("repro.linalg.updates:KernelUpdate.apply",
                               "repro.service.cache:FactorizationCache.adopt")),
)

#: the key of wall time with no span open on any thread
OTHER = "other"


def _resolve(target: str):
    """``(owner, attribute)`` for a target string; fails if it moved."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attribute not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner!r}: "
                             "the benchmark's wrapper table is stale")
    return owner, attribute


@dataclass
class Split:
    """The attributed result of one traced window."""

    wall: float
    #: span key (or ``other``) -> seconds of self time attributed to it
    self_s: Dict[str, float]
    #: span key -> summed duration of its outermost calls
    inclusive_s: Dict[str, float]
    calls: Counter

    def layer_shares(self) -> Dict[str, float]:
        shares: Dict[str, float] = defaultdict(float)
        for key, seconds in self.self_s.items():
            shares[key.split(".")[0]] += seconds / self.wall
        return dict(shares)


class Recorder:
    """Installs the wrappers, collects events, and attributes them.

    ``on_plan(decision)`` sees every planner decision and
    ``on_observe(decision, result)`` every measured routed round.
    """

    def __init__(self, on_plan: Callable[[object], None],
                 on_observe: Callable[[object, object], None]):
        self._keys = [key for key, _wait, _targets in TARGETS]
        self._wait = [wait for _key, wait, _targets in TARGETS]
        self._local = threading.local()
        self._streams: List[Tuple[str, list]] = []
        self._streams_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._on_plan = on_plan
        self._on_observe = on_observe

    # ------------------------------------------------------------------ #
    def _events(self) -> list:
        events = getattr(self._local, "events", None)
        if events is None:
            events = self._local.events = []
            with self._streams_lock:
                self._streams.append((threading.current_thread().name, events))
        return events

    def _wrap(self, original, code: int, after: Optional[Callable] = None):
        events = self._events
        clock = time.perf_counter
        close = -code - 1

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stream = events()
            stream.append((clock(), code))
            try:
                result = original(*args, **kwargs)
            finally:
                stream.append((clock(), close))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        on_plan = self._on_plan
        for code, (key, _wait, targets) in enumerate(TARGETS):
            after = (lambda planned: on_plan(planned[1])) if key == "engine.plan" else None
            for target in targets:
                owner, attribute = _resolve(target)
                self._patch(owner, attribute,
                            self._wrap(vars(owner)[attribute], code, after))
        owner, attribute = _resolve("repro.engine.planner:RoundPlanner.observe")
        observe = vars(owner)[attribute]
        on_observe = self._on_observe

        @functools.wraps(observe)
        def observed(planner, decision, result):
            on_observe(decision, result)
            return observe(planner, decision, result)

        self._patch(owner, attribute, observed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def split(self, start: float, end: float) -> Split:
        """Attribute every event recorded inside ``[start, end]``."""
        keys, wait = self._keys, self._wait
        with self._streams_lock:
            streams = list(self._streams)
        tagged = [[(t, index, code) for t, code in events]
                  for index, (_name, events) in enumerate(streams)]
        stacks: List[List[Tuple[int, float]]] = [[] for _ in streams]
        self_s = [0.0] * len(keys)
        inclusive = [0.0] * len(keys)
        calls: Counter = Counter()
        other = 0.0
        previous = start
        for t, thread, code in heapq.merge(*tagged):
            gap = t - previous
            if gap > 0:
                tops = [stack[-1][0] for stack in stacks if stack]
                if tops:
                    working = [top for top in tops if not wait[top]] or tops
                    piece = gap / len(working)
                    for top in working:
                        self_s[top] += piece
                else:
                    other += gap
            previous = t
            stack = stacks[thread]
            if code >= 0:
                stack.append((code, t))
            else:
                opened, began = stack.pop()
                calls[keys[opened]] += 1
                if all(entry[0] != opened for entry in stack):
                    inclusive[opened] += t - began
        if any(stacks):
            raise RuntimeError("a wrapped call was still open when the traced window closed")
        self_by_key = {key: self_s[i] for i, key in enumerate(keys)}
        self_by_key[OTHER] = other + max(end - previous, 0.0)
        return Split(wall=end - start, self_s=self_by_key,
                     inclusive_s={key: inclusive[i] for i, key in enumerate(keys)},
                     calls=calls)
