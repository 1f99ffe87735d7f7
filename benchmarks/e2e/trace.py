"""Outside-in tracer for one benchmark repetition.

Nothing under ``src/`` knows about this module. Three instruments, all
attached from here and detached again by :meth:`Tracer.uninstall`:

* **spans** — wrappers around public entry points record
  ``(id, name, layer, start, end, parent, thread)``; a span's self time
  is its duration minus what its child spans cover;
* **counts** — count-only wrappers on hot public callables, plus the
  counters the program already publishes on the objects those entry
  points return (``ExecutionPlan``, ``OptimizationResult``,
  ``RunMetadata``, ``Session.plan_cache_info()``);
* **sampler** — a 250 Hz ``SIGALRM`` tick reads every thread's innermost
  Python frame (``sys._current_frames()``) and charges it to the layer
  owning the source file. That is the only way, from outside, to split
  the interior of ``Environment.run`` between executor, calendar,
  resources and hardware models. Time inside C code is charged to the
  Python frame that called it, so ``numpy`` only shows NumPy's own
  Python-level code. A thread parked in ``threading``/``queue`` waits is
  counted as waiting for the nearest non-stdlib caller, not as busy.
  Only the main thread's samples become ``<layer>.self_s``: the handler
  runs on the main thread, which sees another thread only once that
  thread has let go of the GIL, i.e. far too often inside a NumPy call
  (measured on ``serving_closed``: 80 % of worker samples in one
  ``matmul`` kernel; forcing fair hand-offs with a 5 us switch interval
  cost 1.5x wall and still did not converge). Other threads' samples are
  kept in the trace file as ``busy_other_threads``; their time is
  accounted from spans instead (``serving.*``, ``core.session.prepare_s``,
  ``simnet.events.drive_s``).

Module-level functions are wrapped by rebinding every ``repro.*`` module
attribute that *is* the original object, so ``from x import f`` call
sites are covered too. An entry point that no longer exists is skipped
with a warning and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import sysconfig
import threading
import time
import weakref
from collections import Counter

import layers
from speed import SAMPLE_PERIOD_S

# (module, class or None, attribute, span name, layer)
_SPAN_TARGETS = (
    ("repro.core.session", "Session", "run", "Session.run", "core.session"),
    ("repro.core.session", "Session", "run_gen", "Session.run_gen",
     "core.session"),
    ("repro.core.partition", None, "build_plan", "build_plan",
     "core.partition"),
    ("repro.core.optimizer.pipeline", None, "run_pipeline", "run_pipeline",
     "core.optimizer"),
    ("repro.core.gradients", None, "gradients", "gradients",
     "core.gradients"),
    ("repro.function.concrete", "TracedFunction", "get_concrete_function",
     "get_concrete_function", "function"),
    ("repro.function.tracing", None, "trace", "function.trace", "function"),
    ("repro.core.executor", None, "launch_plan", "launch_plan",
     "core.executor"),
    ("repro.simnet.events", "Environment", "run", "Environment.run",
     "simnet.events"),
    ("repro.serving.server", "ModelServer", "submit", "ModelServer.submit",
     "serving"),
    # The two places a serving thread parks: a client on its future, a
    # worker on the admission queue.
    ("repro.serving.request", "ServingFuture", "result",
     "ServingFuture.result", "serving"),
    ("repro.serving.admission", "AdmissionController", "next_batch",
     "AdmissionController.next_batch", "serving"),
)
# (module, class or None, attribute, counter)
_COUNT_TARGETS = (
    ("repro.simnet.events", "Environment", "step", "simnet.events.steps"),
    ("repro.core.graph", "Graph", "create_op", "core.graph.ops_created"),
    ("repro.core.placement", "Placer", "place", "core.placement.ops_placed"),
    ("repro.simnet.transports", None, "transfer", "simnet.hw.transfers"),
)

_WAIT_FILES = tuple(
    os.path.join(sysconfig.get_paths()["stdlib"], name)
    for name in ("threading.py", "queue.py")
)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._calls: dict[str, itertools.count] = {}  # count-only wrappers
        self.busy: Counter = Counter()  # layer -> main-thread samples
        self.busy_other: Counter = Counter()  # same, other threads (biased)
        self.waiting: Counter = Counter()  # layer -> thread-samples parked
        self.ticks = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []
        self._metadata: list = []  # RunMetadata of every launched run
        # Session -> evictions last seen (the total lives in counts, so it
        # survives the session).
        self._evictions = weakref.WeakKeyDictionary()
        self._missed: set[int] = set()  # ids of spans that built a plan
        self._layer_cache: dict[str, str] = {}

    # -- spans and counts ---------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _span_wrapper(self, fn, name, layer, after=None):
        clock = time.perf_counter
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            ident = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(ident)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((ident, name, layer, start, end, parent,
                              threading.get_ident()))
            if after is not None:
                after(args, result, ident, parent)
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        # itertools.count: the cheapest exact counter there is, and safe
        # across threads; Environment.step is called a million times.
        tick = self._calls.setdefault(key, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # Counters read off what the wrapped entry points take and return.
    def _after_build_plan(self, args, plan, ident, parent) -> None:
        self._missed.add(parent)
        self.counts["core.partition.plan_items"] += len(plan.items)
        self.counts["core.kernel_fusion.compiled_items"] += plan.compiled_items
        self.counts["core.kernel_fusion.fused_ops"] += plan.fused_op_count

    def _after_run_pipeline(self, args, result, ident, parent) -> None:
        self.counts["core.optimizer.nodes_removed"] += sum(
            stats.nodes_removed for stats in result.stats
        )

    def _after_launch_plan(self, args, event, ident, parent) -> None:
        # Filled in while the run executes; summed by metrics().
        self._metadata.append(args[0].metadata)

    def _after_session_run(self, args, result, ident, parent) -> None:
        # Evictions only happen when a miss inserts a plan, i.e. when this
        # span was the parent of a build_plan span.
        if ident in self._missed:
            self._missed.discard(ident)
            session = args[0]
            seen = session.plan_cache_info()["evictions"]
            self.counts["core.session.plan_cache_evictions"] += (
                seen - self._evictions.get(session, 0)
            )
            self._evictions[session] = seen

    def install(self) -> None:
        after = {
            "build_plan": self._after_build_plan,
            "run_pipeline": self._after_run_pipeline,
            "launch_plan": self._after_launch_plan,
            "Session.run": self._after_session_run,
            "Session.run_gen": self._after_session_run,
        }
        for module, cls, attr, name, layer in _SPAN_TARGETS:
            self._wrap(module, cls, attr, lambda fn, n=name, la=layer:
                       self._span_wrapper(fn, n, la, after.get(n)))
        for module, cls, attr, key in _COUNT_TARGETS:
            self._wrap(module, cls, attr,
                       lambda fn, k=key: self._count_wrapper(fn, k))

    def _wrap(self, module_name, cls_name, attr, make) -> None:
        try:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            print(f"trace: no entry point {module_name}:"
                  f"{cls_name or ''}.{attr} ({exc}); its metrics read 0",
                  file=sys.stderr)
            return
        wrapper = make(original)
        if cls_name is not None:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for key, counter in self._calls.items():
            self.counts[key] += next(counter)
        self._calls.clear()

    # -- sampler ------------------------------------------------------------
    def sample(self, frame) -> None:
        """One tick of the sampling timer (``speed.SpeedProbe`` owns the
        signal); ``frame`` is what the main thread was executing."""
        self.ticks += 1
        main = threading.main_thread().ident
        for ident, top in sys._current_frames().items():
            # The handler runs on the main thread: its interrupted frame
            # is ``frame``, not the handler's own.
            if ident == main:
                self._sample(frame, self.busy)
            else:
                self._sample(top, self.busy_other)

    def _layer(self, filename: str) -> str:
        layer = self._layer_cache.get(filename)
        if layer is None:
            layer = self._layer_cache[filename] = layers.layer_of(filename)
        return layer

    def _sample(self, frame, busy: Counter) -> None:
        if frame is None:
            return
        if frame.f_code.co_filename in _WAIT_FILES:
            while frame is not None:
                layer = self._layer(frame.f_code.co_filename)
                if layer != "stdlib":
                    break
                frame = frame.f_back
            else:
                layer = "stdlib"
            self.waiting[layer] += 1
        else:
            busy[self._layer(frame.f_code.co_filename)] += 1

    # -- results ------------------------------------------------------------
    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (self seconds, total seconds of outermost spans).

        "Outermost" leaves out a span whose direct parent has the same
        name, so re-entrant calls are not counted twice.
        """
        covered = Counter()
        names = {}
        for ident, name, _layer, start, end, parent, _thread in self.spans:
            names[ident] = name
            covered[parent] += end - start
        self_s, total_s = Counter(), Counter()
        for ident, name, _layer, start, end, parent, _thread in self.spans:
            self_s[name] += (end - start) - covered.get(ident, 0.0)
            if names.get(parent) != name:
                total_s[name] += end - start
        return self_s, total_s

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric this tracer can see, for one timed call."""
        self_s, total_s = self.self_times()
        calls = Counter(span[1] for span in self.spans)
        per_tick = wall_s / self.ticks if self.ticks else 0.0
        out = {
            f"{layer}.self_s": self.busy[layer] * per_tick
            for layer in layers.LAYERS
        }
        out.update({key: float(value) for key, value in self.counts.items()})
        launched = self._metadata
        with_collectives = [m for m in launched if m.collective_algorithms]
        steps = self.counts["simnet.events.steps"]
        out.update({
            "core.executor.launches": calls["launch_plan"],
            "core.executor.launch_s": total_s["launch_plan"],
            "simnet.events.us_per_step": wall_s / steps * 1e6 if steps else 0.0,
            "simnet.events.drive_s": self_s["Environment.run"],
            "core.gradients.build_s": total_s["gradients"],
            "function.trace_s": total_s["function.trace"],
            "function.traces": calls["function.trace"],
            "core.optimizer.pipeline_s": total_s["run_pipeline"],
            "core.optimizer.pipelines": calls["run_pipeline"],
            "core.partition.build_plan_s": self_s["build_plan"],
            "core.partition.plans_built": calls["build_plan"],
            "core.session.prepare_s": (
                self_s["Session.run"] + self_s["Session.run_gen"]
            ),
            "core.session.runs": calls["Session.run"] + calls["Session.run_gen"],
            "core.session.plan_cache_hit_rate": (
                sum(m.plan_cache_hit for m in launched) / len(launched)
                if launched else 0.0
            ),
            "runtime.collective.legs": sum(
                m.collective_items for m in launched
            ),
            "runtime.collective.ops_per_step": (
                sum(len(m.collective_algorithms) for m in with_collectives)
                / len(with_collectives) if with_collectives else 0.0
            ),
            "harness.samples": self.ticks,
        })
        out.update(self._serving_metrics(wall_s, total_s))
        return {key: float(value) for key, value in out.items()}

    def _serving_metrics(self, wall_s: float, total_s: Counter) -> dict:
        """Where the serving threads' time went, from spans (see the
        module docstring for why not from samples)."""
        workers = {span[6] for span in self.spans
                   if span[1] == "AdmissionController.next_batch"}
        if not workers:
            return {}
        parked = total_s["AdmissionController.next_batch"]
        in_session = sum(end - start
                         for _, name, _, start, end, _, thread in self.spans
                         if name == "Session.run" and thread in workers)
        return {
            # assemble, scatter, futures, accounting on the worker threads
            "serving.worker_s": len(workers) * wall_s - parked - in_session,
            # validation, admission, accounting on the client threads
            "serving.submit_s": (total_s["ModelServer.submit"]
                                 - total_s["ServingFuture.result"]),
            "serving.wait_s": parked + total_s["ServingFuture.result"],
        }

    def dump(self, path: str, phases: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": self.workload,
                "columns": ["id", "name", "layer", "start", "end", "parent",
                            "thread"],
                "spans": list(self.spans),
                "counts": dict(self.counts),
                "samples": {
                    "ticks": self.ticks,
                    "period_s": SAMPLE_PERIOD_S,
                    "busy": dict(self.busy),
                    "busy_other_threads": dict(self.busy_other),
                    "waiting": dict(self.waiting),
                },
                "phases": phases,
            }, handle)
            handle.write("\n")

