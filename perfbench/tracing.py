"""Spans and per-layer counters for the traced run, recorded from outside.

:class:`Tracer` wraps public functions of each layer of ``repro`` (and
the call sites that import them by name) so every call records a span:
name, start, end, parent span and operation id.  Spans stay in memory
and are written once, when the run ends.  Around each operation the
tracer also takes the default metrics registry's delta and attaches a
:class:`~repro.obs.trace.RunTrace` through the public ``trace=``
parameter, whose round records give the engine's phase timers.

The wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; ``uninstall`` checks that every patched
attribute holds its original object again, so untraced numbers measure
unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import time
from contextlib import contextmanager

from repro.chase.result import ChaseResult
from repro.engine.runner import ChaseRunner
from repro.engine.workers import WorkerPool
from repro.logic.homomorphisms import MATCHER_STATS
from repro.obs import default_registry
from repro.obs.trace import PHASES, RunTrace
from repro.rules.rule import INSTANTIATION_STATS

from perfbench import workloads

# Modules whose by-name imports are patched at the call site (the package
# re-exports shadow some of these module names, e.g. ``serving.answer``).
theorem = importlib.import_module("repro.core.theorem")
workers = importlib.import_module("repro.engine.workers")
serving_answer = importlib.import_module("repro.serving.answer")

#: Counters whose per-op values must repeat exactly for one input.
DETERMINISTIC = (
    "logic.match_candidates",
    "rules.heads_instantiated",
    "engine.triggers",
    "workers.pipe_bytes",
)


class Tracer:
    """In-memory spans, per-op counters and the wrappers that feed them."""

    def __init__(self, out_dir: pathlib.Path):
        self.out_dir = pathlib.Path(out_dir)
        self.worker_dir = self.out_dir / f"workers-{os.getpid()}"
        #: ``[name, start, end, parent, op]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._run_trace: RunTrace | None = None
        #: Per op: ``(label, counters dict, RunTrace)``.
        self.ops: list[tuple[str, dict, RunTrace]] = []
        #: Rewriting results seen during the current op.
        self._rewritings: list = []
        #: Worker processes started during the current op.
        self._spawned = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _timed_iterator(self, name: str, fn):
        """Time every step of a generator; creating it runs nothing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item

        return wrapper

    def _rewriting(self, fn):
        timed = self._timed("rewriting", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self._rewritings.append(result)
            return result

        return wrapper

    def _chase(self, fn):
        """Attach the op's RunTrace to a chase started without one."""
        timed = self._timed("chase", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kwargs.get("trace") is None:
                kwargs["trace"] = self._run_trace
            return timed(*args, **kwargs)

        return wrapper

    def _worker_main(self, fn):
        """Report a forked worker's own matcher and head counters.

        Worker processes keep their own copies of the counters, which the
        parent's registry never sees.  Under the fork start method the
        child runs this wrapper and leaves its deltas in a file that
        :meth:`op` folds into the operation's counters.
        """
        directory = self.worker_dir

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = (
                MATCHER_STATS.searches,
                MATCHER_STATS.candidates,
                INSTANTIATION_STATS.heads,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                after = (
                    MATCHER_STATS.searches,
                    MATCHER_STATS.candidates,
                    INSTANTIATION_STATS.heads,
                )
                delta = [b - a for a, b in zip(before, after)]
                (directory / f"{os.getpid()}.json").write_text(json.dumps(delta))

        return wrapper

    def _spawn(self, fn):
        timed = self._timed("workers.spawn", fn)

        @functools.wraps(fn)
        def wrapper(pool, count, *args, **kwargs):
            self._spawned += count
            return timed(pool, count, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _targets(self):
        """``(owner, attribute, make_wrapper)`` for every patched name."""
        timed = self._timed
        return [
            (ChaseRunner, "run", lambda f: timed("engine", f)),
            (ChaseRunner, "saturate", lambda f: timed("engine", f)),
            (ChaseRunner, "fixpoint", lambda f: timed("engine", f)),
            (WorkerPool, "run_round", lambda f: timed("workers.round", f)),
            (WorkerPool, "fire", lambda f: timed("workers.round", f)),
            (WorkerPool, "probe_round", lambda f: timed("workers.round", f)),
            (WorkerPool, "_spawn", self._spawn),
            (workers, "_worker_main", self._worker_main),
            (ChaseResult, "prefix", lambda f: timed("chase.prefix", f)),
            (theorem, "oblivious_chase", self._chase),
            (theorem, "egraph", lambda f: timed("core.egraph", f)),
            (theorem, "max_tournament_size", lambda f: timed("core.tournament", f)),
            (theorem, "entails_loop", lambda f: timed("core.loop", f)),
            (workloads, "answer", lambda f: timed("serving", f)),
            (serving_answer, "rewrite", self._rewriting),
            (serving_answer, "rewrite_ucq", self._rewriting),
            (serving_answer, "entails_ucq", lambda f: timed("queries.eval", f)),
            (
                serving_answer,
                "answer_homomorphisms",
                lambda f: self._timed_iterator("queries.eval", f),
            ),
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("the tracer is already installed")
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        for owner, name, make in self._targets():
            original = vars(owner)[name]
            self._patches.append((owner, name, original))
            setattr(owner, name, make(original))

    def uninstall(self) -> None:
        """Restore every original and verify that none is left wrapped."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patches
            if vars(owner)[name] is not original
        ]
        self._patches = []
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")

    # -- operations ----------------------------------------------------

    @contextmanager
    def op(self, label: str):
        """Scope one operation: root span, registry delta, RunTrace."""
        self._op = len(self.ops)
        self._run_trace = RunTrace()
        self._rewritings = []
        self._spawned = 0
        run_trace = self._run_trace
        try:
            with default_registry().collect() as scope:
                with self.span("op"):
                    yield run_trace
        finally:
            reports, (searches, candidates, heads) = self._collect_workers()
            self._op = None
            self._run_trace = None
        counters = _counters(scope.delta, run_trace, self._rewritings)
        # Fold in what the op's workers counted; when a worker left no
        # report, the parent cannot see that group and it reads None.
        if reports == self._spawned:
            counters["logic.match_searches"] += searches
            counters["logic.match_candidates"] += candidates
            counters["rules.heads_instantiated"] += heads
        else:
            for name in ("logic.match_searches", "logic.match_candidates",
                         "rules.heads_instantiated"):
                counters[name] = None
        self.ops.append((label, counters, run_trace))

    def _collect_workers(self) -> tuple[int, list[int]]:
        files = sorted(self.worker_dir.glob("*.json"))
        totals = [0, 0, 0]
        for path in files:
            for i, value in enumerate(json.loads(path.read_text())):
                totals[i] += value
            path.unlink()
        return len(files), totals

    def write(self, path: pathlib.Path) -> pathlib.Path:
        """Write the spans as JSON Lines."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with path.open("w") as sink:
            for record in self.spans:
                sink.write(json.dumps(dict(zip(keys, record))) + "\n")
        if self.worker_dir.exists():
            self.worker_dir.rmdir()
        return path

    # -- per-layer metrics ---------------------------------------------

    def span_seconds(self) -> dict:
        """``name -> (inclusive seconds, self seconds)`` summed over spans.

        A span's self time is its duration minus its direct children's.
        """
        children: dict = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        totals: dict = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            inclusive, own = totals.get(name, (0.0, 0.0))
            duration = end - start
            totals[name] = (
                inclusive + duration,
                own + duration - children.get(index, 0.0),
            )
        return totals

    def counter_mismatches(self) -> int:
        """Ops whose deterministic counters differ from the first of their label."""
        first: dict = {}
        mismatches = 0
        for label, counters, _ in self.ops:
            key = tuple(counters[name] for name in DETERMINISTIC)
            if first.setdefault(label, key) != key:
                mismatches += 1
        return mismatches

    def counter_digest(self) -> dict:
        """The deterministic counters of the first op of every label."""
        digest: dict = {}
        for label, counters, _ in self.ops:
            digest.setdefault(
                label, {name: counters[name] for name in DETERMINISTIC}
            )
        return dict(sorted(digest.items()))


def _counters(delta: dict, trace: RunTrace, rewritings: list) -> dict:
    """One op's counters from its registry delta and round records."""
    matcher = delta.get("matcher", {})
    transport = delta.get("transport", {})
    serving = delta.get("serving", {})
    worker_seconds = transport.get("worker_seconds", {})
    rounds = trace.rounds
    phases = {
        phase: sum(r["phases"][phase] for r in rounds) for phase in PHASES
    }
    return {
        "logic.match_candidates": matcher.get("candidates", 0),
        "logic.match_searches": matcher.get("searches", 0),
        "rules.heads_instantiated": delta.get("instantiation", {}).get("heads", 0),
        "engine.rounds": len(rounds),
        "engine.triggers": sum(r.get("triggers") or 0 for r in rounds),
        "engine.applied": sum(r.get("applied") or 0 for r in rounds),
        "engine.new_atoms": sum(r.get("new_atoms") or 0 for r in rounds),
        **{f"engine.{phase}_s": seconds for phase, seconds in phases.items()},
        "workers.exec_s": sum(w["execute_s"] for w in worker_seconds.values()),
        "workers.codec_s": sum(
            w["decode_s"] + w["encode_s"] for w in worker_seconds.values()
        ),
        "workers.pipe_bytes": transport.get("bytes_sent", 0)
        + transport.get("bytes_received", 0),
        "workers.shm_bytes": transport.get("shm_bytes", 0),
        "workers.messages": transport.get("messages", 0),
        "rewriting.runs": len(rewritings),
        "rewriting.generated": sum(r.generated for r in rewritings),
        "rewriting.disjuncts": sum(len(r.ucq) for r in rewritings),
        "rewriting.complete": sum(1 for r in rewritings if r.complete),
        **{
            f"serving.{name}": serving.get(name, 0)
            for name in ("chase_runs", "rewrite_runs", "goal_stops",
                         "delta_probes", "rules_pruned")
        },
    }
