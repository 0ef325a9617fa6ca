"""Probes: spans recorded from outside, around the layers' public callables.

Nothing under ``src/`` knows about the ledger.  A probe replaces one
attribute (a module-level function, or a method / classmethod on a class)
by a wrapper that records an in-memory span — name, start, end, parent —
and optionally a few counts taken from the call's arguments or result.
Spans stay in memory until the workload ends.  A layer's self time is its
span minus its children (:func:`self_seconds`).

A probe whose patch point has moved is reported as *broken* with the
reason; every metric that depends on it then reads ``null``.  Installing
probes never raises, so a refactor of ``src/`` cannot break the end-to-end
numbers.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

_perf = time.perf_counter


class Span:
    """One recorded interval.  ``parent`` is the enclosing span of the same
    thread (or ``None``); ``counts`` holds whatever the probe's ``post``
    hook measured."""

    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None", start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.counts: dict[str, Any] | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Append-only span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``layer -> reason`` for every ``post`` hook that raised (the
        #: callable's signature or result moved): its counts read ``null``.
        self.post_errors: dict[str, str] = {}
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, _perf())
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: Span) -> None:
        span.end = _perf()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable, post: Callable | None) -> Callable:
        """``fn`` with a span around every call.

        ``post(span, args, kwargs, result)`` runs after a successful call,
        outside the span, to attach counts; if it raises, the reason is kept
        in :attr:`post_errors` and the call's result is returned untouched.
        """
        log = self

        @functools.wraps(fn)
        def probed(*args: Any, **kwargs: Any) -> Any:
            span = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(span)
            if post is not None:
                try:
                    post(span, args, kwargs, result)
                except Exception as exc:  # a moved signature must not fail the op
                    log.post_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return probed


# -- span arithmetic -------------------------------------------------------


def children_index(spans: list[Span]) -> dict[int, list[Span]]:
    """``id(parent) -> children`` for every span that has a parent."""
    index: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(id(span.parent), []).append(span)
    return index


def descendants(root: Span, index: dict[int, list[Span]]) -> list[Span]:
    out: list[Span] = []
    todo = list(index.get(id(root), ()))
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(index.get(id(span), ()))
    return out


def self_seconds(span: Span, index: dict[int, list[Span]]) -> float:
    """The span's duration minus the part its children cover."""
    return span.seconds - sum(c.seconds for c in index.get(id(span), ()))


# -- patch points ----------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """One patch point: ``module`` is imported, ``attr`` (dotted, e.g.
    ``"FeatureExtractor.extract"``) is resolved inside it and replaced."""

    layer: str
    module: str
    attr: str
    post: Callable | None = None


def _post_aggregate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    dataset = args[0] if args else kwargs.get("dataset")
    span.counts = {"records_in": int(dataset.timestamps.size)}


def _post_merge_tree(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    flat = args[1] if len(args) > 1 else kwargs.get("flat_values")
    span.counts = {"vertices": int(flat.size)}


def _post_enumerate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.counts = {"pair_tasks": len(result)}


def _post_significance(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    requests = args[0] if args else kwargs.get("requests")
    requested = kwargs.get("n_permutations")
    if requested is None and len(args) > 1:
        requested = args[1]
    span.counts = {
        "requests": len(requests),
        "permutations_run": sum(r.n_permutations for r in result),
        "permutations_requested": len(requests) * int(requested or 0),
    }


def _post_engine_run(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    engine = args[0]
    _outputs, stats = result
    tasks = list(stats.map_task_seconds) + list(stats.reduce_task_seconds)
    maps = sorted(stats.map_task_seconds)
    span.counts = {
        "job": type(args[1]).__name__ if len(args) > 1 else "",
        "n_workers": int(getattr(engine, "n_workers", 1)),
        "executor": getattr(engine, "executor", ""),
        "tasks": len(tasks),
        "task_busy_s": float(sum(tasks)),
        "shuffle_s": float(stats.shuffle_seconds),
        "wall_s": float(stats.wall_seconds),
        "straggler_ratio": (maps[-1] / maps[len(maps) // 2])
        if maps and maps[len(maps) // 2] > 0
        else 0.0,
    }
    report = getattr(engine, "last_run_report", None)
    if report is not None and getattr(engine, "executor", "") == "cluster":
        per_worker = list(report.worker_tasks.values())
        span.counts.update(
            steals=int(sum(report.worker_steals.values())),
            retries=int(report.retries),
            task_balance=(min(per_worker) / max(per_worker)) if per_worker else 0.0,
            artifacts=int(report.n_artifacts),
            served_bytes=int(report.bytes_served),
        )


def _post_shm_dumps(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.counts = {"payload_bytes": len(result)}


def _post_coordinator_run(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    _outputs, stats, _retries = result
    span.counts = {"shuffle_s": float(stats.shuffle_seconds)}


#: Probes inside the map/reduce task bodies.  Installed only where the tasks
#: run on the driver's own thread (serial executor): pool threads have no
#: span stack to nest under and pool/cluster processes keep their spans to
#: themselves, so on the parallel workloads these layers are measured on a
#: serial reference pass over the same corpus instead.
CORE_PROBES: tuple[Probe, ...] = (
    Probe("data.aggregation", "repro.core.corpus", "aggregate", _post_aggregate),
    Probe(
        "core.scalar_function",
        "repro.core.scalar_function",
        "ScalarFunction.from_aggregated",
    ),
    Probe("core.features", "repro.core.features", "FeatureExtractor.extract"),
    Probe(
        "core.merge_tree", "repro.core.features", "compute_join_tree", _post_merge_tree
    ),
    Probe(
        "core.merge_tree", "repro.core.features", "compute_split_tree", _post_merge_tree
    ),
    Probe("core.operator.evaluate", "repro.core.corpus", "evaluate_pair_chunk"),
    Probe("core.relationship", "repro.core.operator", "evaluate_features"),
    Probe(
        "core.significance",
        "repro.core.operator",
        "significance_batch",
        _post_significance,
    ),
)

#: Probes on the driver's side of the engine boundary; valid on every
#: executor.
DRIVER_PROBES: tuple[Probe, ...] = (
    Probe(
        "core.operator.enumerate",
        "repro.core.corpus",
        "enumerate_pair_tasks",
        _post_enumerate,
    ),
    Probe(
        "mapreduce.engine",
        "repro.mapreduce.engine",
        "LocalEngine.run",
        _post_engine_run,
    ),
    Probe(
        "mapreduce.engine",
        "repro.distributed.coordinator",
        "ClusterEngine.run",
        _post_engine_run,
    ),
    Probe("mapreduce.shm", "repro.mapreduce.shm", "dumps", _post_shm_dumps),
    Probe(
        "distributed.coordinator",
        "repro.distributed.coordinator",
        "Coordinator.run_job",
        _post_coordinator_run,
    ),
    # build_index imports the function at call time from its home module;
    # the update planner bound it at import.  Both references are patched.
    Probe(
        "incremental.fingerprint",
        "repro.incremental.fingerprint",
        "fingerprints_for_inputs",
    ),
    Probe(
        "incremental.fingerprint", "repro.incremental.plan", "fingerprints_for_inputs"
    ),
    Probe("incremental.plan", "repro.incremental.update", "plan_update"),
    Probe("incremental.apply", "repro.incremental.update", "apply_update"),
)


class Installed:
    """The set of probes currently patched in; ``broken`` maps a layer to
    the reason its patch point could not be resolved."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.broken: dict[str, str] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self, probes: tuple[Probe, ...]) -> None:
        for probe in probes:
            try:
                owner: Any = importlib.import_module(probe.module)
                *path, leaf = probe.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError) as exc:
                self.broken[probe.layer] = (
                    f"patch point {probe.module}:{probe.attr} not found "
                    f"({type(exc).__name__}: {exc})"
                )
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(
                    self.log.wrap(probe.layer, raw.__func__, probe.post)
                )
            elif callable(raw):
                wrapped = self.log.wrap(probe.layer, raw, probe.post)
            else:
                self.broken[probe.layer] = (
                    f"patch point {probe.module}:{probe.attr} is not callable"
                )
                continue
            setattr(owner, leaf, wrapped)
            self._undo.append((owner, leaf, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, raw = self._undo.pop()
            setattr(owner, leaf, raw)
