"""Spans around the public entry points of each layer, recorded from outside.

The program is not edited: :func:`install` replaces module attributes
and class methods with timing wrappers (the library-wrapper interception
of the paper's Sec. III-D, applied to this service).  A span records
``(span_id, parent_id, request_id, name, start, end, link)``:

* the parent is the innermost enclosing span in the same context
  (``contextvars`` follow a request from the HTTP thread onto the
  engine's event loop; executor threads start fresh, so handler spans
  are roots);
* a root span gets a new benchmark-assigned request id, which its
  descendants share;
* ``link`` is the canonical query hash for spans that act on one query
  (or the tuple of member hashes for a batch handler), which is how the
  analysis ties executor-thread work back to the request it served.

Spans stay in memory and are written once, when the process ends.
Clock: ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), comparable
across processes on one host.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import inspect
import itertools
import json
import time

_CURRENT = contextvars.ContextVar("e2ebench_span", default=None)
_SPAN_IDS = itertools.count(1)
_REQUEST_IDS = itertools.count(1)

#: Every finished span, in completion order (list.append is atomic).  The
#: wrappers are installed process-wide, so the record is process-wide too.
SPANS: list[tuple] = []


def traced(name: str, link=None):
    """Decorator factory: wrap ``fn`` so each call records one span.

    ``link(args, kwargs, result)`` returns the span's link, or ``None``.
    """

    def wrap(fn):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                token, ids = _enter()
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _leave(name, token, ids, start, link, args, kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token, ids = _enter()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _leave(name, token, ids, start, link, args, kwargs, result)

        return wrapper

    return wrap


def _enter():
    parent = _CURRENT.get()
    span_id = next(_SPAN_IDS)
    if parent is None:
        ids = (span_id, 0, next(_REQUEST_IDS))
    else:
        ids = (span_id, parent[0], parent[2])
    return _CURRENT.set(ids), ids


def _leave(name, token, ids, start, link, args, kwargs, result):
    end = time.perf_counter()
    _CURRENT.reset(token)
    tag = None
    if link is not None:
        try:
            tag = link(args, kwargs, result)
        except Exception:  # a failed call has no result to link
            tag = None
    SPANS.append((ids[0], ids[1], ids[2], name, start, end, tag))


@contextlib.contextmanager
def span_context(name: str):
    """A ``with`` block recorded as a span (the benchmark's own calls)."""
    token, ids = _enter()
    start = time.perf_counter()
    try:
        yield
    finally:
        _leave(name, token, ids, start, None, (), {}, None)


# -- installing the wrappers --------------------------------------------------


def _query_hash(kind, params):
    from repro.serve.queries import canonical_hash

    return canonical_hash(kind, params)


def wrapped_registry(registry):
    """A copy of ``registry`` whose handlers and batch handlers record spans."""
    from repro.serve.queries import QueryRegistry, canonical_params

    kinds = []
    for name in registry.names():
        kind = registry.get(name)
        handler = traced(
            "handler",
            link=lambda a, k, r, n=name: _query_hash(n, a[0]),
        )(kind.handler)
        batch = None
        if kind.batch_handler is not None:

            def batch_link(a, k, r, n=name, axis=kind.batch_axis):
                base = canonical_params(a[0])
                return [_query_hash(n, {**base, axis: v}) for v in a[1]]

            batch = traced("batch_handler", link=batch_link)(kind.batch_handler)
        kinds.append(
            dataclasses.replace(kind, handler=handler, batch_handler=batch)
        )
    return QueryRegistry(tuple(kinds))


def install() -> None:
    """Wrap, in this process: ``ServeClient.query``, ``QueryEngine.submit``,
    ``QueryRegistry.build``, every ``QueryKind.handler``/``batch_handler``
    (through the default registry), ``SweepGrid.evaluate``,
    ``build_machine``, ``verify_answer``, ``seal``, ``ResultEnvelope.verify``
    and ``durable_write``."""
    import repro.extrapolate
    import repro.extrapolate.scenarios
    import repro.harness.export
    import repro.harness.store
    import repro.serve.engine
    import repro.serve.handlers
    from repro.analysis.arrays import SweepGrid
    from repro.integrity import ResultEnvelope
    from repro.serve import QueryEngine, QueryRegistry, ServeClient

    ServeClient.query = traced("ServeClient.query")(ServeClient.query)
    QueryEngine.submit = traced("QueryEngine.submit")(QueryEngine.submit)
    QueryRegistry.build = traced(
        "QueryRegistry.build", link=lambda a, k, r: r.hash
    )(QueryRegistry.build)
    SweepGrid.evaluate = traced("SweepGrid.evaluate")(SweepGrid.evaluate)
    ResultEnvelope.verify = traced(
        "ResultEnvelope.verify",
        link=lambda a, k, r: _query_hash(a[0].kind, a[0].params),
    )(ResultEnvelope.verify)

    build_machine = traced("build_machine")(
        repro.extrapolate.scenarios.build_machine
    )
    for module in (repro.extrapolate, repro.extrapolate.scenarios,
                   repro.serve.handlers):
        module.build_machine = build_machine

    engine = repro.serve.engine
    engine.verify_answer = traced(
        "verify_answer", link=lambda a, k, r: _query_hash(a[0], a[1])
    )(engine.verify_answer)
    engine.seal = traced(
        "seal", link=lambda a, k, r: _query_hash(k["kind"], k["params"])
    )(engine.seal)

    durable_write = traced("durable_write")(repro.harness.store.durable_write)
    repro.harness.store.durable_write = durable_write
    repro.harness.export.durable_write = durable_write

    repro.serve.handlers.DEFAULT_REGISTRY = wrapped_registry(
        repro.serve.handlers.DEFAULT_REGISTRY
    )


def dump(path, extra=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": SPANS, **(extra or {})}, fh)


# -- span arithmetic -----------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (overlapping intervals are counted once)."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)
