"""Spans around the engine layers, recorded from outside ``resplit``.

``tracing(spans)`` replaces, for the length of a ``with`` block, the binding
each module actually calls: ``smc``, ``mc`` and ``policy`` import ``stream``,
``run_level`` and ``resample_pool`` by name, so each of their copies is
wrapped.  A span is ``(name, start_ns, end_ns, parent_index, work)``; ``work``
is the steps a ``run_level`` or ``evaluate_candidate`` call charged.  The
single simulator step is not wrapped: a wrapper would cost more than the step.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from resplit import mc, policy, smc


def _level_work(args):
    return lambda result: result.cost_steps


def _lookahead_work(args):
    ledger = args[6]
    before = ledger.used
    return lambda result: ledger.used - before


# (module, attribute, span name, work): every binding an engine layer is called through
TARGETS = (
    (smc, "run_smc", "run_smc", None),
    (mc, "run_mc", "run_mc", None),
    (policy, "run_smc_with_reconfiguration", "run_smc_with_reconfiguration", None),
    (smc, "run_level", "run_level", _level_work),
    (policy, "run_level", "run_level", _level_work),
    (smc, "resample_pool", "resample_pool", None),
    (policy, "resample_pool", "resample_pool", None),
    (policy, "evaluate_candidate", "evaluate_candidate", _lookahead_work),
    (smc, "stream", "core.stream", None),
    (mc, "stream", "core.stream", None),
    (policy, "stream", "core.stream", None),
)


def _wrap(fn, name, work, spans, stack):
    clock = time.perf_counter_ns

    def traced(*args, **kwargs):
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        after = work(args) if work is not None else None
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent, 0)
        if after is not None:
            spans[index] = (name, start, end, parent, after(result))
        return result

    return traced


@contextmanager
def tracing(spans: list):
    """Record a span into ``spans`` for every call into a traced layer."""
    stack: list[int] = []
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for module, attr, name, work in TARGETS:
            setattr(module, attr, _wrap(getattr(module, attr), name, work, spans, stack))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Count, total and self time (ns) and work of each span name.

    Self time is a span's duration minus that of its direct children.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0, "work": 0})
        row["count"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
        row["work"] += work
    return out
