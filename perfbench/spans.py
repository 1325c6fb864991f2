"""Spans around the public entry points of each stepbound layer.

The tracer patches module and class attributes of an imported
``stepbound`` with thin wrappers; it changes nothing under ``src/``.
Each wrapper records one span (name, start, end, parent, attributes)
in memory.  A wrapper entered while a span of the same name is already
open calls straight through, so recursive entry points (``comp``,
``check_comp``) and entry points that call each other inside one layer
give one span per layer visit.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly because the checks run on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from stepbound import gen, harness, laws, order, semantics, typecheck


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0  # summed durations of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, attrs_of=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]].name == name:
                return fn(*args, **kwargs)
            parent = open_[-1] if open_ else -1
            span = Span(name, parent, 0.0)
            if attrs_of is not None:
                span.attrs = attrs_of(*args, **kwargs)
            idx = len(spans)
            spans.append(span)
            open_.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str, **attrs):
        """A span of the benchmark's own, around one check."""
        span = Span(name, -1, 0.0, attrs=attrs)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_function(self, modules, attr, name, **kw):
        """Wrap function ``attr`` of ``modules[0]`` in every given module
        namespace that holds the same function object (names imported
        with ``from ... import`` are separate references)."""
        original = getattr(modules[0], attr)
        wrapper = self.wrap(name, original, **kw)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    def patch_method(self, cls, attr, name, **kw):
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- installation -------------------------------------------------------

    def install(self):
        self.patch_function([harness], "verify", "harness.verify",
                            attrs_of=lambda spec, *a, **k: {"spec": spec.name})
        self.patch_function(
            [laws], "check_law", "laws.check_law",
            attrs_of=lambda law, *a, **k: {"theory": law.theory or "any"},
        )
        self.patch_method(semantics.Evaluator, "outcome", "semantics.outcome",
                          on_result=self._on_outcome)
        self.patch_function(
            [semantics, harness, order], "enumerate_inputs",
            "semantics.enumerate",
            on_result=lambda span, res: span.attrs.update(inputs=len(res[1])),
        )
        self.patch_function([typecheck, semantics], "elaborate",
                            "typecheck.elaborate")
        for attr in ("check_comp", "infer_comp"):
            self.patch_method(typecheck.Checker, attr, "typecheck.elaborate")
        for attr in ("closed_comp", "synth_comp", "comp"):
            self.patch_method(gen.TermGen, attr, "gen.term")
        for attr in ("leq_outcome", "eq_outcome"):
            self.patch_function([order, harness, laws], attr, "order.decide")
        self.patch_function([order], "cdf_dominates", "order.cdf")
        self.patch_function([order], "transportation_oracle", "order.flow")
        return self

    @staticmethod
    def _on_outcome(span, out):
        if isinstance(out, semantics.ProbOutcome):
            span.attrs["support"] = len(out.dist)
            span.attrs["dist"] = out.dist
        elif isinstance(out, semantics.NondetOutcome):
            span.attrs["support"] = len(out.branches)
        elif isinstance(out, semantics.StateOutcome):
            span.attrs["support"] = len(out.table)
        else:
            span.attrs["support"] = 1

