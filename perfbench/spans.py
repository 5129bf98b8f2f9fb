"""Span recorder for the traced run, kept outside the package it measures.

`Recorder.install` replaces each target function with a wrapper in every
module namespace that bound it, including names bound by `from ... import`,
and each target method on its class.  A wrapper records one span per call:
the caller's span is the enclosing open span.  Spans are aggregated in
memory per name (calls, total time, self time) and per caller -> callee
edge, because the raw spans of one run number in the millions.  Self time
is a span's duration minus the time its child spans cover; total time is
counted only at the outermost of nested calls of one name, so recursion is
not counted twice.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Recorder:
    def __init__(self):
        self.enabled = False
        self._undo = []
        self.reset()

    def reset(self):
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.edges = {}        # (caller, callee) -> [calls, total_s]
        self.counts = {}       # counter name -> int
        self.raised = {}       # exception type name -> number raised
        self._stack = []       # open spans: [name, child_s]
        self._open = {}        # name -> number of open spans of that name
        self._seen = []        # exceptions already counted

    def take(self) -> dict:
        """Aggregates since the last reset, then reset."""
        out = {"stats": self.stats, "edges": self.edges,
               "counts": self.counts, "raised": self.raised}
        self.reset()
        return out

    # -- recording -----------------------------------------------------------

    def _close(self, name, caller, dur, child):
        s = self.stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        self._open[name] -= 1
        if not self._open[name]:
            s[1] += dur
        s[2] += dur - child
        if self._stack:
            self._stack[-1][1] += dur
        e = self.edges.setdefault((caller, name), [0, 0.0])
        e[0] += 1
        e[1] += dur

    def _note_raise(self, exc):
        if any(exc is seen for seen in self._seen):
            return
        self._seen.append(exc)
        kind = type(exc).__name__
        self.raised[kind] = self.raised.get(kind, 0) + 1

    def span(self, name, fn, on_return=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            caller = rec._stack[-1][0] if rec._stack else None
            frame = [name, 0.0]
            rec._stack.append(frame)
            rec._open[name] = rec._open.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec._note_raise(exc)
                raise
            finally:
                dur = perf_counter() - start
                rec._stack.pop()
                rec._close(name, caller, dur, frame[1])
            if on_return is not None:
                on_return(rec, result)
            return result

        return wrapper

    def yield_counter(self, name, gen_fn):
        """Wrap a generator function so that its yielded items are counted.
        It records no span: its time stays in the caller's self time."""
        rec = self

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return gen_fn(*args, **kwargs)
            return rec._count_items(name, gen_fn(*args, **kwargs))

        return wrapper

    def _count_items(self, name, gen):
        for item in gen:
            self.counts[name] = self.counts.get(name, 0) + 1
            yield item

    # -- patching --------------------------------------------------------------

    def install(self, modules: dict, namespaces, spans: dict,
                yield_counters: dict):
        """Wrap targets named `module.function` or `module.Class.method`.

        `modules` maps the short names used in targets to modules, and
        every module in `namespaces` has each name bound to a target
        function rebound to its wrapper.  `spans` maps target names to an
        optional on-return hook; `yield_counters` maps generator targets to
        counter names.
        """
        wrappers = [(name, functools.partial(self.span, name, on_return=hook))
                    for name, hook in spans.items()]
        wrappers += [(name, functools.partial(self.yield_counter, counter))
                     for name, counter in yield_counters.items()]
        for target, make in wrappers:
            modname, *path = target.split(".")
            owner = modules[modname]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            original = vars(owner)[attr]
            wrapped = make(original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
