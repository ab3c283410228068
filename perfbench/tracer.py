"""Span recording around calls into the package's public functions.

The program itself carries no tracing: ``Tracer.install`` rebinds module
attributes (and the two ``Tensor`` methods) to wrappers that record one span
per call, and ``uninstall`` puts the originals back.  A function imported by
name into another module (``from .model import state_at``) is rebound there
too, so every call that goes through a module global is seen.  Calls a
module makes through a local alias it bound at import time are not.

Spans live in flat arrays (name, parent, start, end) until the run ends;
``layer_totals`` then derives calls and self time per name, where self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._root = self.wrap("op", lambda fn: fn())

    def clear(self):
        """Forget every span and count recorded so far (wrappers stay valid)."""
        for buf in (self.span_name, self.parent, self.start, self.end):
            del buf[:]
        del self._stack[1:]
        for key in self.counts:
            self.counts[key] = 0
        for key in self.work:
            self.work[key] = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, measure=None):
        """A wrapper of ``fn`` recording one span named ``name`` per call.

        ``measure(*args)`` adds to ``work[name]`` (e.g. FFT points) when given.
        """
        nid = self._id(name)
        names, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self._stack
        work = self.work
        if measure is not None:
            work.setdefault(name, 0.0)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            if measure is not None:
                work[name] += measure(*args)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = _clock()
                start[i] = t0
                stack.pop()

        return span

    def wrap_count(self, name: str, fn):
        """A wrapper of ``fn`` that only counts calls (for very hot functions)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets):
        """Rebind each ``(owner, attr, wrapper_factory)`` everywhere it is bound.

        ``owner`` is a module or class.  For a module, every loaded
        ``rtensor`` module holding the same function object is rebound too.
        """
        for owner, attr, factory in targets:
            original = getattr(owner, attr)
            wrapper = factory(original)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    mod for key, mod in list(sys.modules.items())
                    if key.startswith("rtensor") and mod is not owner and mod is not None
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def op(self, fn):
        """Run ``fn()`` as a root span named ``op`` (one per workload operation)."""
        return self._root(fn)

    def layer_totals(self):
        """``{name: (calls, self_seconds, total_seconds)}`` and, per op root
        span, the fraction of its time that no child span covers."""
        n = len(self.span_name)
        if n == 0:
            return {}, np.zeros(0)
        names = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_time, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        totals = {
            name: (int(calls[k]), float(self_sum[k]), float(total[k])) for k, name in enumerate(self.names)
        }
        roots = names == self._ids.get("op", -1)
        uncovered = self_time[roots] / np.maximum(dur[roots], 1e-12)
        return totals, uncovered
