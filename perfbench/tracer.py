"""In-memory spans for the traced run: call counts and busy time per name.

A span opens when a wrapped function is entered and closes when it returns.  Busy
time is inclusive of nested spans, and a recursive re-entry of the same name adds
no time twice.  Nothing is written anywhere: the measured process reports the
totals when it finishes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.distinct = defaultdict(set)
        self._depth = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        self._depth[name] += 1
        t0 = self.clock()
        try:
            yield
        finally:
            dt = self.clock() - t0
            self._depth[name] -= 1
            self.calls[name] += 1
            if not self._depth[name]:
                self.busy[name] += dt

    def wrap(self, name, fn, label=None, distinct=False):
        """``fn`` inside a span; ``label(*args)`` refines the name, ``distinct``
        records the set of results so their variety can be reported."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = label(*args, **kwargs) if label else name
            with self.span(key):
                out = fn(*args, **kwargs)
            if distinct:
                self.distinct[key].add(out)
            return out

        return wrapper

    def install(self, package: str, targets) -> None:
        """Replace each target function wherever a module of ``package`` binds it.

        ``targets`` holds ``(module, function, label, distinct)``; patching every
        binding (not only the defining module) also traces calls the package makes
        to itself, such as the transforms inside ``scan_for_witness``.
        """
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == package or name.startswith(package + "."))]
        for module, fn_name, label, distinct in targets:
            original = getattr(sys.modules[f"{package}.{module}"], fn_name)
            wrapper = self.wrap(f"{module}.{fn_name}", original, label, distinct)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def snapshot(self) -> dict:
        return {name: {"calls": self.calls[name], "busy_s": self.busy[name],
                       "distinct": len(self.distinct[name])}
                for name in self.calls}
