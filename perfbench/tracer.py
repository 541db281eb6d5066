"""Per-layer call counts and self time, recorded from outside the package.

The tracer replaces each traced function with a timing wrapper at every
module attribute that holds it, so both `from .kernels import gram` style
imports and same-module global lookups reach the wrapper.  Nothing under
`src/` is edited; leaving the `with` block restores the originals.

Spans are aggregated in memory instead of being kept one by one: a
traced training run makes close to a million calls.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions of each layer, as "<module>.<function>".
TARGETS = (
    "cli.main",
    "geometry.exp0",
    "rkhs.multiplier_b",
    "rkhs.dbr_kernel",
    "kernels.gram",
    "kernels.evaluate",
    "diff.materialize",
    "diff.grad",
    "diff.step",
    "_gmath.embed",
    "_gmath.score",
    "_gmath.kernel",
    "learning.train",
    "learning.evaluate",
    "learning.sample_episode",
)

PACKAGE = "hypkernels"


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Context manager that traces TARGETS while it is entered.

    `stats[name]` holds the calls and self time of each present target;
    `paths[path]` splits them by call path, the chain of traced callers
    joined by " > ", so for example the `_gmath` spans under `diff.grad`
    are told apart from those under `learning.evaluate`.  Targets the
    package no longer defines are listed in `absent` and are not traced.
    """

    def __init__(self):
        self.stats = {}
        self.paths = {}
        self.absent = []
        self._stack = []
        self._patches = []
        for name in TARGETS:
            module_name, fn_name = name.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if callable(getattr(module, fn_name, None)):
                self.stats[name] = Stat()
            else:
                self.absent.append(name)

    def _wrap(self, name, fn):
        stack = self._stack
        paths = self.paths
        total = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame = [seconds spent in traced callees, call path]
            frame = [0.0, f"{stack[-1][1]} > {name}" if stack else name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s = elapsed - frame[0]
                total.calls += 1
                total.self_s += self_s
                path = paths.get(frame[1])
                if path is None:
                    path = paths[frame[1]] = Stat()
                path.calls += 1
                path.self_s += self_s
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in self.stats:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._stack.clear()
        return False
