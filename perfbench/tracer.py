"""Per-layer spans timed from outside the program.

``Tracer.install`` wraps every public function defined in the traced qosc
modules and rebinds the wrapper under every name that refers to the original,
in every ``qosc`` module namespace (``from .opmatrix import band_mul`` makes a
second name).  The program's source is not touched; ``uninstall`` restores
the originals.  A span's self time is its duration minus the spans of wrapped
calls nested inside it.
"""

from __future__ import annotations

import inspect
import sys
import time

MODULES = ("numerics", "opmatrix", "representation", "families", "tridiagonalization",
           "algebra", "cli")


def band_mul_madds(A, B) -> int:
    """Multiply-adds of band_mul(A, B), counted from the input bands."""
    size = A.size
    total = 0
    for ka in A.bands:
        for kb in B.bands:
            if abs(ka + kb) > size - 1:
                continue
            lo = max(0, -ka, -ka - kb)
            hi = size - 1 - max(0, ka, ka + kb)
            total += max(0, hi - lo + 1)
    return total


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "work", "ok", "ok_ns", "refused", "refused_ns")

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = 0
        self.work = self.ok = self.ok_ns = self.refused = self.refused_ns = 0


class Tracer:
    """Span accounting for the wrapped functions, keyed '<module>.<function>'."""

    def __init__(self, refusal=Exception):
        self.stats: dict[str, Stat] = {}
        self._stack: list[int] = []  # child time of each open span
        self._saved: list[tuple] = []  # (namespace, name, original)
        self._refusal = refusal

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter_ns
        refusal = self._refusal
        counts_madds = key == "opmatrix.band_mul"
        counts_roots = key == "opmatrix.eigenvalues"
        counts_passes = key == "families.verify_spectrum"

        def close(span):
            children = stack.pop()
            stat.calls += 1
            stat.total_ns += span
            stat.self_ns += span - children
            if stack:
                stack[-1] += span

        def wrapper(*args, **kwargs):
            if counts_madds:
                t0 = clock()
                stat.work += band_mul_madds(args[0], args[1])
                if stack:  # keep the count's cost out of the caller's self time
                    stack[-1] += clock() - t0
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span = clock() - start
                close(span)
                if counts_roots and isinstance(exc, refusal):
                    stat.refused += 1
                    stat.refused_ns += span
                raise
            span = clock() - start
            close(span)
            if counts_roots:
                stat.ok += 1
                stat.ok_ns += span
                stat.work += len(result)
            elif counts_passes:
                stat.ok += bool(result.passed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if (name == "qosc" or name.startswith("qosc.")) and m is not None]
        for short in MODULES:
            mod = sys.modules.get(f"qosc.{short}")
            if mod is None:  # not imported by this workload (cli, outside the cli workload)
                continue
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", obj)
                for ns in namespaces:
                    for attr, val in list(ns.items()):
                        if val is obj:
                            self._saved.append((ns, attr, obj))
                            ns[attr] = wrapper

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        self._saved.clear()

    def snapshot(self) -> dict:
        return {k: (s.calls, s.self_ns, s.total_ns, s.work, s.ok, s.ok_ns, s.refused, s.refused_ns)
                for k, s in self.stats.items()}

    def delta_since(self, before: dict) -> dict:
        """Per-key differences from an earlier snapshot: what one pass added."""
        zero = (0,) * len(Stat.__slots__)
        return {k: tuple(a - b for a, b in zip(v, before.get(k, zero)))
                for k, v in self.snapshot().items()}
