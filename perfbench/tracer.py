"""Span tracer that wraps slindef's public functions from the outside.

Every public function (no leading underscore) defined in a ``slindef``
module is replaced, in every given module namespace that binds it by name,
by a wrapper that records a span: name, start, end and parent.  Calls made
inside the package through those names are traced too, because Python looks
module globals up at call time.  Leaving the context restores every original
binding.

Aggregates (call counts, self time, counts of spans nested under the scan
drivers) are kept exactly for every call.  The spans themselves are kept in
memory up to ``SPAN_CAP`` and written once, by :meth:`Tracer.write`.  Self
time is a span's duration minus the time its child spans cover; the
wrapper's own cost stays in the parent.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from types import FunctionType, ModuleType
from typing import Callable, Iterable

PACKAGE = "slindef"
SPAN_CAP = 200_000
REAL_SCAN = "spectrum.find_real_eigenvalues"
COMPLEX_SCAN = "spectrum.find_complex_eigenvalues"

# Span names are "<module>.<function>[:<route>]"; these functions report a
# separate span per route, chosen from the call's positional arguments.
ROUTES = {
    "propagator.transfer_across":
        lambda a: "const" if a[0].has_constant_q else "table",
    "propagator.cs_kernels":
        lambda a: "complex" if isinstance(a[0], complex) else "real",
    "spectrum.characteristic_scaled":
        lambda a: "complex" if isinstance(a[1], complex) else "real",
}
# rk45's first argument is the right-hand side: its calls are counted as
# "propagator.rk45.callback"
COUNTED_CALLBACKS = {"propagator.rk45": 0}
# roots found, summed as "<name>.results"
RESULT_SIZES = {
    REAL_SCAN: lambda r: len(r.records),
    COMPLEX_SCAN: len,
}
# for these ancestors, spans of every name opened beneath them are counted
WATCH = (REAL_SCAN, COMPLEX_SCAN)


class Tracer:
    def __init__(self, modules: Iterable[ModuleType]):
        self.modules = list(modules)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()
        self._open_watch: list[str] = []
        self._child: list[float] = []
        self._ids: list[int] = []
        self._names: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_t0 = array("d")
        self._span_t1 = array("d")
        self.dropped = 0
        self._saved: list[tuple[ModuleType, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    @staticmethod
    def _short(fn: FunctionType) -> str:
        mod = fn.__module__
        prefix = PACKAGE + "."
        return (mod[len(prefix):] if mod.startswith(prefix) else mod) \
            + "." + fn.__name__

    def _wrap(self, fn: FunctionType) -> Callable:
        base = self._short(fn)
        route = ROUTES.get(base)
        cb_pos = COUNTED_CALLBACKS.get(base)
        cb_name = base + ".callback"
        sizer = RESULT_SIZES.get(base)
        watched = base in WATCH
        perf = time.perf_counter
        calls, self_s, nested = self.calls, self.self_s, self.nested
        child, ids, open_watch = self._child, self._ids, self._open_watch

        def traced(*args, **kwargs):
            name = base + ":" + route(args) if route else base
            if cb_pos is not None and len(args) > cb_pos:
                inner = args[cb_pos]

                def counted(*a):
                    calls[cb_name] += 1
                    return inner(*a)

                args = args[:cb_pos] + (counted,) + args[cb_pos + 1:]
            for anc in open_watch:
                nested[anc, name] += 1
            if watched:
                open_watch.append(base)
            sid = self._open(name)
            child.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                self_s[name] += dur - child.pop()
                calls[name] += 1
                ids.pop()
                if watched:
                    open_watch.pop()
                if child:
                    child[-1] += dur
                if sid >= 0:
                    self._span_t0[sid] = t0
                    self._span_t1[sid] = t1
            if sizer is not None:
                calls[name + ".results"] += sizer(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _open(self, name: str) -> int:
        parent = self._ids[-1] if self._ids else -1
        if len(self._span_name) >= SPAN_CAP:
            self.dropped += 1
            self._ids.append(parent)      # children attach to the last kept span
            return -1
        sid = len(self._span_name)
        self._span_name.append(self._names.setdefault(name, len(self._names)))
        self._span_parent.append(parent)
        self._span_t0.append(0.0)
        self._span_t1.append(0.0)
        self._ids.append(sid)
        return sid

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, Callable] = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, FunctionType)
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        """All kept spans, gzip-compressed JSON, in one write."""
        names = sorted(self._names, key=self._names.get)
        doc = {"names": names, "dropped": self.dropped,
               "columns": ["name", "parent", "start_s", "end_s"],
               "spans": [[n, p, round(a, 9), round(b, 9)] for n, p, a, b in
                         zip(self._span_name, self._span_parent,
                             self._span_t0, self._span_t1)]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
