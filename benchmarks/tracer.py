"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps, by object identity, every public function defined
in a loaded ``adahuber`` module wherever it appears in an ``adahuber.*``
module namespace.  Calls made through module globals (``irls.solve_spd``
inside ``fit_huber``, ``lamm.soft_threshold`` inside the LAMM loop) are
therefore caught as well as the calls the benchmark itself makes.  Kernels
that the solvers inline, or call under a private name, stay unmeasured.

A span records its call site (``<namespace>.<name>``), the function it ran
(``<defining module>.<qualname>``), its parent span, its thread, its start
and end in nanoseconds, and an optional extra taken from the return value.
Each thread keeps its own parent stack.  A span that opens on an empty stack
in a thread other than the one that installed the tracer (a worker of the
``simlab`` thread pool) takes as parent the span that is open on the
installing thread at that moment, which is the span that started the pool.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import sys
import threading
import time
import types
from collections import defaultdict


PACKAGE = "adahuber"


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


class Tracer:
    def __init__(self, hooks: dict | None = None):
        self.hooks = hooks or {}
        self.sites: list[tuple[str, str]] = []  # index -> (site, func)
        self.spans: list[tuple] = []
        self._patched: list[tuple[dict, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        defined = {}
        for mod in modules:
            for name, value in vars(mod).items():
                if (isinstance(value, types.FunctionType)
                        and not name.startswith("_")
                        and value.__module__ == mod.__name__
                        and value.__name__ == name):
                    defined[id(value)] = value
        self._local.stack = client = []
        for mod in modules:
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if name.startswith("_") or id(value) not in defined:
                    continue
                func = f"{_short(value.__module__)}.{value.__qualname__}"
                self.sites.append((f"{_short(mod.__name__)}.{name}", func))
                wrapper = self._wrap(value, len(self.sites) - 1,
                                     self.hooks.get(func), client)
                self._patched.append((namespace, name, value))
                namespace[name] = wrapper

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._patched):
            namespace[name] = value
        self._patched.clear()

    def reset(self) -> None:
        """Drop recorded spans; the installed wrappers stay."""
        self.spans = []

    def _wrap(self, fn, site: int, hook, client: list):
        local, ids, clock = self._local, self._ids, time.perf_counter_ns
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = client[-1] if stack is not client else -1
                except IndexError:
                    parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, parent, site, get_ident(), t0, t1, "raised"))
                raise
            t1 = clock()
            stack.pop()
            tracer.spans.append((sid, parent, site, get_ident(), t0, t1,
                                 hook(out) if hook is not None else None))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def open_span(self, site_label: str):
        """Context manager recording a span for a block of benchmark code,
        such as one operation, so that program spans nest under it."""
        key = (site_label, site_label)
        if key not in self.sites:
            self.sites.append(key)
        return _Block(self, self.sites.index(key))

    def write(self, path: str, spans: list) -> None:
        """Write spans (those of an earlier pass, say) as gzipped CSV."""
        with gzip.open(path, "wt", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["span", "parent", "site", "func", "thread",
                          "start_ns", "end_ns", "extra"])
            for sid, parent, site, tid, t0, t1, extra in spans:
                label, func = self.sites[site]
                out.writerow([sid, parent, label, func, tid, t0, t1,
                              "" if extra is None else extra])


class _Block:
    def __init__(self, tracer: Tracer, site: int):
        self.tracer, self.site = tracer, site

    def __enter__(self):
        stack = self.tracer._local.stack
        self.parent = stack[-1] if stack else -1
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        self.tracer._local.stack.pop()
        self.tracer.spans.append((self.sid, self.parent, self.site,
                                  threading.get_ident(), self.t0, t1, None))
        return False


def _covered(t0: int, t1: int, intervals: list) -> int:
    """Length of [t0, t1] covered by the union of the given intervals."""
    total, end = 0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


class SpanTable:
    """Recorded spans with self times and selection by layer label.

    Self time is a span's duration minus the part of it that its child spans
    cover; children that ran in parallel pool threads are merged as a union.
    """

    def __init__(self, spans: list, sites: list):
        children = defaultdict(list)
        for _, parent, _, _, t0, t1, _ in spans:
            children[parent].append((t0, t1))
        self.sites = sites
        self.rows = []  # (sid, parent, site, dur_ns, self_ns, extra)
        for sid, parent, site, _, t0, t1, extra in spans:
            kids = children.get(sid)
            covered = _covered(t0, t1, kids) if kids else 0
            self.rows.append((sid, parent, site, t1 - t0, t1 - t0 - covered, extra))

    def select(self, label: str) -> list:
        """Spans of the function defined as ``label``, or made through the
        call site ``label`` (a namespace and a name)."""
        hit = {i for i, (site, func) in enumerate(self.sites)
               if site == label or func == label}
        return [r for r in self.rows if r[2] in hit]

    def counts(self) -> dict:
        """Deterministic counts: calls per call site, raised calls per
        function, and per function with a result hook the sum of each field
        of the extra it recorded."""
        out = defaultdict(int)
        for _, _, site, _, _, extra in self.rows:
            label, func = self.sites[site]
            out[f"calls {label}"] += 1
            if extra == "raised":
                out[f"raised {func}"] += 1
            elif extra is not None:
                for k, v in enumerate(extra if isinstance(extra, tuple) else (extra,)):
                    out[f"{func}[{k}]"] += int(v)
        return dict(out)

    def per_site(self) -> list:
        """(site, func, calls, inclusive ms, self ms) per call site."""
        agg = defaultdict(lambda: [0, 0, 0])
        for _, _, site, dur, self_ns, _ in self.rows:
            a = agg[site]
            a[0] += 1
            a[1] += dur
            a[2] += self_ns
        return sorted(((*self.sites[s], c, d / 1e6, x / 1e6)
                       for s, (c, d, x) in agg.items()),
                      key=lambda r: -r[4])
