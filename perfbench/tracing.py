"""Spans around the calls into each layer of the library, for the traced run.

The tracer replaces module attributes with timing wrappers while one
operation runs and restores them afterwards, so the gates that check the
output run untraced.  Names bound at import are patched where they are
bound: universal holds kernels.contains and greedy_layer_indices as _contains
and _greedy, and search holds class_tuples, enumerate_layered and
verify_universal.

Every span adds to its name's call count, seconds and self seconds.  The
spans of the passes run with keep set are also stored as (name, start, end,
parent) in flat arrays and written out when the run ends; each operation's
root span is named op.<kind>.  The two generators (class_tuples,
enumerate_layered) are not spans: the time spent producing each item is
added to a busy counter instead.
"""

from __future__ import annotations

import collections
import functools
import json
import time
from array import array

from superpatterns import classes, kernels, layered, perms, search, universal


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.keep = True  # store spans; aggregate totals either way
        self.clock = time.perf_counter
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self._stack: list[list] = []  # [name, stored index, start, child seconds]
        self.counters: collections.Counter = collections.Counter()
        self.class_pairs: set[tuple[str, int]] = set()
        self._patches = self._build_patches()

    def begin(self, name: str) -> None:
        idx = -1
        if self.keep:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        self._stack.append([name, idx, self.clock(), 0.0])

    def finish(self) -> None:
        """Close the innermost span.  Its self time is its duration minus
        its children's: spans of one thread nest, so children never overlap."""
        end = self.clock()
        name, idx, start, child = self._stack.pop()
        duration = end - start
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if idx >= 0:
            self.start[idx] = start
            self.end[idx] = end

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _busy(self, name, fn, on_call=None):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            if on_call is not None:
                on_call(args)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        counters[name + ".s"] += time.perf_counter() - t0
                        return
                    counters[name + ".s"] += time.perf_counter() - t0
                    counters[name + ".items"] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def _count(self, key, value):
        self.counters[key] += value

    def _build_patches(self):
        def scanned(name):
            return lambda args, result: self._count(name + ".candidates", result[1])

        def class_pair(args):
            self.class_pairs.add((classes.coerce_tag(args[0]).value, args[1]))

        def checked(args, report):
            self._count("universal.verify_universal.patterns_checked", report.patterns_checked)

        spans = [
            ("kernels.scan_layered", [(kernels, "scan_layered")],
             scanned("kernels.scan_layered")),
            ("kernels.scan_perm_list", [(kernels, "scan_perm_list")],
             scanned("kernels.scan_perm_list")),
            ("kernels.scan_all_perms", [(kernels, "scan_all_perms")],
             scanned("kernels.scan_all_perms")),
            ("kernels.lex_min_embedding",
             [(kernels, "lex_min_embedding"), (kernels, "contains"), (universal, "_contains")],
             None),
            ("kernels.greedy_layer_indices",
             [(kernels, "greedy_layer_indices"), (universal, "_greedy")], None),
            ("search.scan_length", [(search, "_scan_length")], None),
            ("search.check_report", [(search, "_check_report")], None),
            ("universal.verify_universal",
             [(universal, "verify_universal"), (search, "verify_universal")], checked),
            ("universal.layerize", [(universal, "layerize")], None),
            ("layered.layer_profile", [(layered, "layer_profile")], None),
            ("perms.contains", [(perms, "contains")], None),
        ]
        busy = [
            ("classes.class_tuples",
             [(classes, "class_tuples"), (search, "class_tuples"), (universal, "class_tuples")],
             class_pair),
            ("layered.enumerate_layered",
             [(layered, "enumerate_layered"), (search, "enumerate_layered")], None),
        ]
        patches = []
        for name, targets, on_result in spans:
            for module, attr in targets:
                original = getattr(module, attr)
                patches.append((module, attr, original, self._span(name, original, on_result)))
        for name, targets, on_call in busy:
            for module, attr in targets:
                original = getattr(module, attr)
                patches.append((module, attr, original, self._busy(name, original, on_call)))
        return patches

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def write(self, path) -> None:
        spans = [[nid, round(s, 9), round(e, 9), p]
                 for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent)]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))
