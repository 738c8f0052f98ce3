"""In-memory spans recorded around calls into the ``ssse`` layers.

A span has a name, a start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began, and the run id. Spans stay
in memory and are written as JSON lines when the run ends.

Two kinds of span exist. The worker opens spans around the public calls
it makes (``train``, ``build_inverse_fisher``, ...). While a traced round
runs, :meth:`Tracer.patch` also wraps the module globals through which one
layer calls the next (the trainer's ``grad_matrix``, the Fisher build's
rank-one step, the sweep's ``evaluate_erasure`` ...), so each phase span
gets child spans and a self time: its duration minus the part of it that
its children cover. A patch target that the package no longer has raises
``AttributeError``, so a renamed layer breaks the traced run loudly instead
of reading as a layer that takes no time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Trace calls made through ``owner.attr`` until :meth:`unpatch_all`."""
        if attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} has no {attr} to trace")
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name))
        self._undo.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                children[s["parent"]].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children[i], key=lambda j: self.spans[j]["start"]):
                lo = max(self.spans[c]["start"], cursor)
                hi = self.spans[c]["end"]
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def by_name(self) -> dict[str, dict[str, list[float]]]:
        """Durations and self times of all spans, grouped by span name."""
        selfs = self.self_times()
        grouped: dict[str, dict[str, list[float]]] = defaultdict(lambda: {"dur": [], "self": []})
        for s, self_s in zip(self.spans, selfs):
            grouped[s["name"]]["dur"].append(s["end"] - s["start"])
            grouped[s["name"]]["self"].append(self_s)
        return dict(grouped)

    def children_per_parent(self, parent: str, child: str) -> float:
        """Mean number of direct ``child`` spans per ``parent`` span."""
        parents = {i for i, s in enumerate(self.spans) if s["name"] == parent}
        if not parents:
            raise KeyError(f"no {parent} span was recorded")
        children = sum(1 for s in self.spans if s["name"] == child and s["parent"] in parents)
        return children / len(parents)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
