"""Outside-in span tracer: wraps the program's public callables from here.

:class:`Tracer` rebinds every :class:`~perfbench.adapter.Target` -- methods
on their class, functions in every loaded ``repro.*`` namespace that
imported them -- with a wrapper that appends ``(name, start, end, parent,
request_id)`` to an in-memory list, and restores the originals on exit.  The
parent comes from a per-thread stack, so a span's self time is its duration
minus its children's and self times sum to the root by construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter


class Tracer:
    def __init__(self, targets) -> None:
        self.targets = targets
        #: ``[name, start, end, parent_index_or_-1, request_id_or_None]``
        self.spans: list[list] = []
        #: calls seen per target (several targets may share a span name)
        self.fired: Counter = Counter()
        self._stack = threading.local()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn, target):
        spans, local, clock = self.spans, self._stack, time.perf_counter
        fired, name, rid_arg = self.fired, target.span, target.rid_arg

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fired[target] += 1
            stack = local.__dict__.setdefault("stack", [])
            rid = args[rid_arg] if rid_arg is not None and len(args) > rid_arg else None
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, rid]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner = module
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.__exit__(None, None, None)
                raise LookupError(
                    f"trace target {target.module}:{target.attr} "
                    f"(span {target.span!r}) not found"
                )
            wrapper = self._wrap(original, target)
            if path:  # a method: rebind on its class
                bindings = [(owner, leaf)]
            else:  # a function: rebind under every name it was imported as
                bindings = [
                    (mod, attr)
                    for modname, mod in list(sys.modules.items())
                    if modname.split(".")[0] == "repro"
                    for attr, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, attr in bindings:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore.clear()


def summarize(spans: list[list], root: str = "engine.run") -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so a nested same-name call is not counted twice) and self seconds;
    plus the root's total and how far the self times are from adding up to
    it (non-zero only when a span ran outside the root, e.g. on a thread)."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        own[name] += self_s[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            incl[name] += end - start
    root_s = incl[root]
    return {
        "calls": dict(calls),
        "inclusive_s": dict(incl),
        "self_s": dict(own),
        "root_s": root_s,
        "closure_error": abs(sum(own.values()) - root_s) / root_s if root_s else 1.0,
    }


def write_jsonl(path, spans: list[list]) -> None:
    with open(path, "w") as f:
        for name, start, end, parent, rid in spans:
            f.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "request_id": rid}
                )
                + "\n"
            )
