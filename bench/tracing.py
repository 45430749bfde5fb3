"""Spans around the public functions of each movcat module, installed from
the benchmark's own files.

``Tracer.install`` wraps every public function defined in a traced module,
plus ``Document.category_of``, and rebinds each wrapped name wherever it was
imported with ``from .x import y`` (and in the benchmark modules passed in).
``uninstall`` puts the originals back.  Spans are kept in flat arrays in
memory; ``write`` stores them once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = (
    "core", "builders", "movability", "search", "systems", "dsl",
    "generators", "campaign", "cli",
)

# Functions whose argument or result size is recorded: parse counts the
# text it reads, serialize the text it writes.
_SIZE_OF = {
    "dsl.parse_document": lambda args, result: len(args[0]),
    "dsl.serialize_document": lambda args, result: len(result),
}
_TRUNCATING = ("search.find_weak_domination", "search.find_functorial_domination",
               "search.enumerate_functors")


class Tracer:
    def __init__(self, extra_modules=()):
        self.modules = [importlib.import_module("movcat")] + [
            importlib.import_module(f"movcat.{name}") for name in LAYERS
        ] + list(extra_modules)
        self.names: list[str] = []
        self._fid: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes: dict[str, int] = {}
        self.truncated = 0
        self.on = False
        self.current_item = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def fid(self, name: str) -> int:
        if name not in self._fid:
            self._fid[name] = len(self.names)
            self.names.append(name)
        return self._fid[name]

    def open(self, fid: int) -> int:
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        fid = self.fid(name)
        size_of = _SIZE_OF.get(name)
        truncating = name in _TRUNCATING
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return func(*args, **kwargs)
            outer = not tracer._stack or not tracer.names[
                tracer.fn[tracer._stack[-1]]].startswith("search.")
            idx = tracer.open(fid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if size_of is not None:
                tracer.bytes[name] = tracer.bytes.get(name, 0) + size_of(args, result)
            # Count a budget stop once, at the outermost search call.
            if truncating and outer and getattr(result, "truncated", False):
                tracer.truncated += 1
            return result

        wrapper.__wrapped_by_bench__ = func
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _targets(self):
        """{id(original): (qualified name, original)} for every public
        function of the traced modules."""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"movcat.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    out[id(obj)] = (f"{layer}.{attr}", obj)
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {
            key: self._wrap(name, obj) for key, (name, obj) in self._targets().items()
        }
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        from movcat.dsl import Document

        original = Document.category_of
        self._patched.append((Document, "category_of", original))
        Document.category_of = self._wrap("dsl.Document.category_of", original)

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def installed_anywhere(self) -> bool:
        """True if any wrapper is still bound in a traced module."""
        from movcat.dsl import Document

        owners = self.modules + [Document]
        return any(
            hasattr(obj, "__wrapped_by_bench__")
            for owner in owners
            for obj in vars(owner).values()
        )

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(per-span self seconds, per-span duration)."""
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)], dur

    def write(self, path: Path) -> None:
        """Store every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.fn),
            "arrays": ["fn:i", "parent:i", "item:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.fn, self.parent, self.item, self.start, self.end):
                arr.tofile(fh)
