"""Spans around critset's public functions, installed from outside the library.

`install` rebinds every public function of the critset modules, in the
defining module and in every module that imported it, to a wrapper that
records a span: name, start, end, parent span and operation id. Generator
functions get a wrapper per `next()`, so their time is the time spent
producing items. Spans stay in flat arrays in memory and are written to one
file when the traced pass ends; `layers.py` turns them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

MODULES = ("graphs", "critical", "matching", "mis", "ore", "ke", "props",
           "cli", "fixtures")
# bit-twiddling helpers called inside every loop; they are not layer boundaries
SKIP = {"graphs.iter_bits", "graphs.vlist", "graphs.vset"}


class Tracer:
    """In-memory span store plus per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nested = bytearray()  # span sits inside a span of the same name
        self._stack: list[int] = []
        self._active: list[int] = []
        self.calls: list[int] = []
        self.vertices: list[int] = []
        self.yielded: list[int] = []
        self.counters: dict[str, int] = {}
        self.op_id = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
            self.calls.append(0)
            self.vertices.append(0)
            self.yielded.append(0)
        return nid

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nested.append(1 if self._active[nid] else 0)
        self.end.append(0.0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[idx]] -= 1

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw arrays in a fixed order."""
        header = {"names": self.names, "spans": len(self.start),
                  "calls": self.calls, "vertices": self.vertices,
                  "yielded": self.yielded, "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)
            fh.write(bytes(self.nested))


def read_spans(path: Path) -> dict:
    """Inverse of Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        cols = {}
        for key, code in (("name", "i"), ("start", "d"), ("end", "d"),
                          ("parent", "i"), ("op", "i")):
            arr = array(code)
            arr.fromfile(fh, count)
            cols[key] = arr
        cols["nested"] = fh.read(count)
    header.update(cols)
    return header


class _TracedIter:
    __slots__ = ("_tracer", "_nid", "_it")

    def __init__(self, tracer: Tracer, nid: int, it):
        self._tracer, self._nid, self._it = tracer, nid, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer.open(self._nid)
        try:
            item = next(self._it)
        finally:
            tracer.close(idx)
        tracer.yielded[self._nid] += 1
        return item


def _wrap(tracer: Tracer, name: str, fn, graph_cls):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            tracer.calls[nid] += 1
            if args and type(args[0]) is graph_cls:
                tracer.vertices[nid] += args[0].n
            return _TracedIter(tracer, nid, fn(*args, **kwargs))
        return gen_wrapper

    def wrapper(*args, **kwargs):
        tracer.calls[nid] += 1
        if args and type(args[0]) is graph_cls:
            tracer.vertices[nid] += args[0].n
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _wrap_evaluate(tracer: Tracer, fn):
    """props.evaluate gets a nested span per property and counts skips."""
    outer = tracer.name_id("props.evaluate")

    def evaluate(prop, facts):
        tracer.calls[outer] += 1
        nid = tracer.name_id(f"props.prop.{prop.name}")
        tracer.calls[nid] += 1
        idx = tracer.open(outer)
        inner = tracer.open(nid)
        try:
            result = fn(prop, facts)
        finally:
            tracer.close(inner)
            tracer.close(idx)
        if result.verdict == "skipped":
            tracer.count("skips.limit" if result.limit else "skips.applicability")
        return result
    return evaluate


def _wrap_get(tracer: Tracer, fn):
    """Facts._get: count lookups and the ones the per-graph cache answered."""
    def _get(self, key, compute):
        tracer.count("facts.lookups")
        if key in self._cache:
            tracer.count("facts.hits")
        return fn(self, key, compute)
    return _get


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every critset module."""
    package = importlib.import_module("critset")
    mods = {m: importlib.import_module(f"critset.{m}") for m in MODULES}
    graph_cls = mods["graphs"].Graph
    holders = [package, *mods.values()]
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{short}.{attr}" in SKIP):
                continue
            if f"{short}.{attr}" == "props.evaluate":
                new = _wrap_evaluate(tracer, fn)
            else:
                new = _wrap(tracer, f"{short}.{attr}", fn, graph_cls)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, new)
    facts = mods["props"].Facts
    facts.tables = _wrap(tracer, "props.facts.tables", facts.tables, graph_cls)
    facts._get = _wrap_get(tracer, facts._get)
