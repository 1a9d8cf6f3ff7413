"""Spans and counters around evoalg's public functions, installed from outside.

The tracer wraps each listed function or method and rebinds every module
binding of a wrapped function (``ideals.rref`` as well as ``linalg.rref``), so
no call path escapes it.  Spans (name, start, end, parent, op id) are kept in
flat arrays while the run lasts and written out when it ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

SPAN, COUNT, GENERATOR = "span", "count", "generator"


def _rows_in(counts, args, kwargs, result):
    counts["linalg.rref.rows_in"] += len(args[2] if len(args) > 2 else kwargs["vectors"])


def _sets_out(counts, args, kwargs, result):
    counts["graph.hereditary_sets.sets_out"] += len(result)


def _suite_tallies(counts, args, kwargs, result):
    for res in result.properties:
        counts["galois.checked"] += res.checked
        counts["galois.not_applicable"] += res.not_applicable


# (metric prefix, kind, targets, extra counter).  A target is
# "module:function" or "module:Class.attribute"; the module is under evoalg.
TARGETS = (
    ("fields.coerce", COUNT, ("fields:Rationals.coerce", "fields:PrimeField.coerce"), None),
    # Scalar-text parsing; parse_scalar delegates to these methods.
    ("fields.parse_scalar", COUNT, ("fields:Rationals.parse", "fields:PrimeField.parse"), None),
    ("linalg.rref", SPAN, ("linalg:rref",), _rows_in),
    ("linalg.reduce", SPAN, ("linalg:Subspace.reduce",), None),
    ("linalg.intersect", SPAN, ("linalg:Subspace.intersect",), None),
    ("linalg.nullspace", SPAN, ("linalg:nullspace",), None),
    ("algebra.construct", SPAN, ("algebra:EvolutionAlgebra.__init__",), None),
    ("algebra.product", COUNT, ("algebra:EvolutionAlgebra.product",), None),
    ("algebra.quotient", SPAN, ("algebra:EvolutionAlgebra.quotient_by_hereditary",), None),
    ("graph.associated_graph", SPAN, ("graph:associated_graph",), None),
    # The cached property that computes the components and their DAG.
    ("graph.condensation", SPAN, ("graph:Digraph._condensation",), None),
    ("graph.hereditary_sets", SPAN, ("graph:Digraph.hereditary_sets",), _sets_out),
    ("graph.is_saturated", SPAN, ("graph:Digraph.is_saturated",), None),
    ("graph.saturated_closure", SPAN, ("graph:Digraph.saturated_closure",), None),
    ("ideals.ideal_closure", SPAN, ("ideals:ideal_closure",), None),
    ("ideals.ideal_from_hereditary", SPAN, ("ideals:ideal_from_hereditary",), None),
    ("ideals.hereditary_vertices", SPAN, ("ideals:Ideal.hereditary_vertices",), None),
    ("ideals.has_absorption", SPAN, ("ideals:Ideal.has_absorption",), None),
    ("ideals.is_maximal", SPAN, ("ideals:Ideal.is_maximal",), None),
    ("ideals.maximal_ideals_report", SPAN, ("ideals:maximal_ideals_report",), None),
    ("ideals.is_ideal", COUNT, ("ideals:is_ideal",), None),
    ("galois.run_theorem_suite", SPAN, ("galois:run_theorem_suite",), _suite_tallies),
    ("oracle.brute_force_ideals", SPAN, ("oracle:brute_force_ideals",), None),
    ("oracle.enumerate_subspaces", GENERATOR, ("oracle:enumerate_subspaces",), None),
    ("documents.load_algebra", SPAN, ("documents:load_algebra",), None),
    ("documents.dumps_document", SPAN, ("documents:dumps_document",), None),
    ("cli.main", SPAN, ("cli:main",), None),
)

# Workloads on which each wrapped name must be entered in a traced run, so a
# later re-binding that bypasses a wrapper fails the run instead of silently
# reading zero.  These follow the layer table in README.md, narrowed to where
# the library calls the name: intersect, quotient and saturated_closure run
# only inside the property suite, maximal_ideals_report only in kernel.  No
# workload path calls EvolutionAlgebra.product or is_ideal at this commit;
# they are counted so that a change which starts calling them shows.
REQUIRED = {
    "fields.coerce": ("kernel", "suite"),
    "fields.parse_scalar": ("kernel", "suite", "cli"),
    "linalg.rref": ("kernel", "suite"),
    "linalg.reduce": ("kernel", "suite"),
    "linalg.intersect": ("suite",),
    "linalg.nullspace": ("kernel", "suite"),
    "algebra.construct": ("suite", "kernel", "enum", "cli"),
    "algebra.product": (),
    "algebra.quotient": ("suite",),
    "graph.associated_graph": ("enum",),
    "graph.condensation": ("enum",),
    "graph.hereditary_sets": ("enum",),
    "graph.is_saturated": ("enum",),
    "graph.saturated_closure": ("suite",),
    "ideals.ideal_closure": ("kernel", "suite"),
    "ideals.ideal_from_hereditary": ("suite",),
    "ideals.hereditary_vertices": ("kernel", "suite"),
    "ideals.has_absorption": ("kernel", "suite"),
    "ideals.is_maximal": ("kernel", "suite"),
    "ideals.maximal_ideals_report": ("kernel",),
    "ideals.is_ideal": (),
    "galois.run_theorem_suite": ("suite",),
    "oracle.brute_force_ideals": ("cli",),
    "oracle.enumerate_subspaces": ("cli",),
    "documents.load_algebra": ("cli",),
    "documents.dumps_document": ("cli",),
    "cli.main": ("cli",),
}


class Tracer:
    """Collects spans and counts while installed; restores everything on
    uninstall."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.bindings = {}
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def self_ms(self):
        """Total self time per span name, in milliseconds."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.span_name[i]]] += (end[i] - start[i] - child[i]) * 1e3
        return out

    def merge(self, dump, parent):
        """Append spans and counts dumped by a child process, re-parenting
        its top-level spans under ``parent``."""
        offset = len(self.span_name)
        ids = [self._name_id(name) for name in dump["names"]]
        for nid, s, e, par in zip(dump["name"], dump["start"], dump["end"], dump["parent"]):
            self.span_name.append(ids[nid])
            self.span_start.append(s)
            self.span_end.append(e)
            self.span_parent.append(par + offset if par >= 0 else parent)
            self.span_op.append(self.op)
        self.counts.update(dump["counts"])

    def dump(self):
        return {
            "names": self.names,
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "counts": dict(self.counts),
        }

    def write(self, path):
        """Write every span as CSV: op, name, start_us, end_us, parent."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op,name,start_us,end_us,parent\n")
            base = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_op[i]},{self.names[self.span_name[i]]},"
                    f"{(self.span_start[i] - base) * 1e6:.1f},"
                    f"{(self.span_end[i] - base) * 1e6:.1f},{self.span_parent[i]}\n"
                )

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, kind, fn, extra):
        counts = self.counts
        calls = name + ".calls"
        if kind == COUNT:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
        elif kind == GENERATOR:
            # Each resumption of the generator is one span, so the time spent
            # producing items is self time of this name wherever it is
            # consumed.
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if extra is not None:
                    extra(counts, args, kwargs, result)
                return result
        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every target whose module is imported."""
        for name, kind, targets, extra in TARGETS:
            for target in targets:
                modname, attr = target.split(":")
                modname = "evoalg." + modname
                if modname not in sys.modules:
                    continue
                module = importlib.import_module(modname)
                if "." in attr:
                    self._install_attribute(name, kind, module, attr, extra)
                else:
                    self._install_function(name, kind, module, attr, extra)

    def _install_attribute(self, name, kind, module, attr, extra):
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[member]
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(self._wrap(name, kind, original.func, extra))
            wrapped.__set_name__(cls, member)
        else:
            wrapped = self._wrap(name, kind, original, extra)
        setattr(cls, member, wrapped)
        self._undo.append((cls, member, original))
        self.bindings.setdefault(name, []).append(f"{module.__name__}.{attr}")

    def _install_function(self, name, kind, module, attr, extra):
        original = getattr(module, attr)
        wrapped = self._wrap(name, kind, original, extra)
        for modname, mod in list(sys.modules.items()):
            if modname != "evoalg" and not modname.startswith("evoalg."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
                    self.bindings.setdefault(name, []).append(f"{modname}.{key}")

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def missing(self, workload):
        """Wrapped names the workload should have entered but did not."""
        return sorted(
            name
            for name, workloads in REQUIRED.items()
            if workload in workloads and not self.counts[name + ".calls"]
        )


def write_child_dump(tracer, path, **extra):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**tracer.dump(), **extra}, fh)
