"""Span tracing from outside the program.

A ``Tracer`` replaces named functions of the ``twistbench`` package with
thin wrappers that record one span per call: name, start, end, parent
span and op id.  Spans stay in memory until the run ends.  Every module
attribute that holds the same function object is wrapped, so a function
imported under a second name (``intlat.snf`` is also ``fgab.snf``) is
traced wherever it is called from.  ``restore`` puts every original
object back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from contextlib import contextmanager

PACKAGE = "twistbench"

# (module, attribute path) of every traced layer function.  A dotted
# path names a method on a class of that module.
LAYERS = (
    ("cli", "main"),
    ("jsonout", "dumps"),
    ("grammar", "parse_manifold"),
    ("topology", "homology"),
    ("topology", "decompose"),
    ("plumbing", "boundary"),
    ("orbitgon", "validate"),
    ("orbitgon", "unimodular_model"),
    ("intlat", "snf"),
    ("riccicert", "certify"),
    ("riccicert", "search_r"),
    ("riccicert", "ricci_neck"),
    ("riccicert", "verify_gluing"),
    ("warpmetric", "integrate_core"),
    ("warpmetric", "cap_sine"),
    ("warpmetric", "flatten_h_tail"),
    ("warpmetric", "smooth_origin"),
    ("warpmetric", "inequality_margins"),
    ("warpmetric", "WarpProfile.first_integral_residual"),
    ("warpmetric", "export_profile"),
)

OP_SPAN = "op"


def layer_name(module: str, path: str) -> str:
    """Metric prefix of a layer: the method name stands for its class."""
    return f"{module}.{path.rsplit('.', 1)[-1]}"


def _owner_and_attr(module: str, path: str):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans around calls into the program's layers."""

    def __init__(self):
        # One span is [name, start, end, parent index, op id]; index -1
        # means no parent and op id None means outside any timed op.
        self.spans = []
        self._stack = [-1]
        self.op_id = None
        self._saved = []  # (owner, attribute, original object)
        self.originals = {}  # layer name -> original function

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer function at every attribute that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for module, path in LAYERS:
            owner, attr = _owner_and_attr(module, path)
            original = owner.__dict__[attr]
            name = layer_name(module, path)
            wrapper = self._wrap(name, original)
            self.originals[name] = original
            owners = [(owner, attr)]
            if "." not in path:
                owners += [
                    (mod, key)
                    for mod in modules
                    for key, value in list(vars(mod).items())
                    if value is original and (mod, key) != (owner, attr)
                ]
            for target, key in owners:
                self._saved.append((target, key, original))
                setattr(target, key, wrapper)

    def restore(self):
        """Put every wrapped attribute back to its original object."""
        while self._saved:
            target, key, original = self._saved.pop()
            setattr(target, key, original)

    @contextmanager
    def op(self, op_id):
        """Open the root span of one timed op."""
        self.op_id = op_id
        span = [OP_SPAN, time.perf_counter(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op_id = None

    def self_times(self):
        """Per span name: (calls, total self time) inside ops and outside.

        Self time is a span's duration minus the durations of its direct
        children; children always nest inside their parent because the
        program runs on one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inside, outside = {}, {}
        for k, (name, start, end, parent, op_id) in enumerate(self.spans):
            table = outside if op_id is None else inside
            calls, total = table.get(name, (0, 0.0))
            table[name] = (calls + 1, total + (end - start) - child[k])
        return inside, outside

    def count_children(self, child_name, parent_name):
        """How many ``child_name`` spans inside ops have a ``parent_name`` parent."""
        return sum(
            1 for name, _, _, parent, op_id in self.spans
            if name == child_name and op_id is not None and parent >= 0
            and self.spans[parent][0] == parent_name
        )

    def write(self, path):
        """Write the spans as gzipped CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for k, (name, start, end, parent, op_id) in enumerate(self.spans):
                op = "" if op_id is None else op_id
                fh.write(f"{k},{name},{start!r},{end!r},{parent},{op}\n")
