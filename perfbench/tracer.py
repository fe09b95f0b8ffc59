"""Outside-in tracer for matroidalkit's public functions.

install() replaces each listed function everywhere the package binds it:
the attribute of its home module, every `from .x import name` copy held
by another package module, or the class attribute for a method. Each
call then records one span (name, start, end, parent span, op id).
restore() puts every original back. Nothing inside the package changes.

A span's self time is its duration minus the time its child spans cover.
Work counters are computed after each op from the arguments and results
the wrappers kept, so their cost falls outside every span.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

from workloads import face_count, mask_of

PACKAGE = "matroidalkit"

# (module, public name); a dotted name is a method of a class in the module
TARGETS = (
    ("cli", "main"), ("cli", "parse_ideal"), ("cli", "run_command"),
    ("ideals", "make_ideal"), ("ideals", "MonomialIdeal.contains"),
    ("ideals", "MonomialIdeal.colon"),
    ("matroids", "is_polymatroidal"), ("matroids", "enumerate_matroidal"),
    ("decomposition", "associated_primes"),
    ("decomposition", "irreducible_decomposition"),
    ("decomposition", "criteria_check"), ("decomposition", "partition_degree2"),
    ("homology", "pd_depth"), ("homology", "stanley_reisner"),
    ("schmitt_vogel", "ara_report"), ("schmitt_vogel", "build_sv_witness"),
    ("groebner", "certify_witness"), ("groebner", "radical_membership"),
    ("groebner", "buchberger"), ("groebner", "normal_form"),
)
# spans of these are split by their field argument into .q and .gf
FIELD_SPLIT = {"homology.pd_depth", "groebner.certify_witness"}
# calls whose arguments and results feed the work counters
COUNTED = {"homology.pd_depth", "matroids.enumerate_matroidal",
           "decomposition.associated_primes", "schmitt_vogel.build_sv_witness",
           "groebner.normal_form"}

SPAN_NAMES = tuple(f"{module}.{name}{suffix}"
                   for module, name in TARGETS
                   for suffix in ((".q", ".gf") if f"{module}.{name}" in FIELD_SPLIT else ("",)))
COUNTERS = ("homology.multidegrees", "homology.faces", "homology.pd_depth.repeat_calls",
            "matroids.enumerate.scanned", "matroids.enumerate.kept",
            "decomposition.primes_found", "schmitt_vogel.witness_terms",
            "groebner.normal_form.zero")


class TracerError(RuntimeError):
    """The tracer could not wrap what it was asked to wrap."""


class Tracer:
    """Spans in flat arrays, one entry per traced call, kept until the end."""

    def __init__(self):
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self.counts = Counter({c: 0 for c in COUNTERS})
        self._stack = []
        self._kept = []
        self._patched = []
        self._faces = {}
        self._signatures = {}

    # ------------------------------------------------------------ patching

    def install(self):
        for module_name, name in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                raise TracerError(f"{PACKAGE}.{module_name} is not imported")
            owner_name, _, attr = name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    raise TracerError(f"{module_name}.{name} is missing")
                self._patch(owner, attr, self._wrap(f"{module_name}.{name}", original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise TracerError(f"{module_name}.{name} is missing")
            wrapper = self._wrap(f"{module_name}.{name}", original)
            for holder in _package_modules():
                bound = vars(holder).get(attr)
                if bound is original:
                    self._patch(holder, attr, wrapper)
                elif callable(bound) and getattr(bound, "__module__", None) == module.__name__:
                    raise TracerError(f"{holder.__name__}.{attr} is a stale copy of "
                                      f"{module_name}.{name}; calls through it would escape")
        return self

    def restore(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def _patch(self, holder, attr, wrapper):
        self._patched.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, wrapper)

    def _wrap(self, name, original):
        self._signatures[name] = inspect.signature(original)
        split = name in FIELD_SPLIT
        ids = {suffix: SPAN_NAMES.index(name + suffix)
               for suffix in ((".q", ".gf") if split else ("",))}
        keep = name in COUNTED
        stack, kept = self._stack, self._kept
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        signature = self._signatures[name]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if split:
                field = signature.bind(*args, **kwargs).arguments.get("field")
                span_id = ids[".q" if field is None else ".gf"]
            else:
                span_id = ids[""]
            span = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                starts[span] = start
                ends[span] = end
                if keep:
                    kept.append((name, args, kwargs, result))

        return traced

    # ------------------------------------------------------------ counting

    def end_op(self):
        """Turn the calls kept during one op into work counters."""
        counts = self.counts
        requested = set()
        for name, args, kwargs, result in self._kept:
            arguments = self._signatures[name].bind(*args, **kwargs).arguments
            if name == "homology.pd_depth":
                key = (arguments["ideal"], arguments.get("field"))
                counts["homology.pd_depth.repeat_calls"] += key in requested
                requested.add(key)
                if result is not None:
                    ideal = arguments["ideal"]
                    counts["homology.multidegrees"] += 1 << ideal.n
                    counts["homology.faces"] += self._face_count(ideal)
            elif result is None:
                continue
            elif name == "matroids.enumerate_matroidal":
                n, d = arguments["n"], arguments["d"]
                counts["matroids.enumerate.scanned"] += (1 << math.comb(n, d)) - 1
                counts["matroids.enumerate.kept"] += len(result)
            elif name == "decomposition.associated_primes":
                counts["decomposition.primes_found"] += len(result.ass)
            elif name == "schmitt_vogel.build_sv_witness":
                counts["schmitt_vogel.witness_terms"] += sum(map(len, result.layers))
            elif name == "groebner.normal_form":
                counts["groebner.normal_form.zero"] += result.is_zero
        self._kept.clear()

    def _face_count(self, ideal):
        if ideal not in self._faces:
            masks = [mask_of(g.exponents) for g in ideal.gens]
            self._faces[ideal] = face_count(ideal.n, masks)
        return self._faces[ideal]

    # ------------------------------------------------------------ summary

    def summary(self):
        """Calls and self time per span name, from the recorded spans."""
        total = len(self.span_name)
        covered = [0.0] * total
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(total):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += ends[i] - starts[i] - covered[i]
        return {
            "spans": total,
            "calls": dict(zip(SPAN_NAMES, calls)),
            "self_s": dict(zip(SPAN_NAMES, self_s)),
            "counters": dict(self.counts),
        }


    def write_spans(self, path, op_labels):
        """One line per span, times in seconds from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\top_label\n")
            for i, name_id in enumerate(self.span_name):
                op = self.span_op[i]
                out.write(f"{i}\t{self.span_parent[i]}\t{op}\t{SPAN_NAMES[name_id]}\t"
                          f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\t"
                          f"{op_labels[op]}\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
