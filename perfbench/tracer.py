"""Outside-in tracer for the qlike benchmark.

The tracer times calls into qlike's public functions without touching
`src/qlike`: it replaces every binding of each traced function, in every
loaded `qlike` module, with a timing wrapper.  Modules that did
`from .linalg import kernel_basis` hold their own binding, so patching only
the defining module would silently miss those calls; rebinding by identity
catches them, and function-local imports resolve to the patched attribute
at call time.

Spans (id, name, start, end, parent id, item) stay in memory and are written
out once, by `write_spans`.  Self time is a span's duration minus the time
covered by its child spans; stage functions also report their outermost
(non-recursive) total time.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, qualified name, is a pipeline stage)
TARGETS = [
    ("linalg", "kernel_basis", False),
    ("linalg", "rank", False),
    ("linalg", "solve", False),
    ("linalg", "solve_matrix", False),
    ("polymatrix", "graded_kernel", False),
    ("polymatrix", "generic_rank", False),
    ("polymatrix", "solve_combination", False),
    ("bundles", "saturate", False),
    ("bundles", "annihilator", False),
    ("bundles", "splitting_type", False),
    ("bundles", "subquotient_splitting", False),
    ("bundles", "h0_twist", False),
    ("bundles", "h0_dimension_by_solve", False),
    ("bundles", "verify_canonical_sequences", False),
    ("bundles", "is_split_extension", False),
    ("structures", "validate", True),
    ("structures", "minus_family", True),
    ("structures", "dualize", True),
    ("structures", "heaven_data", True),
    ("structures", "minus_data", True),
    ("structures", "verify_factorization", True),
    ("structures", "verify_canonical_for", True),
    ("structures", "analyze", True),
    ("orbit", "validate_good_quadruple", True),
    ("orbit", "veronese_curve", True),
    ("orbit", "orbit_tangent_family", True),
    ("orbit", "normal_bundle", True),
    ("orbit", "dimension_report", True),
    ("lie", "jacobson_morozov", False),
    ("lie", "sl2_decompose", False),
    ("lie", "Representation.check_identity", False),
    ("lie", "validate_lie", False),
    ("modp", "resultant_gcd_is_constant", False),
    ("serialize", "canonical_json", False),
    ("serialize", "load_structure_file", False),
    ("serialize", "load_quadruple_file", False),
]

# Modules imported before patching, so that every binding exists already.
MODULES = ["scalars", "forms", "linalg", "polymatrix", "bundles", "structures",
           "lie", "orbit", "modp", "sampling", "catalog", "serialize", "cli"]

# Derived per-layer metrics: name -> (unit, better).
EXTRA_METRICS = {
    "linalg.kernel_basis.cells": ("count", "lower"),
    "linalg.kernel_basis.max_bits": ("bits", "lower"),
    "polymatrix.graded_kernel.stages": ("count", "lower"),
    "polymatrix.generic_rank.points": ("count", "lower"),
    "bundles.annihilator.repeat_ratio": ("ratio", "lower"),
    "bundles.saturate.repeat_ratio": ("ratio", "lower"),
    "sampling.validate.accept_ratio": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, qualname, stage in TARGETS:
        label = "%s.%s" % (module, qualname)
        out.append((label + ".calls", "count", "lower"))
        out.append((label + ".self_s", "s", "lower"))
        if stage:
            out.append((label + ".total_s", "s", "lower"))
    out.extend((name, unit, better)
               for name, (unit, better) in EXTRA_METRICS.items())
    return out


def _bits(s):
    return max(s.re.numerator.bit_length(), s.re.denominator.bit_length(),
               s.im.numerator.bit_length(), s.im.denominator.bit_length())


def _form_key(f):
    return (f.degree, tuple((c.re, c.im) for c in f.coeffs))


def _polymatrix_key(m):
    return (m.rows, m.col_degrees,
            tuple(tuple(_form_key(f) for f in row) for row in m.entries))


class Tracer:
    """Records spans and counters for the traced functions of one process."""

    def __init__(self):
        self.item = "setup"
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.counters = {"linalg.kernel_basis.cells": 0,
                         "linalg.kernel_basis.max_bits": 0,
                         "polymatrix.graded_kernel.stages": 0,
                         "polymatrix.generic_rank.points": 0}
        self._repeats = {"bundles.annihilator": [0, 0],
                         "bundles.saturate": [0, 0]}
        self._seen = {}
        self._stack = []        # open frames: [span id, name, child seconds]
        self._depth = {}
        self._next_id = 0
        self._patched = []      # (owner, attribute, original)
        self._hooks = {
            "linalg.kernel_basis": self._kernel_basis_hook,
            "polymatrix.graded_kernel": self._graded_kernel_hook,
            "bundles.annihilator": self._annihilator_hook,
            "bundles.saturate": self._saturate_hook,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [importlib.import_module("qlike." + m) for m in MODULES]
        mods.append(importlib.import_module("qlike"))
        for module, qualname, stage in TARGETS:
            label = "%s.%s" % (module, qualname)
            self.calls[label] = 0
            self.self_s[label] = 0.0
            if stage:
                self.total_s[label] = 0.0
            owner = importlib.import_module("qlike." + module)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            if path:                                   # a method
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
                continue
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_item(self, item):
        self.item = item
        self._seen = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, label, fn):
        hook = self._hooks.get(label)
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, label, 0.0]
            stack.append(frame)
            depth[label] = depth.get(label, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[label] -= 1
                elapsed = end - start
                self.calls[label] += 1
                self.self_s[label] += elapsed - frame[2]
                if label in self.total_s and depth[label] == 0:
                    self.total_s[label] += elapsed
                if parent is not None:
                    parent[2] += elapsed
                    if label == "linalg.rank" and \
                            parent[1] == "polymatrix.generic_rank":
                        self.counters["polymatrix.generic_rank.points"] += 1
                self.spans.append((span_id, label, start, end,
                                   parent[0] if parent else None, self.item))
            if hook is not None:
                # inspection time is charged to nobody's self time
                hook(args, kwargs, result)
                if parent is not None:
                    parent[2] += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _kernel_basis_hook(self, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        c = self.counters
        if a:
            c["linalg.kernel_basis.cells"] += len(a) * len(a[0])
            bits = max((_bits(x) for row in a for x in row), default=0)
            if bits > c["linalg.kernel_basis.max_bits"]:
                c["linalg.kernel_basis.max_bits"] = bits

    def _graded_kernel_hook(self, args, kwargs, result):
        # degrees walked: from the first degree -max(shift) up to the degree
        # of the last generator found (the function returns there)
        if not result:
            return
        n_unknowns = args[1] if len(args) > 1 else kwargs["n_unknowns"]
        shifts = args[2] if len(args) > 2 else kwargs.get("unknown_shifts")
        shifts = list(shifts or [0] * n_unknowns)
        self.counters["polymatrix.graded_kernel.stages"] += \
            result[-1][0] + max(shifts) + 1

    def _repeat(self, label, key):
        seen = self._seen.setdefault(label, set())
        tally = self._repeats[label]
        tally[0] += 1
        if key in seen:
            tally[1] += 1
        else:
            seen.add(key)

    def _annihilator_hook(self, args, kwargs, result):
        family = args[0] if args else kwargs["A"]
        self._repeat("bundles.annihilator",
                     (family.ambient, _polymatrix_key(family.basis)))

    def _saturate_hook(self, args, kwargs, result):
        self._repeat("bundles.saturate",
                     _polymatrix_key(args[0] if args else kwargs["P"]))

    # -- reporting ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics recorded so far (extras not known here are 0)."""
        out = {}
        for module, qualname, stage in TARGETS:
            label = "%s.%s" % (module, qualname)
            out[label + ".calls"] = self.calls.get(label, 0)
            out[label + ".self_s"] = self.self_s.get(label, 0.0)
            if stage:
                out[label + ".total_s"] = self.total_s.get(label, 0.0)
        for name in EXTRA_METRICS:
            out[name] = 0
        out.update(self.counters)
        for label, (calls, repeats) in self._repeats.items():
            out[label + ".repeat_ratio"] = repeats / calls if calls else 0.0
        return out

    def raw(self):
        """Everything recorded, as JSON-ready data for `merge`."""
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s, "counters": self.counters,
                "repeats": self._repeats, "spans": self.spans}

    def merge(self, raw):
        """Add the record of another process (from `raw`); returns its
        spans with ids moved past this tracer's own."""
        for field in ("calls", "self_s", "total_s"):
            mine = getattr(self, field)
            for label, value in raw[field].items():
                mine[label] = mine.get(label, 0) + value
        for name, value in raw["counters"].items():
            if name.endswith(".max_bits"):
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value
        for label, (calls, repeats) in raw["repeats"].items():
            self._repeats[label][0] += calls
            self._repeats[label][1] += repeats
        offset = self._next_id
        spans = [(sid + offset, name, start, end,
                  None if parent is None else parent + offset, item)
                 for sid, name, start, end, parent, item in raw["spans"]]
        self._next_id += 1 + max((s[0] for s in raw["spans"]), default=-1)
        return spans

    def write_spans(self, path, extra_spans=()):
        """Write every span as one JSON document; `extra_spans` lets a parent
        merge spans recorded in child processes."""
        names = sorted({s[1] for s in self.spans} |
                       {s[1] for s in extra_spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[name], round(start, 9), round(end, 9), parent, item]
                for sid, name, start, end, parent, item
                in list(self.spans) + list(extra_spans)]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "item"],
                       "names": names, "spans": rows}, fh,
                      separators=(",", ":"))
            fh.write("\n")
