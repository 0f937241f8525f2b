"""Run-time tracing of zgcentral's layer functions, from outside the package.

`Tracer.install` replaces each target function with a wrapper in every
namespace that binds it: the defining module and every other `zgcentral`
module that imported it with `from .x import y`.  Methods and properties
are replaced on their class.  The benchmark calls the library through
module attributes, so it reaches the wrappers too.

While `enabled` is true a wrapper records one span per call (name, start,
end, parent span, workload item) and keeps per-function totals; a
counter target only counts calls.  Self time is a span's duration minus
the time covered by its direct child spans.  Spans stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _conjugacy_key(args, kwargs, result):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "ordinary")
    return ("conjugacy_partition.group_kinds", (id(args[0]), kind))


def _all_subgroups_found(args, kwargs, result):
    return ("all_subgroups.found", len(result))


def _shoda_passed(args, kwargs, result):
    return ("is_shoda_pair.passed", 1 if result else 0)


# (module, qualified name, kind, observer).  kind "span" records spans,
# "counter" only counts calls (used where a pass makes well over 1e5
# calls).  An observer turns (args, kwargs, result) into a named tally.
TARGETS = [
    ("groups", "group_from_pc_presentation", "span", None),
    ("groups", "group_from_permutations", "span", None),
    ("groups", "subgroup_closure", "span", None),
    ("groups", "Subgroup.gens", "span", None),
    ("groups", "all_subgroups", "span", _all_subgroups_found),
    ("groups", "quotient", "span", None),
    ("groups", "normal_closure", "span", None),
    ("groups", "is_normal", "span", None),
    ("groups", "right_transversal", "span", None),
    ("groups", "conjugacy_partition", "span", _conjugacy_key),
    ("groups", "FiniteGroup.power", "counter", None),
    ("groupalgebra", "centralizer_of", "span", None),
    ("groupalgebra", "mul", "span", None),
    ("groupalgebra", "qg_inverse", "span", None),
    ("groupalgebra", "epsilon", "span", None),
    ("groupalgebra", "conjugate_orbit", "span", None),
    ("groupalgebra", "is_central", "span", None),
    ("groupalgebra", "center_component_dim", "span", None),
    ("cyclotomic", "trace_to_q", "span", None),
    ("cyclotomic", "Cyclotomic.__mul__", "counter", None),
    ("cyclotomic", "Cyclotomic.embeddings", "span", None),
    ("shoda", "is_shoda_pair", "span", _shoda_passed),
    ("shoda", "linear_character", "span", None),
    ("shoda", "pci", "span", None),
    ("shoda", "shoda_pair_candidates", "span", None),
    ("shoda", "verify_chain", "span", None),
    ("shoda", "find_strong_inductive_chain", "span", None),
    ("shoda", "induced_char_value", "span", None),
    ("rank", "rank_term", "span", None),
    ("rank", "k_of_pair", "span", None),
    ("rank", "rank_oracle", "span", None),
    ("rank", "verify_center_degree", "span", None),
    ("linalg", "integer_rank", "span", None),
    ("units", "bass_unit", "span", None),
    ("units", "c_central_unit", "span", None),
    ("units", "z_central_unit", "span", None),
    ("units", "is_central_unit", "span", None),
    ("units", "central_character_value", "span", None),
    ("units", "log_rank_witness", "span", None),
    ("cli", "parse_pairs_file", "span", None),
]

RATIOS = (
    "groups.all_subgroups.new_ratio",
    "shoda.is_shoda_pair.pass_ratio",
    "shoda.pci.kept_ratio",
    "units.z_central_unit.accept_ratio",
    "groupalgebra.qg_inverse.per_unit",
    "groups.conjugacy_partition.per_group_kind",
)

# Properties whose value is memoized in a slot: only computing reads
# (slot still None) are spans.
MEMO_SLOTS = {"Subgroup.gens": "_gens"}


def metric_names():
    """Per-layer metric names, in BENCHMARK.json order."""
    out = []
    for mod, qual, kind, _ in TARGETS:
        name = f"{mod}.{qual}"
        out.append(f"{name}.calls")
        if kind == "span":
            out += [f"{name}.total_s", f"{name}.self_s"]
    return out


def call_costs(n=20000):
    """Seconds a span wrapper and a counter wrapper add to one call, timed
    on a function that does nothing (with a throwaway tracer)."""

    def noop():
        return None

    t = Tracer()
    t.enabled = True
    span = t._wrap("noop", noop, "span")
    count = t._wrap("noop", noop, "counter")

    def per_call(fn):
        start = perf_counter()
        for _ in range(n):
            fn()
        return (perf_counter() - start) / n

    base = per_call(noop)
    return per_call(span) - base, per_call(count) - base


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = None
        self.spans = []  # (id, name, start, end, parent id, item)
        self.started = 0
        self.stack = []  # open frames: [span id, name, child time]
        self.calls = Counter()
        self.raised = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.active = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.tallies = Counter()
        self.distinct = defaultdict(set)
        self.missing = []

    # -- installation ---------------------------------------------------------

    def install(self):
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "zgcentral" or n.startswith("zgcentral."))
        ]
        for mod, qual, kind, observer in TARGETS:
            name = f"{mod}.{qual}"
            module = importlib.import_module(f"zgcentral.{mod}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(attr)
                if orig is None:
                    self.missing.append(name)
                    continue
                if isinstance(orig, property):
                    fget = self._wrap(name, orig.fget, kind, observer, MEMO_SLOTS.get(qual))
                    setattr(cls, attr, property(fget, orig.fset, orig.fdel, orig.__doc__))
                else:
                    setattr(cls, attr, self._wrap(name, orig, kind, observer))
                continue
            orig = getattr(module, qual, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, kind, observer)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)

    def _wrap(self, name, fn, kind, observer=None, memo_slot=None):
        tracer = self

        if kind == "counter":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if memo_slot is not None and getattr(args[0], memo_slot, None) is not None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if parent is not None:
                tracer.edges[(parent[1], name)] += 1
            sid = tracer.started
            tracer.started += 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if not tracer.active[name]:
                    tracer.total_s[name] += dur
                if not ok:
                    tracer.raised[name] += 1
                tracer.spans.append(
                    (sid, name, start, end, None if parent is None else parent[0], tracer.item)
                )
            if observer is not None:
                key, value = observer(args, kwargs, result)
                if isinstance(value, tuple):
                    tracer.distinct[key].add(value)
                else:
                    tracer.tallies[key] += value
            return result

        return traced

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        out = {}
        for mod, qual, kind, _ in TARGETS:
            name = f"{mod}.{qual}"
            out[f"{name}.calls"] = self.calls[name]
            if kind == "span":
                out[f"{name}.total_s"] = self.total_s[name]
                out[f"{name}.self_s"] = self.self_s[name]
        return out

    def ratios(self, notes):
        """Each ratio in RATIOS as (value, numerator, base); 0 when the
        base is 0.  `notes` holds the workload's own tallies."""
        units_built = self.calls["units.c_central_unit"] + self.calls["units.z_central_unit"]
        z_calls = self.calls["units.z_central_unit"]
        parts = {
            "groups.all_subgroups.new_ratio": (
                self.tallies["all_subgroups.found"],
                self.edges[("groups.all_subgroups", "groups.subgroup_closure")],
            ),
            "shoda.is_shoda_pair.pass_ratio": (
                self.tallies["is_shoda_pair.passed"], self.calls["shoda.is_shoda_pair"]
            ),
            "shoda.pci.kept_ratio": (notes.get("pairs_kept", 0), self.calls["shoda.pci"]),
            "units.z_central_unit.accept_ratio": (
                z_calls - self.raised["units.z_central_unit"], z_calls
            ),
            "groupalgebra.qg_inverse.per_unit": (
                self.calls["groupalgebra.qg_inverse"], units_built
            ),
            "groups.conjugacy_partition.per_group_kind": (
                self.calls["groups.conjugacy_partition"],
                len(self.distinct["conjugacy_partition.group_kinds"]),
            ),
        }
        out = {}
        for name in RATIOS:
            num, base = parts[name]
            out[name] = (num / base if base else 0.0, num, base)
        return out

    def write_spans(self, path):
        """One JSON array per line: id, name, start, end, parent id, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
