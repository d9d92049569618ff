"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces each traced function of the egyfrac package at
every module attribute that binds it, so calls made inside the library are
seen as well as the benchmark's own: `oracle` binds `iter_exact` and
`classify_equality` by name, and the enumeration walker looks up
`egyptian.position_range` as a module global. Each wrapped call records one
span (name, parent, start, end). A generator records one span per
resumption, so its time is the sum of its resumptions. Spans stay in memory
until the run ends; `write` puts those of the last pass on disk.

Counters that the per-layer metrics need (nodes, class sizes, tuples yielded,
bit lengths, equality cases) are taken from the wrapped calls' results, at
the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter


def _search_nodes(counts, report):
    counts["oracle.window_search.nodes"] += report.stats.nodes
    counts["oracle.window_search.useful"] += (
        len(report.equality_witnesses) + len(report.counterexamples)
    )


def _class_size(counts, report):
    counts["oracle.max_lcm_search.class_size"] += report.details["class_size"]


def _bits(counts, value):
    if value.bit_length() > counts["sylvester.max_bits"]:
        counts["sylvester.max_bits"] = value.bit_length()


def _equality(counts, strict):
    counts["majorization.equality"] += not strict


# (module, attribute path, observer of the result or None)
TARGETS = [
    ("oracle", "window_search", _search_nodes),
    ("oracle", "max_lcm_search", _class_size),
    ("oracle", "lcm_square_check", None),
    ("egyptian", "position_range", None),
    ("egyptian", "iter_exact", None),
    ("egyptian", "tuple_lcm", None),
    ("egyptian", "tuple_sum", None),
    ("egyptian", "greedy", None),
    ("egyptian", "enumerate_exact", None),
    ("bounds", "classify_equality", None),
    ("bounds", "sharp_sum_bound", None),
    ("bounds", "gap_amount", None),
    ("bounds", "lcm_bound", None),
    ("bounds", "extremal_gap_tuple", None),
    ("bounds", "extremal_lcm_tuple", None),
    ("sylvester", "SylvesterTable.u", _bits),
    ("sylvester", "check_identities", None),
    ("majorization", "random_prefix_dominated_pair", None),
    ("majorization", "random_suffix_dominated_pair", None),
    ("majorization", "sum_dominance_conclusion", _equality),
    ("majorization", "product_dominance_conclusion", _equality),
    ("geometry", "bpf_index", None),
    ("geometry", "gap_bound", None),
    ("geometry", "index_bound", None),
    ("geometry", "refined_index_bound", None),
    ("rationals", "srq_decompose", None),
    ("rationals", "parse_rational", None),
    ("rationals", "rational_str", None),
    ("report", "report_to_dict", None),
    ("cli", "main", None),
    ("cli", "build_parser", None),
]

GENERATORS = {"egyptian.iter_exact"}
PACKAGE = "egyfrac"


class Tracer:
    """In-memory spans plus per-pass counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.passes: list[tuple[int, Counter]] = []  # (first span, counters)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    @property
    def counts(self) -> Counter:
        return self.passes[-1][1]

    def begin_pass(self) -> None:
        self.passes.append((len(self.span_name), Counter()))

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self.name_id(name)
        calls, yielded = f"{name}.calls", f"{name}.yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self.counts[calls] += 1

            def resumptions():
                while True:
                    i = self.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    self.counts[yielded] += 1
                    yield item

            return resumptions()

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module, path, observe in TARGETS:
            name = f"{module}.{path}"
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, observe)
            holders = [owner] if owner_path else modules
            for holder in holders:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    self._undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def pass_stats(self) -> list[tuple[Counter, dict[str, float]]]:
        """Per pass: (counters incl. calls, self seconds by span name).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, since the benchmark is one thread.
        """
        out = []
        bounds = [start for start, _ in self.passes] + [len(self.span_name)]
        for (start, counts), end in zip(self.passes, bounds[1:]):
            child = [0] * (end - start)
            for i in range(start, end):
                parent = self.span_parent[i]
                if parent >= start:
                    child[parent - start] += self.span_end[i] - self.span_start[i]
            calls: Counter = Counter()
            self_ns: Counter = Counter()
            for i in range(start, end):
                name = self.names[self.span_name[i]]
                calls[name] += 1
                self_ns[name] += self.span_end[i] - self.span_start[i] - child[i - start]
            merged = Counter(counts)
            for name, n in calls.items():
                if name not in GENERATORS:  # a generator's spans are resumptions
                    merged[f"{name}.calls"] = n
            out.append((merged, {name: ns / 1e9 for name, ns in self_ns.items()}))
        return out

    def write(self, path) -> None:
        """The spans of the last pass, one per line: id, parent, name, and
        start and end in ns from the pass's first span."""
        first = self.passes[-1][0]
        t0 = self.span_start[first]
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(first, len(self.span_name)):
                f.write(
                    f"{i - first}\t{max(self.span_parent[i] - first, -1)}"
                    f"\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i] - t0}\t{self.span_end[i] - t0}\n"
                )
