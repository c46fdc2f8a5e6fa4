"""Span recorder for the traced run, installed from outside the library.

Each span records its name, start, end, parent span and query id.  A
span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and written out when the run ends.

Functions are wrapped by rebinding the *same* function object in every
``lowprev`` module namespace that holds it (``solve_min`` lives in
``solver``, ``previsions``, ``invariance``, ``exchange`` and the package),
so calls between modules are recorded too.  Classes are wrapped through
their ``__init__``, in place, so ``isinstance`` keeps working.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _cells(counts, args, result):
    a_rows, _, c = args[:3]
    counts["solver.solve_standard.cells"] += len(a_rows) * len(c)


def _vertex_counts(counts, args, result):
    lp = args[0]
    eqs = sum(1 for c in lp.constraints if c.relation == "==")
    rows = len(lp.constraints) - eqs + lp.n
    dim = max(lp.n - 1 - eqs, 0)
    counts["solver.enumerate_vertices.vertices_out"] += len(result)
    # computed from the LP's shape: C(inequality rows, dimension) active sets
    counts["solver.enumerate_vertices.bases_bound"] += math.comb(rows, dim)


def _closure_size(counts, args, result):
    counts["transforms.closure.elements"] += len(result.closure)


# (module, attribute, span name, counter); a class is wrapped at __init__
TARGETS = [
    ("solver", "solve_standard", "solver.solve_standard", _cells),
    ("solver", "solve_min", "solver.solve_min", None),
    ("solver", "solve_fractional_min", "solver.solve_fractional_min", None),
    ("solver", "enumerate_vertices", "solver.enumerate_vertices", _vertex_counts),
    ("solver", "extreme_points", "solver.extreme_points", None),
    ("solver", "polytope_inequalities", "solver.polytope_inequalities", None),
    ("previsions", "CredalSet", "previsions.CredalSet", None),
    ("previsions", "natural_extension", "previsions.natural_extension", None),
    ("previsions", "is_coherent", "previsions.is_coherent", None),
    ("previsions", "coherent_version", "previsions.coherent_version", None),
    ("previsions", "credal_vertices", "previsions.credal_vertices", None),
    ("transforms", "closure", "transforms.closure", _closure_size),
    ("invariance", "invariance_report", "invariance.invariance_report", None),
    ("invariance", "mixture_lower_prevision", "invariance.mixture_lower_prevision", None),
    ("invariance", "symmetrize", "invariance.symmetrize", None),
    ("invariance", "strongly_invariant_natex", "invariance.strongly_invariant_natex", None),
    ("invariance", "extract_atom_lowprev", "invariance.extract_atom_lowprev", None),
    ("exchange", "update_counts", "exchange.update_counts", None),
    ("exchange", "posterior_count_assessment", "exchange.posterior_count_assessment", None),
    ("choquet", "is_n_monotone", "choquet.is_n_monotone", None),
    ("choquet", "choquet_integral", "choquet.choquet_integral", None),
    ("shift", "Truncated", "shift.Truncated", None),
    ("shift", "window_inf_mean", "shift.window_inf_mean", None),
    ("shift", "lnex_theta", "shift.lnex_theta", None),
    ("shift", "lsamp_theta", "shift.lsamp_theta", None),
    ("shift", "residue_estimate", "shift.residue_estimate", None),
    ("shift", "cesaro_mean", "shift.cesaro_mean", None),
    ("shift", "banach_crosscheck", "shift.banach_crosscheck", None),
]
JSONIO_SPAN = "jsonio.parse"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.stack: list[int] = []
        self.query = None
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.query])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in place; :meth:`uninstall` undoes it."""
        modules = [m for n, m in sys.modules.items() if n == "lowprev" or n.startswith("lowprev.")]
        targets = list(TARGETS)
        jsonio = importlib.import_module("lowprev.jsonio")
        targets += [
            ("jsonio", n, JSONIO_SPAN, None)
            for n, fn in vars(jsonio).items()
            if n.startswith("parse_") and getattr(fn, "__module__", None) == jsonio.__name__
        ]
        for module_name, attr, name, counter in targets:
            obj = getattr(importlib.import_module(f"lowprev.{module_name}"), attr)
            if isinstance(obj, type):
                self._restore.append((obj, "__init__", obj.__init__))
                obj.__init__ = self.wrap(name, obj.__init__, counter)
                continue
            traced = self.wrap(name, obj, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        self._restore.append((module, key, obj))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded in another process below span ``parent``."""
        base = len(self.spans)
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up, self.query])

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: number of spans and summed self time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
