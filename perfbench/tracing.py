"""Spans around the package's public functions, and the per-layer metrics.

``Tracer.install`` replaces each traced function wherever the package looks
it up: every ``downup`` module attribute bound to the original function, or
the class attribute for a method.  ``uninstall`` puts the originals back.
Spans are kept in memory as parallel arrays (name, start, end, parent span,
op id, measure) and written out when the run ends.  Parents always precede
their children, so one forward pass gives self times and ancestors.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from array import array

# (layer.function, module, attribute, class or None, measure)
# measure: "terms" = terms in the returned polynomial, "size" = length of the
# list argument (the input of an inter-reduction), None = nothing.
TRACED = (
    ("freealg.normal_form", "freealg", "normal_form", None, "terms"),
    ("freealg.is_groebner", "freealg", "is_groebner", None, None),
    ("freealg.complete", "freealg", "complete", None, None),
    ("freealg.interreduce", "freealg", "interreduce", None, "size"),
    ("freealg.count_normal_words", "freealg", "count_normal_words", None, None),
    ("gdu.build", "gdu", "build", None, None),
    ("gdu.check_pbw", "gdu", "check_pbw", None, None),
    ("gdu.to_solvable", "gdu", "to_solvable", None, None),
    ("solvable.multiply", "solvable", "multiply", "SolvableAlgebra", "terms"),
    ("solvable.verify_ordering_axioms", "solvable", "verify_ordering_axioms", None, None),
    ("solvable.left_buchberger", "solvable", "left_buchberger", None, None),
    ("solvable.nf_left", "solvable", "nf_left", None, None),
    ("solvable.interreduce_left", "solvable", "interreduce_left", None, "size"),
    ("graded.homogenize_algebra", "graded", "homogenize_algebra", None, None),
    ("graded.assoc_graded", "graded", "assoc_graded", None, None),
    ("graded.hilbert", "graded", "hilbert", None, None),
    ("graded.ufn_growth", "graded", "ufn_growth", None, None),
    ("graded.rees_dims", "graded", "rees_dims", None, None),
    ("exprs.parse_expression", "exprs", "parse_expression", None, None),
    ("report.render", "report", "render", "Report", None),
    ("cli.main", "cli", "main", None, None),
)

# Per-layer metrics reported from the spans: (metric, unit).
CALLS = ("freealg.normal_form", "freealg.is_groebner", "freealg.complete", "gdu.build",
         "solvable.multiply", "solvable.left_buchberger", "solvable.nf_left")
TERMS = ("freealg.normal_form", "solvable.multiply")
# pair_yield: (loop, reductions it attempts, its final inter-reduction)
YIELDS = (("freealg.complete", "freealg.normal_form", "freealg.interreduce"),
          ("solvable.left_buchberger", "solvable.nf_left", "solvable.interreduce_left"))

# Scaling series: one function at growing sizes, on sl2 with all-ones weights.
NF_SIZES = range(3, 7)
MULTIPLY_SIZES = range(5, 16)
ORDER_BOUNDS = range(3, 6)
PBW_DEGREES = (8, 16, 24, 32)
HILBERT_DEGREES = (12, 50, 100, 200)


def _measure(kind, args, result) -> int:
    if kind == "terms":
        return len(result.terms)
    if kind == "size":
        return next(len(a) for a in args if isinstance(a, list))
    return -1


class Tracer:
    def __init__(self, downup):
        self.downup = downup
        self.names = [entry[0] for entry in TRACED]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.value = array("q")
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, kind):
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, value, stack = self.parent, self.op_id, self.value, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(name_id)
            name_id.append(index)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            value.append(-1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if kind is not None:
                value[span] = _measure(kind, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "downup" or name.startswith("downup.")]
        for index, (_, module, attr, cls, kind) in enumerate(TRACED):
            owner = getattr(self.downup, module)
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self._restore.append((klass, attr, original))
                setattr(klass, attr, self._wrap(index, original, kind))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, kind)
            for mod in modules:
                for key, bound in list(vars(mod).items()):
                    if bound is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __len__(self):
        return len(self.name_id)

    def metrics(self) -> dict:
        """Per-layer metrics over all recorded spans."""
        names, n = self.names, len(self.name_id)
        ids = {name: i for i, name in enumerate(names)}
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        terms = [0] * len(names)
        child = [0.0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        verify, multiply = ids["solvable.verify_ordering_axioms"], ids["solvable.multiply"]
        under_verify = bytearray(n)
        yield_ids = {(ids[loop], ids[red]): loop for loop, red, _ in YIELDS}
        size_ids = {(ids[loop], ids[inter]): loop for loop, _, inter in YIELDS}
        attempted = {loop: 0 for loop, _, _ in YIELDS}
        kept = {loop: 0 for loop, _, _ in YIELDS}
        multiply_in_verify = 0
        for s in range(n):
            k = self.name_id[s]
            calls[k] += 1
            self_s[k] += self.end[s] - self.start[s] - child[s]
            if self.value[s] > 0 and k in (ids["freealg.normal_form"], multiply):
                terms[k] += self.value[s]
            p = self.parent[s]
            if p < 0:
                continue
            pk = self.name_id[p]
            under_verify[s] = pk == verify or under_verify[p]
            if k == multiply and under_verify[s]:
                multiply_in_verify += 1
            if (pk, k) in yield_ids:
                attempted[yield_ids[(pk, k)]] += 1
            if (pk, k) in size_ids:
                kept[size_ids[(pk, k)]] += self.value[s]
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (calls[ids[name]], "count")
        for name in names:
            out[f"{name}.self_s"] = (self_s[ids[name]], "s")
        for name in TERMS:
            out[f"{name}.terms_out"] = (terms[ids[name]], "count")
        for loop, _, _ in YIELDS:
            ratio = kept[loop] / attempted[loop] if attempted[loop] else 0.0
            out[f"{loop}.pair_yield"] = (ratio, "ratio")
        out["solvable.verify_ordering_axioms.multiply_calls"] = (multiply_in_verify, "count")
        return out

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, op, measure."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in range(len(self.name_id)):
                handle.write(json.dumps(
                    [self.names[self.name_id[s]], round(self.start[s], 7),
                     round(self.end[s], 7), self.parent[s], self.op_id[s],
                     self.value[s]]) + "\n")


def _timed(fn) -> float:
    """Median of fn()'s own timings; short calls repeat until 0.3 s is spent."""
    times = [fn()]
    while sum(times) < 0.3 and len(times) < 25:
        times.append(fn())
    return statistics.median(times)


def _call_time(fn):
    def timed_call():
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    return timed_call


def scaling_series(downup) -> dict:
    """Time single calls at growing sizes: scaling.<module>.<fn>.<size>_s."""
    gdu, graded, freealg = downup.gdu, downup.graded, downup.freealg
    sl2 = gdu.preset("sl2")
    X1, X2, X3 = gdu.X1, gdu.X2, gdu.X3
    out = {}
    for k in NF_SIZES:
        word = freealg.FreePoly.word((X3,) * k + (X1,) * k + (X2,) * k)
        out[f"scaling.freealg.normal_form.{k}_s"] = _timed(_call_time(
            lambda: freealg.normal_form(word, sl2.relations, sl2.order)))
    for k in MULTIPLY_SIZES:
        def product(k=k):
            sol = gdu.to_solvable(sl2)  # a cold product cache for every call
            return _call_time(lambda: sol.multiply(sol.monomial((0, 0, k)),
                                                   sol.monomial((k, 0, 0))))()
        out[f"scaling.solvable.multiply.{k}_s"] = _timed(product)
    for bound in ORDER_BOUNDS:
        def axioms(bound=bound):
            sol = gdu.to_solvable(sl2)
            return _call_time(lambda: downup.solvable.verify_ordering_axioms(sol, bound))()
        out[f"scaling.solvable.verify_ordering_axioms.{bound}_s"] = _timed(axioms)
    for degree in PBW_DEGREES:
        out[f"scaling.gdu.check_pbw.{degree}_s"] = _timed(_call_time(
            lambda: gdu.check_pbw(sl2, degree)))
    mono = graded.homogenize_algebra(sl2).monomial_algebra()
    for degree in HILBERT_DEGREES:
        out[f"scaling.graded.hilbert.{degree}_s"] = _timed(_call_time(
            lambda: graded.hilbert(mono, degree)))
    return {name: (value, "s") for name, value in out.items()}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric the traced run prints."""
    out = [(f"{n}.calls", "count", "lower") for n in CALLS]
    out += [(f"{entry[0]}.self_s", "s", "lower") for entry in TRACED]
    out += [(f"{n}.terms_out", "count", "lower") for n in TERMS]
    out += [(f"{loop}.pair_yield", "ratio", "higher") for loop, _, _ in YIELDS]
    out += [("solvable.verify_ordering_axioms.multiply_calls", "count", "lower"),
            ("trace.overhead_share", "ratio", "lower")]
    out += [(f"scaling.freealg.normal_form.{k}_s", "s", "lower") for k in NF_SIZES]
    out += [(f"scaling.solvable.multiply.{k}_s", "s", "lower") for k in MULTIPLY_SIZES]
    out += [(f"scaling.solvable.verify_ordering_axioms.{b}_s", "s", "lower")
            for b in ORDER_BOUNDS]
    out += [(f"scaling.gdu.check_pbw.{d}_s", "s", "lower") for d in PBW_DEGREES]
    out += [(f"scaling.graded.hilbert.{d}_s", "s", "lower") for d in HILBERT_DEGREES]
    return out
