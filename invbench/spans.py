"""Span tracing of the invdist layers, applied from outside the package.

``Tracer.install()`` replaces every binding of each traced function with a
wrapper: a function imported by name into several modules (``conjugate_op``
lives in ``weyl``, ``distributions`` and ``constructions``) is replaced in
each of them, and class attributes are replaced on the class.
``Tracer.restore()`` puts every original back.  Nothing in ``src/`` changes.

A wrapper records one span per call: name, start, end and the index of the
enclosing span.  A layer's self time is the time of its spans minus the time
of their direct child spans.  Scalar and Gaussian-rational multiplications
run millions of times, so they are counted without spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> (module, attribute) of each function recorded under it.
SPANS: Dict[str, List[Tuple[str, str]]] = {
    "weyl.compose": [("invdist.weyl", "WeylOp.compose")],
    "weyl.conjugate_op": [("invdist.weyl", "conjugate_op")],
    "weyl.substitution": [("invdist.weyl", "substitution_from_group")],
    "distributions.act_group": [("invdist.distributions",
                                 "DistExpr.act_group")],
    "distributions.apply_weyl": [("invdist.distributions",
                                  "DistExpr.apply_weyl")],
    "distributions.independence_rank": [("invdist.distributions",
                                         "independence_rank")],
    "scalars.rank": [("invdist.scalars", "rank_over_function_field")],
    "constructions.build_family": [("invdist.constructions",
                                    "build_family")],
    "constructions.verify": [("invdist.constructions", name) for name in (
        "verify_invariance", "verify_independence",
        "verify_support_filtration", "verify_lemma_d")],
    "clifford.group_inverse": [("invdist.clifford", "group_inverse")],
    "clifford.checks": [("invdist.clifford", "h_det_check"),
                        ("invdist.clifford", "h_closure_check")],
    "orbits.census": [("invdist.orbits", "enumerate_strata")],
    "orbits.orbit_dimension": [("invdist.orbits", "orbit_dimension")],
    "orbits.witness": [("invdist.orbits", "transitivity_witness")],
    "orbits.complex_check": [("invdist.orbits", "complex_orbit_check")],
    "cli.run_suite": [("invdist.cli", "run_suite")],
    "cli.emit_report": [("invdist.cli", "emit_report")],
}

# Counter name -> (module, attribute) of a method counted without spans.
COUNTS: Dict[str, Tuple[str, str]] = {
    "scalars.scalar_mul": ("invdist.scalars", "Scalar.__mul__"),
    "scalars.gauss_mul": ("invdist.scalars", "GaussianRational.__mul__"),
}


def _resolve(module: str, attr: str):
    """(owner, object) for ``attr``, which may be ``Class.method``."""
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, inspect.getattr_static(owner, name)


def _bindings(owner, obj) -> List[Tuple[object, str]]:
    """Every place that binds ``obj``: for a class, each of its attribute
    names (``__rmul__ = __mul__``); for a module-level function, each name
    in each loaded ``invdist`` module."""
    if inspect.isclass(owner):
        return [(owner, k) for k, v in vars(owner).items() if v is obj]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "invdist" or mod_name.startswith("invdist."):
            found.extend((mod, k) for k, v in vars(mod).items() if v is obj)
    return found


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        # (name, start, end, parent index); end is None while open.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        # span name -> names of the modules or classes it was installed in
        self.bound: Dict[str, List[str]] = defaultdict(list)

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        witness_tol = inspect.signature(
            sys.modules["invdist.orbits"].enumerate_strata
        ).parameters["residual_tol"].default
        observers = {
            "weyl.compose": self._terms_out,
            "distributions.apply_weyl": self._terms_out,
            "scalars.rank": self._cells,
            "orbits.witness": functools.partial(self._witness, witness_tol),
        }
        for span, targets in SPANS.items():
            for module, attr in targets:
                owner, orig = _resolve(module, attr)
                self._replace(span, owner, orig, self._span_wrapper(
                    span, orig, observers.get(span)))
        for counter, (module, attr) in COUNTS.items():
            owner, orig = _resolve(module, attr)
            self._replace(counter, owner, orig,
                          self._count_wrapper(counter, orig))

    def _replace(self, label: str, owner, orig, wrapper) -> None:
        for holder, key in _bindings(owner, orig):
            self._saved.append((holder, key, orig))
            setattr(holder, key, wrapper)
            self.bound[label].append(getattr(holder, "__name__", "?"))

    def restore(self) -> None:
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable,
                      observe: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            counts[name + ".calls"] += 1
            if observe is not None:
                observe(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _terms_out(self, name, args, result) -> None:
        self.counts[name + ".terms_out"] += len(result.terms)

    def _cells(self, name, args, result) -> None:
        matrix = args[0]
        self.counts[name + ".cells"] += len(matrix) * (
            len(matrix[0]) if matrix else 0)

    def _witness(self, tol, name, args, result) -> None:
        # A cross-stratum call returns None and is not a witness attempt.
        if result is None:
            return
        self.counts[name + ".attempted"] += 1
        self.counts[name + ".exact"] += int(result.exact)
        self.counts[name + ".failures"] += int(result.residual > tol)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: total span time minus the time of direct child
        spans.  Single-threaded calls nest, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)
