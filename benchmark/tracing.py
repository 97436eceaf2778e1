"""Per-layer spans recorded from outside the library.

The tracer swaps each listed public function of ``matroidwb`` for a wrapper
that records one span per call: ``(layer, start, end, parent, request)``,
where ``parent`` is the index of the enclosing span (-1 at top level) and
``request`` is the id of the property check that caused it.  A function
imported elsewhere with ``from .core import ...`` is a separate binding, so
every module attribute that holds the original object is patched, not only
the defining one.  Spans stay in memory; :func:`layer_totals` turns them
into per-layer call counts and self times.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Iterable

# layer -> (defining module, public names).  Family generators are handled
# separately: their span is one ``next()`` call, not the generator call.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "core.build": ("matroidwb.core", ("delete", "contract", "dual", "restriction")),
    "core.structure": (
        "matroidwb.core",
        ("circuits", "rank_of", "is_connected", "connected_components",
         "two_separation", "isomorphism"),
    ),
    "constructions": (
        "matroidwb.constructions",
        ("lattice_path", "bicircular", "whirl", "uniform", "named_atlas"),
    ),
    "poly": ("matroidwb.poly", ("basis_poly", "pair_decomposition", "rayleigh_diff")),
    "analysis.search": ("matroidwb.analysis", ("counterexample_search",)),
    "analysis.verdict": (
        "matroidwb.analysis",
        ("neg_corr", "neg_corr_all_pairs", "is_balanced", "rayleigh_verdict",
         "strong_rayleigh_verdict", "c_rayleigh_verdict", "hpp_verdict",
         "wagner_pair"),
    ),
    "sos": ("matroidwb.sos", ("sos_certificate", "sos_certificate_orthant")),
    "classifiers.positroid": ("matroidwb.classifiers", ("positroid_verdict",)),
}
ENUMERATE_LAYER = "classifiers.enumerate"
FAMILY_GENERATORS = ("lpm_family", "sparse_paving_family", "bicircular_family")


def layer_names() -> list[str]:
    names = list(LAYERS)
    names.insert(names.index("classifiers.positroid"), ENUMERATE_LAYER)
    return names


def layer_totals(spans: Iterable[tuple]) -> dict[str, tuple[int, float]]:
    """Calls and self time per layer.  Self time is a span's duration minus
    the durations of its direct children, which in one thread are disjoint
    sub-intervals of it."""
    spans = list(spans)
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for k, (layer, start, end, _, _) in enumerate(spans):
        calls, self_s = out.get(layer, (0, 0.0))
        out[layer] = (calls + 1, self_s + (end - start) - child[k])
    return out


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, layer: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(layer, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _span(self, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans[idx] = (layer, start, end, parent, self.request)

    def _traced_family(self, family: Callable) -> Callable:
        @functools.wraps(family)
        def traced(*args, **kwargs):
            gen = family(*args, **kwargs)
            while True:
                try:
                    item = self._span(ENUMERATE_LAYER, next, (gen,), {})
                except StopIteration:
                    return
                yield item

        return traced

    def _on_result(self, name: str) -> Callable | None:
        if name == "rayleigh_diff":
            return lambda d: self.counts.update({"poly.diff_terms": len(d.terms)})
        if name == "counterexample_search":
            return lambda r: self.counts.update(
                {"search.evals": r.evals, "search.witnesses": int(r.witness is not None)}
            )
        if name.startswith("sos_certificate"):
            return lambda cert: self.counts.update({"sos.certs": int(cert is not None)})
        return None

    # -- install / restore ----------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "matroidwb" and not modname.startswith("matroidwb."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        import matroidwb.classifiers
        import matroidwb.core

        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name)
                self._patch_everywhere(fn, self.wrap(layer, fn, self._on_result(name)))
        for name in FAMILY_GENERATORS:
            fn = getattr(matroidwb.classifiers, name)
            self._patch_everywhere(fn, self._traced_family(fn))
        matroid = matroidwb.core.Matroid
        init = matroid.__init__
        self._undo.append((matroid, "__init__", init))
        matroid.__init__ = self.wrap("core.build", init)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
