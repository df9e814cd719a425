"""Per-layer tracing installed from outside the program.

Each layer is a named group of cylset callables.  `Tracer.install` replaces
every such callable, under every name a cylset module looks it up by, with a
wrapper that counts calls and accumulates busy and self time.  Self time is
a call's duration minus the time its wrapped children cover; busy time
counts only the outermost call when a layer re-enters itself (`satisfies`
calling `evaluate`).  Calls to the hot layers (about 1.6M `cyl` calls on
twin-refute) are aggregated only; every other call also records a span
(layer, parent span, start, duration), kept in memory and written out by
the caller when the run ends.

A callable a later refactor removes is reported absent with 0 calls, so the
traced run keeps working on any revision of the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# Layer name -> targets.  "module:name" is a module-level function of
# cylset.<module>; "*.name" is a method of that name on every class defined
# in any cylset module, so a merged or renamed algebra class is still found.
LAYERS: dict[str, tuple[str, ...]] = {
    "semantics.cyl": ("*.cyl",),
    "semantics.diag": ("*.diag",),
    "semantics.subsets": ("semantics:all_subsets", "semantics:sample_subsets"),
    "semantics.evaluate": ("semantics:evaluate", "semantics:satisfies", "semantics:mapped_eval"),
    "semantics.check_ca_axioms": ("semantics:check_ca_axioms",),
    "semantics.bounded_validity": ("semantics:bounded_validity",),
    "units.classify": ("units:classify",),
    "units.enumerate_units": ("units:enumerate_units",),
    "terms.parse_term": ("terms:parse_term",),
    "terms.render_term": ("terms:render_term",),
    "constructions.twin_system_holds": ("constructions:twin_system_holds",),
    "constructions.split": ("constructions:split_atom_diag", "constructions:split_any_crs"),
    "constructions.certificate_io": (
        "constructions:certificate_to_dict",
        "constructions:certificate_from_dict",
    ),
    "constructions.verify_certificate": ("constructions:verify_certificate",),
    "constructions.refute_twins_in_gs2": ("constructions:refute_twins_in_gs2",),
    "constructions.mapped_witness": ("constructions:mapped_witness",),
    "constructions.zero_dim_check": ("constructions:zero_dim_check",),
}

# Layers whose return value carries a count worth keeping.
RESULT_COUNTS = {"semantics.bounded_validity": "evaluations_checked"}

# Layers called hundreds of thousands of times: no span per call.
HOT = frozenset(
    {"semantics.cyl", "semantics.diag", "units.classify", "constructions.twin_system_holds"}
)


class LayerStats:
    __slots__ = ("calls", "busy_s", "self_s", "active", "yielded", "counted")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.yielded = 0
        self.counted = 0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
            "yielded": self.yielded,
            "counted": self.counted,
        }


class Tracer:
    """Wraps the layers' callables; `uninstall` puts the originals back."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in LAYERS}
        self.layer_ids = {name: k for k, name in enumerate(LAYERS)}
        # Child-time accumulators of the open calls; the root entry sums the
        # outermost calls, i.e. the time some layer covers.
        self._children = [0.0]
        self._open_spans: list[int] = []
        self.spans: list[tuple[int, int, float, float]] = []
        self.found: dict[str, list[str]] = {name: [] for name in LAYERS}
        self._patches: list[tuple[object, str, object]] = []

    @property
    def covered_s(self) -> float:
        return self._children[0]

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "cylset" or name.startswith("cylset."))
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                if target.startswith("*."):
                    self._patch_methods(layer, target[2:], modules)
                else:
                    self._patch_function(layer, target, modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, layer: str, target: str, modules: list) -> None:
        module_name, attr = target.split(":")
        home = sys.modules.get(f"cylset.{module_name}")
        original = getattr(home, attr, None)
        if not callable(original):
            return
        wrapper = self._wrap(layer, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                    self.found[layer].append(f"{mod.__name__}.{name}")

    def _patch_methods(self, layer: str, attr: str, modules: list) -> None:
        for mod in modules:
            for cls in list(vars(mod).values()):
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                raw = cls.__dict__.get(attr)
                if inspect.isfunction(raw):
                    self._set(cls, attr, self._wrap(layer, raw))
                    self.found[layer].append(f"{mod.__name__}.{cls.__name__}.{attr}")

    def _wrap(self, layer: str, fn):
        stat = self.stats[layer]
        children = self._children
        if layer in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                children.append(0.0)
                stat.active += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stat.active -= 1
                    stat.calls += 1
                    stat.self_s += dt - children.pop()
                    if not stat.active:
                        stat.busy_s += dt
                    children[-1] += dt

            return hot

        layer_id = self.layer_ids[layer]
        spans = self.spans
        open_spans = self._open_spans

        def timed(call, count):
            parent = open_spans[-1] if open_spans else -1
            span = len(spans)
            spans.append((layer_id, parent, 0.0, 0.0))
            open_spans.append(span)
            children.append(0.0)
            stat.active += 1
            t0 = perf_counter()
            try:
                return call()
            finally:
                dt = perf_counter() - t0
                stat.active -= 1
                stat.calls += count
                stat.self_s += dt - children.pop()
                if not stat.active:
                    stat.busy_s += dt
                children[-1] += dt
                open_spans.pop()
                spans[span] = (layer_id, parent, t0, dt)

        def resume(gen):
            # A generator does its work when resumed, not when called.
            while True:
                try:
                    item = timed(lambda: next(gen), 0)
                except StopIteration:
                    return
                stat.yielded += 1
                yield item

        count_attr = RESULT_COUNTS.get(layer)

        @functools.wraps(fn)
        def cold(*args, **kwargs):
            result = timed(lambda: fn(*args, **kwargs), 1)
            if count_attr:
                stat.counted += getattr(result, count_attr, 0)
            return resume(result) if inspect.isgenerator(result) else result

        return cold

    def to_dict(self) -> dict:
        return {
            "layers": {name: s.to_dict() for name, s in self.stats.items()},
            "found": self.found,
            "absent": sorted(name for name, where in self.found.items() if not where),
            "covered_s": self.covered_s,
        }
