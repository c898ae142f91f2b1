"""Per-layer spans and counters, recorded by wrapping the library's public
functions from outside, so the library itself carries no tracing code.

The layers are the modules of the ``realisability`` package.  Installing
a Tracer replaces every binding of each traced function, in every module
of the package that imported it, by a wrapper; ``Kernel.apply`` and
``Kernel.run`` are patched on the class, and ``Kernel.register_primitive``
wraps each primitive as it is registered.  Uninstalling puts every
original binding back.

A span is opened for each call of a traced function, except a direct
recursive call (the innermost open span belongs to the same function),
which is only counted.  Definitions:

- ``<layer>.self_s``: time in the layer's spans not covered by child
  spans.  Summed over layers it is the time spent inside the outermost
  spans, the ``cli.main`` calls.
- ``<layer>.<fn>.s``: inclusive time of the outermost calls of fn.
- ``<layer>.<fn>.self_s``: inclusive time of fn's calls minus the child
  spans of other layers, counting a call only when no call of fn is open
  above it in the same run of same-layer spans.

Time spent in an untraced function is charged to the span that called it.
The pairing helpers of ``vm`` are not traced: each call does less work
than a wrapper costs, so their time is charged to their callers.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "semantics", "poles", "vm", "extraction", "ordinals",
          "syntax", "ramified")

UNTRACED = {
    "vm": {"pair", "unpair", "proj0", "proj1", "pair_seq", "vpair",
           "vunpair", "vpair_seq", "vint", "veq", "vle", "vbits"},
}

# functions reported under one shared span name
SPAN_NAMES = {
    ("ramified", "explicit_refutation"): "explicit_unfold",
    ("ramified", "explicit_realisation"): "explicit_unfold",
}

_APPLY = "vm.apply"
_PRIM = "ordinals.prim"
_MEMBER = "poles.member"
_EXTRACT = "extraction.extract_value"
_REALISES = "semantics.realises"
_RAM_CHECKS = ("ramified.check_model_equivalence",
               "ramified.check_rr_empty_properties")

# counts that must repeat exactly when the same queries run again
COUNT_KEYS = (
    "cli.main.calls", "semantics.realises.calls", "semantics.refuters_tried",
    "poles.member.calls", "poles.chase_steps", "poles.unknown_depth",
    "poles.unknown_fuel", "vm.apply.calls", "vm.fuel_used",
    "vm.diverged_fuel", "vm.stuck", "extraction.check_proof.calls",
    "extraction.extract_value.calls", "ordinals.prim.calls",
    "ordinals.template_extractions", "ordinals.nested_fuel",
    "ordinals.charged_fuel", "ramified.ram_truth.calls",
    "ramified.disagree_records",
)


class _Frame:
    __slots__ = ("key", "layer", "start", "children", "other", "counted")

    def __init__(self, key, layer, start, counted):
        self.key = key
        self.layer = layer
        self.start = start
        self.children = 0.0  # time of all child spans
        self.other = 0.0  # time of descendant spans of other layers
        self.counted = counted  # contributes to key self time


class Tracer:
    """Spans and counters for the layers; use as a context manager."""

    def __init__(self):
        self._patches: list = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.key_self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list = []
        self._active = defaultdict(int)
        self._cells: list = []  # fuel cells of open Kernel.apply calls

    def reset(self) -> None:
        """Zero every span and counter; call only between queries."""
        if self._stack:
            raise RuntimeError("reset while spans are open")
        for table in (self.calls, self.incl, self.key_self, self.layer_self,
                      self.counts, self._active):
            table.clear()

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module("realisability." + layer)
                   for layer in LAYERS}
        hooks = {_REALISES: (None, self._after_realises),
                 _MEMBER: (None, self._after_member),
                 _EXTRACT: (self._before_extract, None),
                 **{k: (None, self._after_ram_check) for k in _RAM_CHECKS}}
        wrappers = {}
        for layer, mod in modules.items():
            skip = UNTRACED.get(layer, set())
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    key = "%s.%s" % (layer, SPAN_NAMES.get((layer, name),
                                                           name))
                    wrappers[id(fn)] = self._span(fn, layer, key,
                                                  *hooks.get(key, ()))
        for mod in [importlib.import_module("realisability"),
                    *modules.values()]:
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        kernel = modules["vm"].Kernel
        self._patch(kernel, "apply", self._apply(kernel.apply))
        self._patch(kernel, "run", self._span(kernel.run, "vm", "vm.run"))
        self._patch(kernel, "_apply_value",
                    self._fuel_cell(kernel._apply_value))
        self._patch(kernel, "register_primitive",
                    self._register(kernel.register_primitive))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- spans ------------------------------------------------------------

    def _enter(self, key: str, layer: str):
        """Open a span, or return None for a direct recursive call."""
        stack = self._stack
        self.calls[key] += 1
        if stack and stack[-1].key == key:
            return None
        counted = True
        for frame in reversed(stack):
            if frame.layer != layer:
                break
            if frame.key == key:
                counted = False
                break
        frame = _Frame(key, layer, perf_counter(), counted)
        stack.append(frame)
        self._active[key] += 1
        return frame

    def _exit(self, frame) -> None:
        elapsed = perf_counter() - frame.start
        stack = self._stack
        stack.pop()
        key = frame.key
        self._active[key] -= 1
        if not self._active[key]:
            self.incl[key] += elapsed
        if frame.counted:
            self.key_self[key] += elapsed - frame.other
        self.layer_self[frame.layer] += elapsed - frame.children
        if stack:
            parent = stack[-1]
            parent.children += elapsed
            parent.other += (frame.other if parent.layer == frame.layer
                             else elapsed)

    def _span(self, fn, layer: str, key: str, before=None, after=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if before is not None:
                before()
            frame = enter(key, layer)
            if frame is None:
                result = fn(*args, **kwargs)
            else:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _parent_key(self):
        return self._stack[-1].key if self._stack else None

    # -- counters ---------------------------------------------------------

    def _after_realises(self, rv) -> None:
        self.counts["semantics.refuters_tried"] += rv.samples

    def _after_member(self, v) -> None:
        if v.kind == "unknown":
            self.counts["poles.unknown_" + str(v.reason)] += 1
        else:
            self.counts["poles.definite"] += 1

    def _after_ram_check(self, records) -> None:
        self.counts["ramified.disagree_records"] += sum(
            r.get("verdict") == "disagree" for r in records)

    def _before_extract(self) -> None:
        if self._parent_key() == _PRIM:
            self.counts["ordinals.template_extractions"] += 1

    def _apply(self, apply):
        """Kernel.apply with fuel accounting.  The fuel cell is read from
        the first Kernel._apply_value call the application makes, so a
        stuck run counts the steps it took and an exhausted run counts its
        whole budget."""
        enter, exit_, counts = self._enter, self._exit, self.counts

        def traced(kernel, e, m, fuel):
            parent = self._parent_key()
            if parent == _MEMBER:
                counts["poles.chase_steps"] += 1
            in_prim = False
            for frame in reversed(self._stack):
                if frame.key in (_APPLY, _PRIM):
                    in_prim = frame.key == _PRIM
                    break
            slot = [None]
            self._cells.append(slot)
            frame = enter(_APPLY, "vm")
            try:
                result = apply(kernel, e, m, fuel)
            finally:
                if frame is not None:
                    exit_(frame)
                self._cells.pop()
            if slot[0] is None:
                used = 0
            else:
                used = fuel - max(slot[0][0], 0)
            counts["vm.fuel_used"] += used
            if in_prim:
                counts["ordinals.nested_fuel"] += used
            reason = getattr(result, "reason", None)
            if reason == "stuck":
                counts["vm.stuck"] += 1
            elif reason is not None:
                counts["vm.diverged_fuel"] += 1
            return result

        traced.__wrapped__ = apply
        return traced

    def _fuel_cell(self, apply_value):
        cells = self._cells

        def traced(kernel, vf, va, fuel):
            if cells and cells[-1][0] is None:
                cells[-1][0] = fuel
            return apply_value(kernel, vf, va, fuel)

        traced.__wrapped__ = apply_value
        return traced

    def _register(self, register):
        counts = self.counts

        def traced(kernel, pid, fn, cost=None):
            package, _, layer = fn.__module__.rpartition(".")
            if package != "realisability" or layer not in LAYERS:
                return register(kernel, pid, fn, cost)
            key = "%s.prim" % layer
            span = self._span(fn, layer, key)
            if key != _PRIM:
                return register(kernel, pid, span, cost)
            base = cost or (lambda _v: 1)

            def billed(v):
                c = base(v)
                counts["ordinals.charged_fuel"] += c
                return c

            return register(kernel, pid, span, billed)

        traced.__wrapped__ = register
        return traced

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics, by name: counts and seconds."""
        c, s, incl, ks = self.calls, self.counts, self.incl, self.key_self
        member_calls = c[_MEMBER]
        out = {
            "cli.main.calls": c["cli.main"],
            "semantics.realises.calls": c[_REALISES],
            "semantics.realises.self_s": ks[_REALISES],
            "semantics.sample_refuters.s": incl["semantics.sample_refuters"],
            "semantics.truth_empty.s": incl["semantics.truth_empty"],
            "semantics.refuters_tried": s["semantics.refuters_tried"],
            "poles.member.calls": member_calls,
            "poles.member.self_s": ks[_MEMBER],
            "poles.chase_steps": s["poles.chase_steps"],
            "poles.unknown_depth": s["poles.unknown_depth"],
            "poles.unknown_fuel": s["poles.unknown_fuel"],
            "poles.definite_ratio": (s["poles.definite"] / member_calls
                                     if member_calls else 0.0),
            "vm.apply.calls": c[_APPLY],
            "vm.apply.self_s": ks[_APPLY],
            "vm.fuel_used": s["vm.fuel_used"],
            "vm.steps_per_s": (s["vm.fuel_used"] / ks[_APPLY]
                               if ks[_APPLY] else 0.0),
            "vm.decode.s": incl["vm.decode"],
            "vm.subst.s": incl["vm.subst"],
            "vm.encode.s": incl["vm.encode"],
            "vm.diverged_fuel": s["vm.diverged_fuel"],
            "vm.stuck": s["vm.stuck"],
            "extraction.parse_proof.s": incl["extraction.parse_proof"],
            "extraction.check_proof.calls": c["extraction.check_proof"],
            "extraction.check_proof.s": incl["extraction.check_proof"],
            "extraction.extract_value.calls": c[_EXTRACT],
            "extraction.extract_value.s": incl[_EXTRACT],
            "ordinals.wo_realiser.s": incl["ordinals.wo_realiser"],
            "ordinals.prim.calls": c[_PRIM],
            "ordinals.prim.self_s": ks[_PRIM],
            "ordinals.template_extractions":
                s["ordinals.template_extractions"],
            "ordinals.nested_fuel": s["ordinals.nested_fuel"],
            "ordinals.charged_fuel": s["ordinals.charged_fuel"],
            "syntax.subst.s": incl["syntax.subst"],
            "syntax.free_vars.s": incl["syntax.free_vars"],
            "syntax.godel.s": incl["syntax.godel"],
            "syntax.ungodel.s": incl["syntax.ungodel"],
            "syntax.parse_formula.s": incl["syntax.parse_formula"],
            "ramified.ram_truth.calls": c["ramified.ram_truth"],
            "ramified.ram_truth.self_s": ks["ramified.ram_truth"],
            "ramified.ram_realises.self_s": ks["ramified.ram_realises"],
            "ramified.ram_refutes.self_s": ks["ramified.ram_refutes"],
            "ramified.r_subst.s": incl["ramified.r_subst"],
            "ramified.explicit_unfold.s": incl["ramified.explicit_unfold"],
            "ramified.godel_r.s": incl["ramified.godel_r"],
            "ramified.disagree_records": s["ramified.disagree_records"],
        }
        for layer in LAYERS:
            out["%s.self_s" % layer] = self.layer_self[layer]
        return out

    def deterministic_counts(self) -> dict:
        m = self.metrics()
        return {k: m[k] for k in COUNT_KEYS}
