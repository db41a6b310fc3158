"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every adamskit module
that binds it (so ``moser1d.adaptive_gauss`` and ``hardy.adaptive_gauss``
are wrapped separately, and calls inside the defining module are seen
too), and wraps ``value`` on every ``Piece`` subclass at class level.
Spans (name, start, end, parent) are kept in memory; ``write`` saves them.
``restore`` puts every original back and ``assert_pristine`` proves it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (defining module, function) of each traced public function.
TRACED = (
    ("quadrature", "adaptive_gauss"),
    ("moser1d", "cc_functional"),
    ("moser1d", "energy"),
    ("moser1d", "concentration_maximizer"),
    ("extremal", "make_params"),
    ("extremal", "norm_chain_bound"),
    ("extremal", "norm_quadrature"),
    ("extremal", "functional_lower_bound"),
    ("extremal", "functional_quadrature"),
    ("extremal", "concentration_level_unit_ball"),
    ("hardy", "rayleigh_probe"),
    ("hardy", "trial_ratio"),
    ("hardy", "second_order_probe"),
    ("hardy", "second_order_trial_ratio"),
    ("hardy", "sandwich"),
    ("rearrange", "decreasing_rearrangement"),
    ("rearrange", "symmetrize"),
    ("rearrange", "talenti_radial_solution"),
    ("rearrange", "energy_change_of_variables"),
    ("cli", "to_csv"),
    ("cli", "to_json"),
)
#: Public functions of ``constants``; they share the span name "constants",
#: so nested calls inside that module count once.
CONSTANTS = ("beta0", "beta0_product_form", "concentration_level", "t_zero",
             "unit_ball_volume", "unit_sphere_area", "log_unit_sphere_area", "eta_exponent")

#: Tail piece ``kind`` -> key of the ``moser1d.cc_functional`` span split by tail.
TAIL_KEYS = {"linear": "linear", "exp": "exp", "radial-log": "logradial"}


def span_name(module: str, function: str) -> str:
    """``module.function``; ``adaptive_gauss`` is the whole "quadrature" layer."""
    return "quadrature" if (module, function) == ("quadrature", "adaptive_gauss") else f"{module}.{function}"


def _modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._bindings: list[tuple[object, str, object]] = []  # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name_id, start, end, parent)

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name: str, original):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            return self.call(name_id, original, *args, **kwargs)

        return wrapper

    def _quadrature(self, original):
        outer = self._name_id("quadrature")
        inner = self._name_id("quadrature.integrand")
        error_type = self.lib.errors.QuadratureError
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def integrand(x):
                counts["quadrature.nodes"] += getattr(x, "size", 1)
                return self.call(inner, f, x)

            try:
                return self.call(outer, original, integrand, *args, **kwargs)
            except error_type:
                counts["quadrature.errors"] += 1
                raise

        return wrapper

    def _cc_functional(self, original):
        total = self._name_id("moser1d.cc_functional")
        keyed = {kind: self._name_id(f"moser1d.cc_functional.{key}") for kind, key in TAIL_KEYS.items()}

        def wrapper(g, *args, **kwargs):
            key = keyed.get(getattr(g.tail, "kind", None))
            if key is None:
                return self.call(total, original, g, *args, **kwargs)
            return self.call(total, self.call, key, original, g, *args, **kwargs)

        return wrapper

    def _wrapper_for(self, module: str, attr: str, original):
        if (module, attr) == ("quadrature", "adaptive_gauss"):
            return self._quadrature(original)
        if (module, attr) == ("moser1d", "cc_functional"):
            return self._cc_functional(original)
        if module == "constants":
            return self._plain("constants", original)
        return self._plain(span_name(module, attr), original)

    # -- install / restore -------------------------------------------------

    def targets(self) -> list[tuple[object, str, object, str, str]]:
        """(owner, attr, original, defining module, function) per binding."""
        package = self.lib.__name__
        originals = {}
        keys = list(TRACED) + [("constants", name) for name in CONSTANTS]
        for module, attr in keys:
            originals[id(getattr(getattr(self.lib, module), attr))] = (module, attr)
        out = []
        for mod in _modules(package):
            for attr, value in list(vars(mod).items()):
                key = originals.get(id(value))
                if key is not None:
                    out.append((mod, attr, value, *key))
        piece = self.lib.profiles.Piece
        for mod in _modules(package):
            for value in list(vars(mod).values()):
                if isinstance(value, type) and issubclass(value, piece) and "value" in vars(value):
                    out.append((value, "value", vars(value)["value"], "profiles", "value"))
        return out

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        seen = set()
        for owner, attr, original, module, function in self.targets():
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            if (module, function) == ("profiles", "value"):
                wrapper = self._plain("profiles.value", original)
            else:
                wrapper = self._wrapper_for(module, function, original)
            wrapper.__traced__ = True
            setattr(owner, attr, wrapper)
            self._bindings.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def assert_pristine(self) -> int:
        """Every traced name is bound to its original function; returns
        how many bindings were checked."""
        bindings = self.targets()
        for owner, attr, original, _module, _function in bindings:
            current = vars(owner)[attr]
            if current is not original or getattr(current, "__traced__", False):
                raise AssertionError(f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped")
        for mod in _modules(self.lib.__name__):
            for attr, value in vars(mod).items():
                if getattr(value, "__traced__", False):
                    raise AssertionError(f"{mod.__name__}.{attr} is still wrapped")
        return len(bindings)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, time (outermost spans only, so recursion
        and nesting under the same name count once) and self time."""
        spans = self.spans
        child_time = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name_id, start, end, parent) in enumerate(spans):
            entry = out.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_time[index]) * 1e-9
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name_id:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += (end - start) * 1e-9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for name_id, start, end, parent in self.spans:
                handle.write(f"{self.names[name_id]},{start},{end},{parent}\n")
