"""Per-layer spans recorded from outside the program.

``Tracer`` replaces functions of the ``localalg`` modules with timing
wrappers while it is active and restores them on exit. A function is
replaced in every module that binds it, so a name imported elsewhere
(``forms`` imports ``solve_nullspace``, ``lift`` imports ``mul``) is traced
on every path. Spans nest: a span's self time is its duration minus the
spans that ran inside it. A recursive call is counted but not timed again;
its time belongs to the outermost call.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "localalg"

# The package's modules, which are the benchmark's layers.
LAYERS = ("cli", "algebra", "expr", "lift", "torus", "forms", "linalg", "report")

# Methods traced besides every public module-level function.
METHODS = (
    "torus.TrigSpace.values",
    "torus.TrigSpace.build",
    "torus.ConstraintSystem.residual_inf",
    "report.Report.render",
)


def _system_size(args, result) -> dict[str, int]:
    return {"rows": int(getattr(result, "nrows", 0)), "cols": int(getattr(result, "ncols", 0))}


# Sizes recorded per call, from a traced function's arguments and result.
SIZES: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "torus.TrigSpace.values": lambda args, result: {"points": int(result.shape[0])},
    "torus.assemble_function_constraints": _system_size,
    "forms.assemble_form_constraints": _system_size,
    "torus.solve_nullspace": lambda args, result: {"nullity": int(result.shape[0])},
    "algebra.validate_algebra": lambda args, result: {"n": int(getattr(args[0], "n", 0))},
}


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0  # inclusive time of outermost calls
    self_s: float = 0.0
    sizes: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Context manager that traces the ``localalg`` package while active."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # [start, time in child spans]
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        return [mod for name, mod in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def _targets(self) -> list[tuple[str, object, str, object]]:
        """(key, owner, attribute, original) for each function to wrap."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        for key in METHODS:
            layer, cls_name, attr = key.split(".")
            cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
            if isinstance(cls, type) and attr in vars(cls):
                out.append((key, cls, attr, vars(cls)[attr]))
        return out

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        for key, owner, attr, original in self._targets():
            self.stats.setdefault(key, Stat())
            if isinstance(owner, type):
                raw = original.__func__ if isinstance(original, classmethod) else original
                wrapped = self._wrap(key, raw)
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats[key]
        size = SIZES.get(key)
        active = self._active
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            if active.get(key):
                return fn(*args, **kwargs)
            active[key] = 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                active[key] = 0
                stat.s += dur
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if size is not None:
                for name, value in size(args, result).items():
                    stat.sizes[name] = stat.sizes.get(name, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, s, self_s and the recorded sizes."""
        return {key: {"calls": st.calls, "s": st.s, "self_s": st.self_s, **st.sizes}
                for key, st in self.stats.items()}


def metric(snapshot: dict[str, dict[str, float]], name: str) -> float | None:
    """A per-layer metric by name, or None when its function is absent.

    ``<layer>.self_s`` sums the self time of the layer's traced functions;
    ``<key>.<field>`` reads one function's calls, s, self_s or a recorded
    size (0 when the function was never called).
    """
    key, fld = name.rsplit(".", 1)
    if key in LAYERS and fld == "self_s":
        return sum(v["self_s"] for k, v in snapshot.items() if k.split(".", 1)[0] == key)
    if key not in snapshot:
        return None
    return snapshot[key].get(fld, 0)
