"""Per-layer tracing from outside the program.

For the traced run only, every public function and method of the padicdyn
modules is replaced by a timing wrapper, at every name it is bound under:
`from .padic import exp_p` gives gibbs its own `exp_p`, so `gibbs.exp_p` and
`padic.exp_p` get separate wrappers and separate call counts, and the
reflected operators (`__radd__`, `__rmul__`) are wrapped apart from
`__add__`/`__mul__`.  `uninstall` puts every original back.

Each call pushes a frame; a frame's self time is its duration minus the
durations of the traced calls made inside it, so layer self times add up to
the traced time without double counting.  Spans are aggregated in memory per
function, not kept one by one: a Gibbs pass makes millions of calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from types import FunctionType

LAYERS = ("padic", "maps", "fixedpoints", "symbolic", "gibbs", "cli")
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# calls of the first function counted inside the nearest active call of the
# second group: g-steps of the two solvers, inverse branches per periodic point
NESTED = {
    "maps.eval_g": ("fixedpoints.find_x0", "symbolic.basin_status"),
    "symbolic.RepellerGeometry.inverse_branch": (
        "symbolic.RepellerGeometry.periodic_point_k",),
}
PER_WORD = "symbolic.RepellerGeometry.periodic_point_k"


class Stat:
    __slots__ = ("key", "layer", "arith", "outers", "calls", "self_s", "incl_s",
                 "depth", "nested", "passes")

    def __init__(self, key: str, layer: str, arith: bool = False):
        self.key, self.layer, self.arith = key, layer, arith
        self.outers = ()
        self.depth = 0
        self.reset()

    def reset(self):
        self.calls = 0
        self.self_s = self.incl_s = 0.0
        self.nested = 0
        self.passes = 0.0


class SiteStat:
    __slots__ = ("key", "calls")

    def __init__(self, key: str):
        self.key, self.calls = key, 0


class Tracer:
    """Wraps padicdyn's public callables; `snapshot` reads and `reset` clears."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.sites: dict[str, SiteStat] = {}
        self._stack: list = []
        self._restore: list = []

    def install(self) -> None:
        package = importlib.import_module("padicdyn")
        modules = {layer: importlib.import_module(f"padicdyn.{layer}") for layer in LAYERS}
        functions = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    functions[id(obj)] = self._stat(f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for site, mod in [("padicdyn", package), *modules.items()]:
            for name, obj in list(vars(mod).items()):
                stat = functions.get(id(obj))
                if stat is not None and isinstance(obj, FunctionType):
                    sstat = self.sites.setdefault(f"{site}.{name}", SiteStat(f"{site}.{name}"))
                    self._replace(mod, name, obj, self._wrap(obj, stat, sstat))
        for inner, outers in NESTED.items():
            self.stats[inner].outers = tuple(self.stats[o] for o in outers)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.reset()
        for site in self.sites.values():
            site.calls = 0

    def snapshot(self) -> dict:
        return {
            "functions": {k: {"layer": s.layer, "arith": s.arith, "calls": s.calls,
                              "self_s": s.self_s, "incl_s": s.incl_s,
                              "nested": s.nested, "passes": s.passes}
                          for k, s in self.stats.items()},
            "sites": {k: s.calls for k, s in self.sites.items()},
        }

    # -- wrapping -------------------------------------------------------------

    def _stat(self, key: str, layer: str, arith: bool = False) -> Stat:
        return self.stats.setdefault(key, Stat(key, layer, arith))

    def _replace(self, owner, name, original, replacement) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            arith = attr in ARITH
            if not arith and attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, self._stat(key, layer)))
            elif isinstance(raw, FunctionType):
                wrapped = self._wrap(raw, self._stat(key, layer, arith))
            else:
                continue
            self._replace(cls, attr, raw, wrapped)

    def _wrap(self, fn, stat: Stat, site: SiteStat | None = None):
        stack = self._stack
        clock = time.perf_counter
        per_word = stat.key == PER_WORD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stat.outers:
                for frame in reversed(stack):
                    if frame[1] in stat.outers:
                        frame[2] += 1
                        break
            frame = [0.0, stat, 0]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                if site is not None:
                    site.calls += 1
                stat.self_s += dt - frame[0]
                if stat.depth == 0:
                    stat.incl_s += dt
                if frame[2]:
                    stat.nested += frame[2]
                    if per_word:
                        word = args[1] if len(args) > 1 else kwargs["word"]
                        stat.passes += frame[2] / len(word)
                if stack:
                    stack[-1][0] += dt

        return traced
