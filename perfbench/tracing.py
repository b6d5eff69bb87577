"""Call spans around the public functions of homoglab's layers.

`Tracer.install()` wraps every public module-level function of the traced
modules and rebinds each attribute of every loaded homoglab module that
holds one, so calls through names imported with `from .solver import ...`
(at import time or at call time) are seen too.  Spans stay in memory; a
span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the durations of the
top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = ("medium", "integrand", "meshing", "solver", "twoscale", "experiments", "config")


def _homoglab_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "homoglab" or name.startswith("homoglab."))
    ]


def rebind(replacements: dict) -> None:
    """Point every homoglab module attribute holding a key at its value."""
    for mod in _homoglab_modules():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replacements:
                setattr(mod, attr, replacements[val])


class LayerStat:
    __slots__ = ("calls", "self_s", "total_s", "iters", "nonconverged", "points", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.iters = 0
        self.nonconverged = 0
        self.points = 0
        self.keys: set = set()

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "iters": self.iters,
            "nonconverged": self.nonconverged,
            "points": self.points,
            "unique": len(self.keys),
        }


def _cell_key(bound: inspect.BoundArguments) -> tuple:
    a = bound.arguments
    F = tuple(float(c) for c in a["F"])
    return (a["r"].seed, a["L"], F, a["delta"], a["n_per_cell"], a["tol"])


class Tracer:
    def __init__(self):
        self.spans: list = []  # (label, parent index, t0, t1, self_s)
        self._stack: list = []  # [span index, time covered by children]
        self.stats: dict[str, LayerStat] = {}
        self.overhead_s = 0.0
        self._originals: dict = {}

    def install(self) -> None:
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"homoglab.{short}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    targets[obj] = f"{short}.{name}"
        self._originals = {fn: self._wrap(fn, label) for fn, label in targets.items()}
        rebind(self._originals)

    def unbound(self) -> list[str]:
        """Module attributes that still hold an unwrapped traced function."""
        left = []
        for mod in _homoglab_modules():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val in self._originals:
                    left.append(f"{mod.__name__}.{attr}")
        return left

    def _wrap(self, fn, label: str):
        stat = self.stats.setdefault(label, LayerStat())
        sig = inspect.signature(fn) if label == "solver.cell_problem" else None
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf()
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (label, parent, t0, t1, self_s)
                stat.calls += 1
                stat.self_s += self_s
                stat.total_s += dur
                iters = getattr(result, "iterations", None)
                if iters is not None:
                    stat.iters += int(iters)
                    stat.nonconverged += not result.converged
                if label == "medium.eval_coefficient" and result is not None:
                    stat.points += int(getattr(result, "size", 1))
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stat.keys.add(_cell_key(bound))
                self.overhead_s += (t0 - t_in) + (perf() - t1)

        return traced

    def top_level_s(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[1] == -1)

    def self_sum_s(self) -> float:
        return sum(s[4] for s in self.spans if s is not None)

    def summary(self) -> dict:
        return {label: st.as_dict() for label, st in sorted(self.stats.items()) if st.calls}
