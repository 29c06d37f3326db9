"""Per-layer tracing of in-process CLI calls, with no change to ``src/``.

`Tracer.install` wraps the public functions of each layer and rebinds every
name a ``negshapley`` module holds for them (``cli.ms_shapley``,
``shapley.satisfies`` and so on), so calls between modules and inside one
module both pass through the wrapper.  Each wrapper records a span; a
function's self time is its span minus the spans of the wrapped calls it
made.  The layers are the modules.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

# Group name -> the functions it wraps, as "module.function".
GROUPS = {
    "cli": ["cli.main"],
    "load": ["core.load_database"],
    "completion": ["core.signed_database"],
    "parse": ["query.parse_query"],
    "query": ["query.sign_transform", "query.analyze_query",
              "query.signed_database_restricted"],
    "enum": ["supports.minimal_signed_supports", "supports.minimal_positive_supports",
             "supports.minimal_d_monotone_supports", "supports.all_supports"],
    "eval": ["supports.satisfies", "supports.signed_satisfies",
             "supports.is_positive_support"],
    "relevance": ["relevance.relevance_report", "relevance.impact_relevant"],
    "game": ["shapley.make_game"],
    "target": ["shapley.ms_shapley", "shapley.shapley_subset",
               "shapley.shapley_permutation"],
}


def _units(group: str) -> Callable[[Any], int]:
    """What a call's result adds to its function's unit count."""
    if group in ("completion", "enum"):
        return len  # signed facts materialised, supports returned
    if group == "eval":
        return lambda result: int(bool(result))  # evaluations that held
    return lambda result: 0


class Tracer:
    """Aggregated spans per wrapped function: calls, self time, units."""

    def __init__(self) -> None:
        self._stack: list[float] = []  # time spent in wrapped callees, per open span
        self._bindings: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.units: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn: Callable, units: Callable[[Any], int]) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += span
                self.calls[name] += 1
                self.self_s[name] += span - inner
            self.units[name] += units(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in `GROUPS` wherever a module names it."""
        importlib.import_module("negshapley.cli")  # loads every layer
        modules = [m for name, m in list(sys.modules.items())
                   if name == "negshapley" or name.startswith("negshapley.")]
        for group, names in GROUPS.items():
            for name in names:
                module_name, attr = name.split(".")
                original = getattr(sys.modules[f"negshapley.{module_name}"], attr)
                wrapper = self._wrap(name, original, _units(group))
                for module in modules:
                    for held, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, held, original))
                            setattr(module, held, wrapper)

    def uninstall(self) -> None:
        for module, held, original in reversed(self._bindings):
            setattr(module, held, original)
        self._bindings.clear()

    def _sum(self, table, group: str):
        return sum(table[name] for name in GROUPS[group])

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced since `reset`."""
        s = lambda group: self._sum(self.self_s, group)
        calls = lambda group: self._sum(self.calls, group)
        units = lambda group: self._sum(self.units, group)
        return {
            "cli.self_s": s("cli"),
            "core.load_s": s("load"),
            "core.completion_s": s("completion"),
            "core.completion_calls": calls("completion"),
            "core.completion_facts": units("completion"),
            "query.parse_s": s("parse"),
            "query.self_s": s("query"),
            "supports.enum_s": s("enum"),
            "supports.enum_calls": calls("enum"),
            "supports.minimal_supports": units("enum"),
            "supports.eval_calls": calls("eval"),
            "supports.eval_s": s("eval"),
            "supports.eval_true_ratio": units("eval") / max(calls("eval"), 1),
            "relevance.self_s": s("relevance"),
            "relevance.impact_calls": self.calls["relevance.impact_relevant"],
            "shapley.self_s": s("game") + s("target"),
            "shapley.game_builds": calls("game"),
            "shapley.targets": calls("target"),
        }


# Metrics that count work; they must repeat exactly for one seed.
COUNTS = tuple(
    name for name in Tracer().metrics()
    if name.endswith(("_calls", "_facts", "_supports", "_builds", "targets"))
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"
