"""Span tracing for the qpq layers, installed from outside the package.

`Tracer.plan` wraps every public function of the layer modules and the
strategy methods (`rounds`, `respond`, `key_bits`) of the strategy classes;
`install` and `uninstall` swap the wrappers in and out. A function wrapper
is patched into every loaded module namespace that binds the original
object, so `run_protocol` is traced whether it is reached
through `qpq.experiments`, `qpq.adversaries`, `qpq.cli` or the package
itself. Strategy methods are patched on their class.

Each span records its name, start, end, parent span, the op it belongs to
and a few attributes. Spans stay in memory until `write` is called. A small
set of hooks counts work at the same boundaries (qubits prepared and
detected, conclusive rounds, restarts, dense matrix bytes).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("quantum", "protocol", "adversaries", "experiments", "stats", "cli")
STRATEGY_METHODS = ("rounds", "respond", "key_bits")


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    """Argument `name` of a call, given at position `pos` or by keyword."""
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent_index, op, attrs].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._hooks = {
            "protocol.run_protocol": self._hook_run_protocol,
            "quantum.parity_mixtures": self._hook_parity_mixtures,
            "quantum.fidelity": self._hook_dim,
            "quantum.helstrom_guess": self._hook_dim,
            "adversaries.biased_round_trials": self._hook_round_battery,
            "adversaries.entangled_round_trials": self._hook_round_battery,
            "adversaries.helstrom_measurement_trials": self._hook_round_battery,
            "experiments.monte_carlo": self._hook_monte_carlo,
        }

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def plan(self) -> None:
        """Build the wrappers and find every binding to patch.

        Run after every module that should see the wrappers is imported;
        `install` and `uninstall` then only swap attributes.
        """
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"qpq.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth in STRATEGY_METHODS:
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            wrapper = self._wrap(f"{layer}.{name}.{meth}", fn)
                            self._patches.append((obj, meth, fn, wrapper))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        if hook is None and name.endswith(STRATEGY_METHODS):
            hook = self._hook_strategy
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(idx, args, kwargs, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result, None)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # counting hooks
    # ------------------------------------------------------------------

    def _has_ancestor(self, idx: int, suffix: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0].endswith(suffix):
                return True
            parent = self.spans[parent][3]
        return False

    def _hook_run_protocol(self, idx, args, kwargs, result, exc):
        if result is not None:
            self.counters["protocol.restarts"] += result.restarts
        elif type(exc).__name__ == "RestartLimitExceeded":
            self.counters["protocol.restart_limit_exceeded"] += 1
            self.counters["protocol.restarts"] += exc.attempts - 1

    def _hook_strategy(self, idx, args, kwargs, result, exc):
        name = self.spans[idx][0]
        method = name.rsplit(".", 1)[1]
        if result is None or self._has_ancestor(idx, "." + method):
            return
        if method == "rounds":
            self.counters["protocol.qubits_prepared"] += int(_arg(args, kwargs, 1, "count"))
        elif method == "respond":
            self.counters["protocol.attempts"] += 1
            self.counters["protocol.qubits_detected"] += int(_arg(args, kwargs, 2, "kept").size)
            self.counters["protocol.conclusive"] += int(result.conclusive.sum())

    def _hook_parity_mixtures(self, idx, args, kwargs, result, exc):
        k = int(_arg(args, kwargs, 0, "k"))
        self.spans[idx][5] = {"k": k}
        if result is not None:
            self.counters["quantum.dense_bytes"] += 2 * 4 ** k * 8

    def _hook_dim(self, idx, args, kwargs, result, exc):
        self.spans[idx][5] = {"dim": int(_arg(args, kwargs, 0, "a").dim)}

    def _hook_round_battery(self, idx, args, kwargs, result, exc):
        self.counters["adversaries.rounds_simulated"] += int(_arg(args, kwargs, 1, "trials"))

    def _hook_monte_carlo(self, idx, args, kwargs, result, exc):
        trials = _arg(args, kwargs, 3, "trials", 2000)
        self.counters["experiments.monte_carlo.trials"] += int(trials)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [span[2] - span[1] - covered_ns(span[1], span[2], children.get(i, []))
            for i, span in enumerate(spans)]


def busy_ns(spans: list[list], match) -> int:
    """Summed duration of matching spans that have no matching ancestor."""
    total = 0
    for span in spans:
        if not match(span[0]):
            continue
        parent = span[3]
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total
