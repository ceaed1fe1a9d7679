"""Layer spans recorded around thermologic's public functions.

:func:`install` replaces every public function of the package (the
functions each module lists in ``__all__``) with a timing wrapper, in
every module namespace that holds it, so calls between modules such as
``reconcile -> run_protocol -> expected_cost -> transition_cost`` are
seen as nested spans.  A few methods and dataclass validators are
wrapped on their classes.  Nothing under ``src/`` is edited; the
original functions are put back by the returned ``restore`` callable.

Spans are folded into per-name totals as they close, because the closed
forms make hundreds of thousands of calls per round and a raw span list
would outgrow the work it describes.  Per name the tracer keeps the call
count, the busy time (outermost spans only, so recursion is not counted
twice) and the self time (span time minus the time of child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

MODULES = ("logic", "thermo", "costs", "boxprotocol", "cycles", "quantum", "serialize", "cli")

# Functions whose time is also recorded against the number of realisable
# transitions of the scenario they price, for the log-log slopes.
SIZED = {
    "costs.expected_cost": 0,
    "cycles.entropy_ledgers": 0,
    "boxprotocol.reconcile": 1,
}


def realisable_transitions(scenario) -> int:
    return int((scenario.op.matrix > 0.0).sum())


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, busy_s, self_s]
        self.counters = Counter()
        self.samples = defaultdict(list)  # name -> [(transitions, seconds)]
        self._stack: list[float] = []  # time covered by children of each open span
        self._depth = Counter()

    def wrap(self, name, fn, after=None):
        stats = self.stats[name]
        sized = SIZED.get(name)
        stack = self._stack
        depth = self._depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - children
                if depth[name] == 0:
                    stats[1] += elapsed
            if sized is not None:
                self.samples[name].append((realisable_transitions(args[sized]), elapsed))
            if after is not None:
                after(self.counters, args, result)
            return result

        return traced

    def merge(self, exported: dict):
        """Add the totals of another tracer (a traced CLI child) to this one."""
        for name, (calls, busy, self_s) in exported["stats"].items():
            entry = self.stats[name]
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
        self.counters.update(exported["counters"])
        for name, pairs in exported["samples"].items():
            self.samples[name].extend(tuple(p) for p in pairs)

    def export(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "samples": {k: v for k, v in sorted(self.samples.items())},
        }


def _count_branch_scan(counters, args, result):
    counters["boxprotocol.rows_scanned"] += len(args[0].rows)


def _count_ledger_rows(counters, args, result):
    counters["boxprotocol.ledger_rows"] += len(result.rows)


def _count_iterations(counters, args, result):
    counters["costs.minimize_expected_work.iterations"] += result.iterations


def _count_report_bytes(counters, args, result):
    # Every write_* writer takes exactly one path argument: the file it writes.
    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    counters["serialize.bytes_written"] += os.path.getsize(path)


def _count_manifest_bytes(counters, args, result):
    counters["serialize.bytes_written"] += os.path.getsize(result)


AFTER = {
    "boxprotocol.branch_rows": _count_branch_scan,
    "boxprotocol.run_protocol": _count_ledger_rows,
    "costs.minimize_expected_work": _count_iterations,
    "serialize.write_manifest": _count_manifest_bytes,
}


def install(tracer: Tracer):
    """Wrap the package's public functions; returns a callable that undoes it."""
    package = importlib.import_module("thermologic")
    modules = {short: importlib.import_module(f"thermologic.{short}") for short in MODULES}
    namespaces = [package.__dict__] + [m.__dict__ for m in modules.values()]
    undo = []

    for short, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = module.__dict__.get(attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            after = AFTER.get(name)
            if after is None and name.startswith("serialize.write_"):
                after = _count_report_bytes
            traced = tracer.wrap(name, fn, after)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = traced
                        undo.append((ns.__setitem__, key, fn))

    logic, thermo = modules["logic"], modules["thermo"]
    box, quantum = modules["boxprotocol"], modules["quantum"]
    methods = [
        (logic.DiscreteDistribution, "__post_init__", "logic.construct"),
        (logic.LogicalOperation, "__post_init__", "logic.construct"),
        (logic.JointDistribution, "__post_init__", "logic.construct"),
        (thermo.StateThermo, "__post_init__", "thermo.scenario"),
        (thermo.Scenario, "__post_init__", "thermo.scenario"),
        (quantum.DensityMatrix, "__post_init__", "quantum.density_matrix"),
    ] + [
        (box.ProtocolLedger, attr, f"boxprotocol.{attr}")
        for attr in ("branch_rows", "branch_total", "trajectory_totals", "expected_totals")
    ]
    for cls, attr, name in methods:
        fn = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, fn, AFTER.get(name)))
        undo.append((functools.partial(setattr, cls), attr, fn))

    def restore():
        for setter, key, original in reversed(undo):
            setter(key, original)

    return restore
