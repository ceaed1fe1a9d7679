"""Per-layer metrics of a traced run, computed from the tracer's totals.

Every figure is per round (one pass over the workload's fixed list of
operations): counts are exact, times are averaged over the traced rounds.
A layer the workload does not run reads 0.
"""

from __future__ import annotations

import math
import statistics

from workloads.cli import SUBCOMMANDS

BUSY = (
    "logic.construct", "logic.classify", "logic.propagate", "logic.bayes_invert",
    "thermo.scenario", "thermo.make_model",
    "costs.expected_cost", "costs.glp_bounds",
    "costs.minimize_expected_work", "costs.minimax_weights",
    "boxprotocol.run_protocol", "boxprotocol.reconcile", "boxprotocol.trajectory_totals",
    "cycles.entropy_ledgers", "cycles.uncertain_operation_cost", "cycles.partial_operation_cost",
    "quantum.run_trials", "quantum.haar_unitary",
    "serialize.load_scenario",
)
SELF = (
    "costs.expected_cost", "boxprotocol.reconcile",
    "cycles.entropy_ledgers", "cycles.reverse_operation", "cycles.evaluate_cycle",
    "quantum.verify_bound",
)
CALLS = (
    "costs.expected_cost", "costs.transition_cost",
    "boxprotocol.run_protocol", "boxprotocol.trajectory_totals",
    "quantum.verify_bound",
)
COUNTERS = {
    "costs.minimize_expected_work.iterations": "count",
    "boxprotocol.ledger_rows": "rows",
    "boxprotocol.rows_scanned": "rows",
    "serialize.bytes_written": "bytes",
}
PER_TRANSITION = ("costs.transition_cost",)
PER_TRIAL = ("quantum.gibbs_state", "quantum.block_mixture")
SLOPES = ("costs.expected_cost", "boxprotocol.reconcile", "cycles.entropy_ledgers")

# Sizes below this many realisable transitions are dominated by fixed
# per-call costs, so they are left out of the log-log slope fit.
SLOPE_MIN_TRANSITIONS = 64


def definitions() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order; all are better lower."""
    out = [(f"{n}.busy_s", "s") for n in BUSY] + [("serialize.write.busy_s", "s")]
    out += [(f"{n}.self_s", "s") for n in SELF]
    out += [(f"{n}.calls", "count") for n in CALLS]
    out += list(COUNTERS.items())
    out += [(f"{n}.calls_per_transition", "calls/transition") for n in PER_TRANSITION]
    out += [(f"{n}.calls_per_trial", "calls/trial") for n in PER_TRIAL]
    out += [(f"{n}.slope", "log/log") for n in SLOPES]
    out += [("cli.python_start_s", "s"), ("cli.import_s", "s")]
    out += [(f"cli.{sub}.wall_ms", "ms") for sub in SUBCOMMANDS]
    out += [("trace.overhead_s", "s")]
    return out


def slope(samples) -> float:
    """Least-squares slope of log(time) on log(transitions), over per-size medians."""
    by_size: dict[int, list[float]] = {}
    for size, seconds in samples:
        if size >= SLOPE_MIN_TRANSITIONS:
            by_size.setdefault(size, []).append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    return statistics.linear_regression(xs, ys).slope


def compute(tracer, rounds: int, ops, cli_walls: dict, cli_probe: dict, overhead_s: float) -> dict:
    """Metric name -> value; ``ops`` is one round's operations."""
    stats, counters = tracer.stats, tracer.counters

    def per_round(total):
        return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds

    def get(name, column):
        return stats[name][column] if name in stats else 0

    transitions = sum(op.transitions for op in ops)
    trials = sum(op.trials for op in ops)
    values = {}
    for n in BUSY:
        values[f"{n}.busy_s"] = per_round(get(n, 1))
    writers = [n for n in stats if n.startswith("serialize.write_")]
    values["serialize.write.busy_s"] = per_round(sum(get(n, 1) for n in writers))
    for n in SELF:
        values[f"{n}.self_s"] = per_round(get(n, 2))
    for n in CALLS:
        values[f"{n}.calls"] = per_round(get(n, 0))
    for n in COUNTERS:
        values[n] = per_round(counters.get(n, 0))
    for n in PER_TRANSITION:
        values[f"{n}.calls_per_transition"] = per_round(get(n, 0)) / transitions if transitions else 0.0
    for n in PER_TRIAL:
        values[f"{n}.calls_per_trial"] = per_round(get(n, 0)) / trials if trials else 0.0
    for n in SLOPES:
        values[f"{n}.slope"] = slope(tracer.samples.get(n, ()))
    values["cli.python_start_s"] = cli_probe.get("python_start_s", 0.0)
    values["cli.import_s"] = cli_probe.get("import_s", 0.0)
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.wall_ms"] = cli_walls.get(sub, 0.0)
    values["trace.overhead_s"] = overhead_s
    return values
