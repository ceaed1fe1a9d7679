"""Command-line front end.

Subcommands: ``classify``, ``cost``, ``optimize``, ``box-run``,
``cycle {rle-le, build, uncertain, partial}`` and ``qbound``.  Every run
writes ``manifest.json`` (config, input hashes, seed, versions) into the
output directory before any other file; identical configs and seeds
produce byte-identical outputs.  Input is parsed and the computation run
before anything is written, so a run that exits 2 or 3 writes nothing.
Energies are reported in units of ``k T_R`` unless ``--si`` is given.

Exit codes: 0 ok, 2 unparseable input, 3 validation failure, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boxprotocol import ProtocolAbortError, reconcile, run_protocol
from .costs import (
    DEFAULT_SEED,
    expected_cost,
    glp_bounds,
    is_infinite,
    make_weights,
    minimize_expected_work,
    optimal_weights,
)
from .cycles import (
    build_reversible_cycle,
    evaluate_cycle,
    partial_operation_cost,
    rle_le_cycle,
    uncertain_operation_cost,
)
from .logic import classify as classify_op
from .logic import LogicError, shannon_entropy
from .quantum import QuantumError, default_setup, run_trials
from .serialize import (
    ScenarioParseError,
    cost_report_dict,
    energy_value,
    format_float,
    load_partial_config,
    load_qbound_config,
    load_scenario,
    load_uncertain_config,
    parse_floats,
    render_energy,
    write_cost_csv,
    write_json,
    write_ledger_csv,
    write_manifest,
    write_trials_csv,
    write_widths_tsv,
)
from .thermo import ThermoError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")
    parser.add_argument(
        "--si",
        action="store_true",
        help="report energies in scenario units instead of multiples of kT_R",
    )


def _divisor(scenario, args) -> tuple[float, str]:
    if args.si:
        return 1.0, "scenario"
    return scenario.kT, "kT_R"


def _parse_weights(text, scenario):
    if text is None:
        return optimal_weights(scenario)
    return make_weights(scenario, parse_floats(text))


def _config_of(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _output_dir(args, command: str, input_paths) -> Path:
    """Write the run's manifest, its first output file, and return ``--out``.

    Called once the computation has succeeded, so a run that exits on bad
    input (code 2 or 3) writes nothing.
    """
    outdir = Path(args.out)
    write_manifest(outdir, command, _config_of(args), input_paths, args.seed)
    return outdir


def cmd_classify(args) -> int:
    scenario = load_scenario(args.scenario)
    kind = classify_op(scenario.op)
    payload = {
        "deterministic": kind.deterministic,
        "reversible": kind.reversible,
        "input_entropy_bits": shannon_entropy(scenario.input_dist),
        "output_entropy_bits": shannon_entropy(scenario.output_dist),
    }
    outdir = _output_dir(args, "classify", [args.scenario])
    print(write_json(outdir / "classify.json", payload), end="")
    return EXIT_OK


def cmd_cost(args) -> int:
    scenario = load_scenario(args.scenario)
    weights = _parse_weights(args.weights, scenario)
    report = expected_cost(scenario, weights)
    divisor, unit = _divisor(scenario, args)
    outdir = _output_dir(args, "cost", [args.scenario])
    if args.format in ("csv", "both"):
        write_cost_csv(report, scenario, outdir / "report.csv", divisor)
    if args.format in ("json", "both"):
        write_json(outdir / "report.json", cost_report_dict(report, scenario, divisor, unit))
    print(f"work_bound = {report.work_bound / divisor:.6f} {unit}")
    print(f"heat_bound = {report.heat_bound / divisor:.6f} {unit}")
    print(f"expected_work = {render_energy(report.expected_work, divisor)} {unit}")
    print(f"expected_heat = {render_energy(report.expected_heat, divisor)} {unit}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    analytic = optimal_weights(scenario)
    numeric = minimize_expected_work(scenario, seed=args.seed)
    analytic_value = expected_cost(scenario, analytic).expected_work
    divisor, unit = _divisor(scenario, args)
    payload = {
        "energy_unit": unit,
        "analytic_weights": [float(v) for v in analytic.weights],
        "analytic_value": None if is_infinite(analytic_value) else analytic_value / divisor,
        "numeric_weights": [float(v) for v in numeric.weights],
        "numeric_value": numeric.value / divisor,
        "numeric_converged": numeric.converged,
        "weight_independent": analytic.weight_independent,
        "glp_work_bound": glp_bounds(scenario).work_bound / divisor,
    }
    outdir = _output_dir(args, "optimize", [args.scenario])
    print(write_json(outdir / "optimize.json", payload), end="")
    return EXIT_OK


def cmd_box_run(args) -> int:
    scenario = load_scenario(args.scenario)
    weights = _parse_weights(args.weights, scenario)
    ledger = run_protocol(scenario, weights)
    check = reconcile(ledger, scenario, weights)
    divisor, unit = _divisor(scenario, args)
    outdir = _output_dir(args, "box-run", [args.scenario])
    write_ledger_csv(ledger, scenario, outdir / "ledger.csv", divisor)
    write_widths_tsv(ledger, scenario, outdir / "widths.tsv")
    for warning in ledger.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for (i, j), (work, heat) in sorted(ledger.trajectory_totals().items()):
        label = f"{scenario.op.input_labels[i]}->{scenario.op.output_labels[j]}"
        print(
            f"trajectory {label}: work = {work / divisor:.6f} {unit}, "
            f"heat = {heat / divisor:.6f} {unit}"
        )
    print(f"reconciled = {str(check.ok).lower()}")
    if not check.ok:
        for message in check.messages:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_cycle_rle_le(args) -> int:
    report = rle_le_cycle(
        args.p, args.p_prime, model=args.model, temperature=args.temperature
    )
    divisor = 1.0 if args.si else args.temperature
    unit = "scenario" if args.si else "kT"
    payload = {
        "model": report.model,
        "p": report.p,
        "p_prime": report.p_prime,
        "energy_unit": unit,
        "stages": [
            {
                "name": s.name,
                "kind": s.kind,
                "work": s.work / divisor,
                "heat": s.heat / divisor,
                "mean_state_entropy_change_k": s.mean_state_entropy_change,
                "mixing_entropy_change_k": s.mixing_entropy_change,
                "bath_entropy_change_k": s.bath_entropy_change,
            }
            for s in report.stages
        ],
        "net_work": report.net_work / divisor,
        "net_heat": report.net_heat / divisor,
        "kl_nats": report.kl_nats,
        "reversible": report.reversible,
        "entropy_totals_k": report.entropy_totals,
    }
    write_json(_output_dir(args, "cycle rle-le", []) / "cycle.json", payload)
    print(f"net_work = {report.net_work / divisor:.6f} {unit}")
    print(f"kl = {report.kl_nats:.6f} nats")
    print(f"reversible = {str(report.reversible).lower()}")
    return EXIT_OK


def cmd_cycle_build(args) -> int:
    scenario = load_scenario(args.scenario)
    weights = _parse_weights(args.weights, scenario)
    spec = build_reversible_cycle(
        scenario.op,
        weights.weights,
        scenario.input_thermo,
        scenario.output_thermo,
        scenario.reference_temperature,
        scenario.units,
    )
    middle = parse_floats(args.middle_input) if args.middle_input else None
    evaluation = evaluate_cycle(spec, middle_input=middle)
    divisor, unit = _divisor(scenario, args)
    payload = {
        "energy_unit": unit,
        "leg_works": [energy_value(c.expected_work, divisor) for c in evaluation.leg_costs],
        "total_work": energy_value(evaluation.total_work, divisor),
        "total_heat": energy_value(evaluation.total_heat, divisor),
    }
    write_json(_output_dir(args, "cycle build", [args.scenario]) / "cycle.json", payload)
    print(f"total_work = {payload['total_work']}")
    return EXIT_OK


def cmd_cycle_uncertain(args) -> int:
    report = uncertain_operation_cost(**load_uncertain_config(args.config))
    payload = dataclasses.asdict(report)
    payload["mutual_information_bits"] = report.mutual_information_nats / np.log(2.0)
    write_json(_output_dir(args, "cycle uncertain", [args.config]) / "uncertain.json", payload)
    print(f"excess = {report.excess!r}")
    return EXIT_OK


def cmd_cycle_partial(args) -> int:
    report = partial_operation_cost(**load_partial_config(args.config))
    payload = dataclasses.asdict(report)
    payload["conditional_mutual_information_bits"] = (
        report.conditional_mutual_information_nats / np.log(2.0)
    )
    write_json(_output_dir(args, "cycle partial", [args.config]) / "partial.json", payload)
    print(f"excess = {report.excess!r}")
    return EXIT_OK


def cmd_qbound(args) -> int:
    config = load_qbound_config(args.config) if args.config else {}
    if "system_blocks" not in config:
        config["system_blocks"] = tuple(int(v) for v in args.blocks.split(","))
    setup = default_setup(
        system_block_sizes=config["system_blocks"],
        env_dim=config.get("env_dim", args.env_dim),
        reference_temperature=config.get("reference_temperature", args.t_ref),
        input_probs=config.get("input_probs"),
        target_output_probs=config.get("target_output_probs"),
    )
    trials = config.get("trials", args.trials)
    batch = run_trials(setup, trials, config.get("seed", args.seed))
    outdir = _output_dir(args, "qbound", [args.config] if args.config else [])
    write_trials_csv(batch, outdir / "trials.csv")
    print(f"trials = {trials}")
    print(f"violations: {batch.total_violations}")
    print(f"bound_violations = {batch.bound_violations}")
    print(f"subadditivity_violations = {batch.subadditivity_violations}")
    print(f"relative_entropy_violations = {batch.relative_entropy_violations}")
    print(f"respecting_trials = {batch.respecting_trials}")
    worst = min((r.slack for r in batch.results), default=0.0)
    print(f"min_slack = {format_float(worst)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermologic",
        description="Work, heat and entropy accounting for stochastic logical operations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def command(subparsers, name: str, func, help_text: str, *positional: str):
        p = subparsers.add_parser(name, help=help_text)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(func=func)
        commands.append(p)
        return p

    weights_help = "comma-separated weights (default: optimal)"
    command(sub, "classify", cmd_classify, "classify an operation and report entropies", "scenario")
    p = command(sub, "cost", cmd_cost, "per-transition and expected work/heat with bounds", "scenario")
    p.add_argument("--weights", help=weights_help)
    command(sub, "optimize", cmd_optimize, "numeric weight optimisation cross-check", "scenario")
    p = command(sub, "box-run", cmd_box_run, "run the staged box implementation", "scenario")
    p.add_argument("--weights", help=weights_help)

    cycle = sub.add_parser("cycle", help="thermodynamic cycle analyses")
    cycle_sub = cycle.add_subparsers(dest="cycle_command", required=True)
    p = command(cycle_sub, "rle-le", cmd_cycle_rle_le, "unset-then-reset box cycle")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--p-prime", type=float, default=None)
    p.add_argument("--model", choices=("uniform", "adiabatic_equilibrium"), default="uniform")
    p.add_argument("--temperature", type=float, default=1.0)
    p = command(cycle_sub, "build", cmd_cycle_build, "embed an operation in a closed cycle",
                "scenario")
    p.add_argument("--weights", help=weights_help)
    p.add_argument("--middle-input", help="actual middle-stage input distribution")
    command(cycle_sub, "uncertain", cmd_cycle_uncertain, "uncertain-operation cycle excess",
            "config")
    command(cycle_sub, "partial", cmd_cycle_partial, "partial-operation cycle excess", "config")

    p = command(sub, "qbound", cmd_qbound, "random-unitary sweep of the work bound")
    p.add_argument("--config", help="JSON trial configuration")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--blocks", default="2,2", help="system block sizes (default 2,2)")
    p.add_argument("--env-dim", type=int, default=8)
    p.add_argument("--t-ref", type=float, default=1.0)

    for p in commands:  # last, so they follow each subcommand's own options in --help
        _common_flags(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioParseError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (LogicError, ThermoError, QuantumError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ProtocolAbortError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
