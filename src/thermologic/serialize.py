"""Scenario JSON parsing and report emission (CSV, TSV, JSON, manifests).

Scenario files look like:

    {
      "units": "natural",                       // or "si", or {"k_B":..,"hbar":..,"mass":..}
      "reference_temperature": 1.0,
      "baths": [{"temperature": 1.0}],
      "input": {"labels": ["0","1"], "probs": [0.5, 0.5],
                "thermo": [{"E": 0.5, "S": 0.0, "T": 1.0}, ...]},
      "operation": {"inputs": ["0","1"], "outputs": ["0"], "rows": [[1.0],[1.0]]},
      "output": {"labels": ["0"], "thermo": [{"E": 0.5, "S": 0.0, "T": 1.0}]},
      "model": {"kind": "uniform", ...}          // optional; overrides thermo tables
    }

With a ``model`` entry the per-state thermo tables are derived from the
named assumption set and may be omitted.  All heat goes to the one
reference bath, so each optional ``baths`` entry must have ``temperature``
equal to ``reference_temperature``; any other temperature is rejected
rather than ignored.  Heat deposited in several baths is combined into one
effective bath with :func:`thermologic.thermo.aggregate_baths`.  Floats are
emitted with ``repr`` so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .boxprotocol import ProtocolLedger
from .costs import CostReport, is_infinite
from .logic import DiscreteDistribution, LogicalOperation
from .thermo import (
    ModelSkeleton,
    NATURAL_UNITS,
    SI_UNITS,
    Scenario,
    StateThermo,
    ThermoError,
    UnitSystem,
    make_model,
)

__all__ = [
    "ScenarioParseError",
    "parse_operation",
    "parse_scenario",
    "load_json",
    "load_scenario",
    "format_float",
    "render_energy",
    "cost_report_rows",
    "write_cost_csv",
    "cost_report_dict",
    "write_cost_json",
    "write_ledger_csv",
    "write_widths_tsv",
    "write_trials_csv",
    "write_manifest",
]


class ScenarioParseError(ValueError):
    pass


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{context} must be an object")
    return value


def _need(mapping: dict, key: str, context: str):
    if key not in _object(mapping, context):
        raise ScenarioParseError(f"missing {key!r} in {context}")
    return mapping[key]


def parse_operation(data) -> LogicalOperation:
    inputs = _need(data, "inputs", "operation")
    outputs = _need(data, "outputs", "operation")
    rows = _need(data, "rows", "operation")
    return LogicalOperation(
        rows,
        input_labels=tuple(str(s) for s in inputs),
        output_labels=tuple(str(s) for s in outputs),
    )


def _parse_units(data) -> UnitSystem:
    if data is None or data == "natural":
        return NATURAL_UNITS
    if data == "si":
        return SI_UNITS
    if isinstance(data, dict):
        return UnitSystem(
            k_B=float(data.get("k_B", 1.0)),
            hbar=float(data.get("hbar", 1.0)),
            mass=float(data.get("mass", 1.0)),
        )
    raise ScenarioParseError(f"unrecognised units {data!r}")


def _parse_thermo(entries, count: int, context: str) -> tuple[StateThermo, ...]:
    if not isinstance(entries, list) or len(entries) != count:
        raise ScenarioParseError(f"{context} thermo table must list {count} states")
    out = []
    where = f"{context} thermo entry"
    for entry in entries:
        out.append(
            StateThermo(
                energy=float(_need(entry, "E", where)),
                entropy=float(_need(entry, "S", where)),
                temperature=float(_need(entry, "T", where)),
            )
        )
    return tuple(out)


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    units = _parse_units(data.get("units"))
    t_ref = float(_need(data, "reference_temperature", "scenario"))
    op = parse_operation(_need(data, "operation", "scenario"))
    input_block = _need(data, "input", "scenario")
    probs = _need(input_block, "probs", "input")
    labels = input_block.get("labels")
    if labels is not None and tuple(str(s) for s in labels) != op.input_labels:
        raise ScenarioParseError("input labels disagree with operation inputs")
    dist = DiscreteDistribution(probs)
    output_block = _object(data.get("output", {}), "output")
    out_labels = output_block.get("labels")
    if out_labels is not None and tuple(str(s) for s in out_labels) != op.output_labels:
        raise ScenarioParseError("output labels disagree with operation outputs")
    for bath in data.get("baths", []):
        temperature = float(_need(bath, "temperature", "bath"))
        if temperature != t_ref:
            raise ThermoError(
                f"bath temperature {temperature!r} differs from reference_temperature "
                f"{t_ref!r}; only the reference bath is modelled (see aggregate_baths)"
            )

    model = data.get("model")
    if model is not None:
        if isinstance(model, str):
            model = {"kind": model}
        kind = _need(model, "kind", "model")
        skeleton = ModelSkeleton(
            input_dist=dist,
            op=op,
            reference_temperature=t_ref,
            units=units,
            energy_offset=model.get("E_R"),
            entropy_offset=float(model.get("S_R", 0.0)),
            equilibrium_constant=model.get("C_A"),
            adiabatic_constant=model.get("C_B", model.get("C_C")),
            state_energy=model.get("E_x"),
            input_temperatures=tuple(model["input_temperatures"])
            if "input_temperatures" in model
            else None,
            output_temperatures=tuple(model["output_temperatures"])
            if "output_temperatures" in model
            else None,
        )
        return make_model(kind, skeleton)

    input_thermo = _parse_thermo(_need(input_block, "thermo", "input"), op.n_inputs, "input")
    output_thermo = _parse_thermo(
        _need(output_block, "thermo", "output"), op.n_outputs, "output"
    )
    return Scenario(
        input_dist=dist,
        op=op,
        input_thermo=input_thermo,
        output_thermo=output_thermo,
        reference_temperature=t_ref,
        units=units,
    )


def load_json(path):
    """Parse a JSON input file, rejecting ``NaN`` and ``Infinity`` tokens.

    Python's ``json`` accepts those tokens, and no computation here can
    use the values they stand for.
    """

    def reject(token):
        raise ScenarioParseError(f"non-finite number {token} in {path}")

    text = Path(path).read_text()
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(load_json(path))


def format_float(value: float) -> str:
    return repr(float(value))


def render_energy(value, divisor: float) -> str:
    """Energy cell: sentinel-aware, divided into the report unit."""
    if is_infinite(value):
        return "INF"
    return format_float(value / divisor)


def _energy_value(value, divisor: float):
    return "INF" if is_infinite(value) else value / divisor


def cost_report_rows(report: CostReport, scenario: Scenario, divisor: float):
    rows = [("input", "output", "joint_probability", "work", "heat")]
    for tr in report.transitions or ():
        rows.append(
            (
                scenario.op.input_labels[tr.input_index],
                scenario.op.output_labels[tr.output_index],
                format_float(tr.joint_probability),
                render_energy(tr.work, divisor),
                render_energy(tr.heat, divisor),
            )
        )
    rows.append(
        (
            "<expected>",
            "",
            format_float(1.0),
            render_energy(report.expected_work, divisor),
            render_energy(report.expected_heat, divisor),
        )
    )
    return rows


def write_cost_csv(report: CostReport, scenario: Scenario, path, divisor: float):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(cost_report_rows(report, scenario, divisor))


def cost_report_dict(report: CostReport, scenario: Scenario, divisor: float, unit: str) -> dict:
    return {
        "energy_unit": unit,
        "expected_work": _energy_value(report.expected_work, divisor),
        "expected_heat": _energy_value(report.expected_heat, divisor),
        "mean_energy_change": report.mean_energy_change / divisor,
        "entropy_change_k": report.entropy_change,
        "state_entropy_change_k": report.state_entropy_change,
        "shannon_change_bits": report.shannon_change_bits,
        "work_bound": report.work_bound / divisor,
        "heat_bound": report.heat_bound / divisor,
        "bath_entropy_bound_k": report.bath_entropy_bound,
        "nibdf_bound_k": report.nibdf_bound,
        "transitions": [
            {
                "input": scenario.op.input_labels[tr.input_index],
                "output": scenario.op.output_labels[tr.output_index],
                "joint_probability": tr.joint_probability,
                "work": _energy_value(tr.work, divisor),
                "heat": _energy_value(tr.heat, divisor),
            }
            for tr in (report.transitions or ())
        ],
    }


def write_cost_json(report: CostReport, scenario: Scenario, path, divisor: float, unit: str):
    Path(path).write_text(
        json.dumps(cost_report_dict(report, scenario, divisor, unit), indent=2, sort_keys=True)
        + "\n"
    )


def _branch_label(scenario: Scenario, input_index, output_index) -> str:
    if input_index is not None and output_index is not None:
        return (
            scenario.op.input_labels[input_index]
            + "->"
            + scenario.op.output_labels[output_index]
        )
    if input_index is not None:
        return scenario.op.input_labels[input_index]
    return "->" + scenario.op.output_labels[output_index]


def write_ledger_csv(ledger: ProtocolLedger, scenario: Scenario, path, divisor: float):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("step", "branch", "width", "energy", "entropy_k", "work", "heat", "temperature")
        )
        for row in ledger.rows:
            writer.writerow(
                (
                    row.step,
                    _branch_label(scenario, row.input_index, row.output_index),
                    format_float(row.width),
                    format_float(row.energy / divisor),
                    format_float(row.entropy),
                    format_float(row.work / divisor),
                    format_float(row.heat / divisor),
                    format_float(row.temperature),
                )
            )


def write_widths_tsv(ledger: ProtocolLedger, scenario: Scenario, path):
    lines = ["step\tbranch\twidth"]
    for step, layout in ledger.layouts:
        for part in layout.partitions:
            label = _branch_label(scenario, part.input_index, part.output_index)
            lines.append(f"{step}\t{label}\t{format_float(part.width)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trials_csv(batch, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            (
                "trial",
                "work",
                "bound",
                "slack",
                "subadditivity_slack",
                "relative_entropy",
                "respects_operation",
            )
        )
        for r in batch.results:
            writer.writerow(
                (
                    r.index,
                    format_float(r.work),
                    format_float(r.bound),
                    format_float(r.slack),
                    format_float(r.subadditivity_slack),
                    format_float(r.environment_relative_entropy),
                    "" if r.respects_operation is None else str(r.respects_operation).lower(),
                )
            )


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir, command: str, config: dict, input_paths, seed) -> Path:
    """Record what produced a run's outputs; written before any output file.

    The command line writes it only once its computation has succeeded, so
    a run rejected for its input leaves no files behind.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in input_paths},
        "seed": seed,
        "versions": {
            "thermologic": __version__,
            "numpy": np.__version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
        },
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
