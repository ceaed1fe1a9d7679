"""Every input and output format of the package.

This is the one module that reads or writes a file: the scenario JSON,
the ``cycle uncertain``, ``cycle partial`` and ``qbound`` configs, the
CSV, TSV and JSON reports, and the run manifest.  Scenario files look
like:

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
effective bath with :func:`thermologic.thermo.aggregate_baths`.

Every reader checks each value's JSON kind (a number is an int or float,
never a bool; vectors and matrices are lists of numbers; labels are
strings or numbers) and raises :class:`ScenarioParseError` on the wrong
kind or on a key it does not read, at the top level or in any nested
object, leaving finite and range checks to the constructors.  Floats are
emitted with ``repr`` so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
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
    "parse_floats",
    "parse_operation",
    "parse_scenario",
    "load_json",
    "load_scenario",
    "load_uncertain_config",
    "load_partial_config",
    "load_qbound_config",
    "format_float",
    "render_energy",
    "energy_value",
    "cost_report_rows",
    "write_cost_csv",
    "cost_report_dict",
    "write_json",
    "write_ledger_csv",
    "write_widths_tsv",
    "write_trials_csv",
    "write_manifest",
]


class ScenarioParseError(ValueError):
    pass


def _kind(value, kinds, name: str, context: str):
    """``value`` if it is one of the JSON ``kinds``; a bool is never a number."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ScenarioParseError(f"{context} must be {name}, got {value!r}")
    return value


def _object(value, context: str) -> dict:
    return _kind(value, dict, "an object", context)


def _known(value, keys, context: str) -> dict:
    """The JSON object ``value``, which may hold no key outside ``keys``.

    A misspelt key would otherwise be ignored and its default used.
    """
    unknown = sorted(set(_object(value, context)) - set(keys))
    if unknown:
        raise ScenarioParseError(f"unknown keys in {context}: {', '.join(map(repr, unknown))}")
    return value


def _list(value, context: str) -> list:
    return _kind(value, list, "a list", context)


def _number(value, context: str) -> float:
    value = _kind(value, (int, float), "a number", context)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range reads as 1e400 does
        return math.inf if value > 0 else -math.inf


def _integer(value, context: str) -> int:
    return _kind(value, int, "an integer", context)


def _label(value, context: str) -> str:
    return str(_kind(value, (str, int, float), "a string or a number", context))


def _list_of(read):
    """A reader of JSON lists whose entries all pass ``read``."""
    return lambda value, context: tuple(read(v, context) for v in _list(value, context))


_numbers = _list_of(_number)
_integers = _list_of(_integer)
_matrix = _list_of(_numbers)
_labels = _list_of(_label)


def _need(mapping: dict, key: str, context: str):
    if key not in _object(mapping, context):
        raise ScenarioParseError(f"missing {key!r} in {context}")
    return mapping[key]


def _optional(mapping: dict, key: str, read, context: str):
    """``read`` applied to ``mapping[key]``; ``None`` if the key is absent or null."""
    value = mapping.get(key)
    return None if value is None else read(value, f"{context} {key}")


def parse_floats(text: str) -> list[float]:
    """A comma-separated command-line list such as ``0.3,0.7``."""
    return [float(v) for v in text.split(",")]


def parse_operation(data) -> LogicalOperation:
    _known(data, ("inputs", "outputs", "rows"), "operation")
    inputs = _labels(_need(data, "inputs", "operation"), "operation inputs")
    outputs = _labels(_need(data, "outputs", "operation"), "operation outputs")
    rows = _matrix(_need(data, "rows", "operation"), "operation rows")
    return LogicalOperation(rows, input_labels=inputs, output_labels=outputs)


def _parse_units(data) -> UnitSystem:
    if data is None or data == "natural":
        return NATURAL_UNITS
    if data == "si":
        return SI_UNITS
    if isinstance(data, dict):
        _known(data, ("k_B", "hbar", "mass"), "units")
        return UnitSystem(
            **{key: _number(data.get(key, 1.0), f"units {key}") for key in ("k_B", "hbar", "mass")}
        )
    raise ScenarioParseError(f"unrecognised units {data!r}")


def _parse_thermo(entries, count: int, context: str) -> tuple[StateThermo, ...]:
    """A thermo table: one ``{"E": energy, "S": entropy, "T": temperature}`` per state."""
    if not isinstance(entries, list) or len(entries) != count:
        raise ScenarioParseError(f"{context} thermo table must list {count} states")
    where = f"{context} thermo entry"
    return tuple(
        StateThermo(*(_number(_need(entry, key, where), f"{where} {key}") for key in "EST"))
        for entry in (_known(e, "EST", where) for e in entries)
    )


_MODEL_KEYS = (
    "kind", "E_R", "S_R", "C_A", "C_B", "C_C", "E_x", "input_temperatures", "output_temperatures",
)


def parse_scenario(data: dict) -> Scenario:
    keys = ("units", "reference_temperature", "baths", "input", "operation", "output", "model")
    units = _parse_units(_known(data, keys, "scenario").get("units"))
    t_ref = _number(_need(data, "reference_temperature", "scenario"), "reference_temperature")
    op = parse_operation(_need(data, "operation", "scenario"))
    input_block = _known(_need(data, "input", "scenario"), ("labels", "probs", "thermo"), "input")
    dist = DiscreteDistribution(_numbers(_need(input_block, "probs", "input"), "input probs"))
    output_block = _known(data.get("output", {}), ("labels", "thermo"), "output")
    for side, block, want in (
        ("input", input_block, op.input_labels),
        ("output", output_block, op.output_labels),
    ):
        if _optional(block, "labels", _labels, side) not in (None, want):
            raise ScenarioParseError(f"{side} labels disagree with operation {side}s")
    for bath in _list(data.get("baths", []), "baths"):
        bath = _known(bath, ("temperature",), "bath")
        temperature = _number(_need(bath, "temperature", "bath"), "bath temperature")
        if temperature != t_ref:
            raise ThermoError(
                f"bath temperature {temperature!r} differs from reference_temperature "
                f"{t_ref!r}; only the reference bath is modelled (see aggregate_baths)"
            )

    model = data.get("model")
    if model is not None:
        if isinstance(model, str):
            model = {"kind": model}
        kind = _need(_known(model, _MODEL_KEYS, "model"), "kind", "model")
        skeleton = ModelSkeleton(
            input_dist=dist,
            op=op,
            reference_temperature=t_ref,
            units=units,
            energy_offset=_optional(model, "E_R", _number, "model"),
            entropy_offset=_number(model.get("S_R", 0.0), "model S_R"),
            equilibrium_constant=_optional(model, "C_A", _number, "model"),
            adiabatic_constant=_optional(
                model, "C_B" if "C_B" in model else "C_C", _number, "model"
            ),
            state_energy=_optional(model, "E_x", _number, "model"),
            input_temperatures=_optional(model, "input_temperatures", _numbers, "model"),
            output_temperatures=_optional(model, "output_temperatures", _numbers, "model"),
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


def _config_thermo(config: dict, op: LogicalOperation) -> dict:
    """A cycle config's state tables and reference temperature; uniform states by default."""
    t_ref = _number(config.get("reference_temperature", 1.0), "reference_temperature")
    tables = {"reference_temperature": t_ref}
    for side, count in (("input", op.n_inputs), ("output", op.n_outputs)):
        entries = config.get(f"{side}_thermo")
        tables[f"{side}_thermo"] = (
            (StateThermo(0.5 * t_ref, 0.0, t_ref),) * count
            if entries is None
            else _parse_thermo(entries, count, side)
        )
    return tables


def load_uncertain_config(path) -> dict:
    """Keyword arguments of :func:`thermologic.cycles.uncertain_operation_cost`."""
    keys = ("branches", "input", "reference_temperature", "input_thermo", "output_thermo")
    config = _known(load_json(path), keys, "config")
    branches = []
    for b in _list(_need(config, "branches", "config"), "branches"):
        _known(b, ("operation", "probability"), "branch")
        branches.append((
            parse_operation(_need(b, "operation", "branch")),
            _number(_need(b, "probability", "branch"), "branch probability"),
        ))
    if not branches:
        raise ScenarioParseError("branches must list at least one branch")
    input_block = _known(_need(config, "input", "config"), ("probs",), "input")
    probs = _numbers(_need(input_block, "probs", "input"), "input probs")
    return {
        "branches": branches,
        "input_dist": DiscreteDistribution(probs),
        **_config_thermo(config, branches[0][0]),
    }


def load_partial_config(path) -> dict:
    """Keyword arguments of :func:`thermologic.cycles.partial_operation_cost`."""
    keys = ("operation", "joint_prior", "reference_temperature", "input_thermo", "output_thermo")
    config = _known(load_json(path), keys, "config")
    op = parse_operation(_need(config, "operation", "config"))
    return {
        "joint_prior": _matrix(_need(config, "joint_prior", "config"), "joint_prior"),
        "op": op,
        **_config_thermo(config, op),
    }


def load_qbound_config(path) -> dict:
    """The keys a ``qbound --config`` file sets, each checked for its kind.

    A key that is absent or null is left out, so the matching flag applies.
    """
    kinds = {
        "trials": _integer, "env_dim": _integer, "seed": _integer, "system_blocks": _integers,
        "reference_temperature": _number, "input_probs": _numbers, "target_output_probs": _numbers,
    }
    config = _known(load_json(path), kinds, "config")
    return {
        key: read(config[key], key) for key, read in kinds.items() if config.get(key) is not None
    }


def format_float(value: float) -> str:
    return repr(float(value))


def render_energy(value, divisor: float) -> str:
    """Energy cell: sentinel-aware, divided into the report unit."""
    if is_infinite(value):
        return "INF"
    return format_float(value / divisor)


def energy_value(value, divisor: float):
    """Energy JSON value: the string ``INF`` or the value in the report unit."""
    return "INF" if is_infinite(value) else value / divisor


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> str:
    """Write ``payload`` as a JSON report and return the text written."""
    text = _json_text(payload)
    Path(path).write_text(text)
    return text


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
    _write_csv(path, cost_report_rows(report, scenario, divisor))


def cost_report_dict(report: CostReport, scenario: Scenario, divisor: float, unit: str) -> dict:
    return {
        "energy_unit": unit,
        "expected_work": energy_value(report.expected_work, divisor),
        "expected_heat": energy_value(report.expected_heat, divisor),
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
                "work": energy_value(tr.work, divisor),
                "heat": energy_value(tr.heat, divisor),
            }
            for tr in (report.transitions or ())
        ],
    }


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
    header = ("step", "branch", "width", "energy", "entropy_k", "work", "heat", "temperature")
    rows = (
        (
            row.step,
            _branch_label(scenario, row.input_index, row.output_index),
            *map(
                format_float,
                (row.width, row.energy / divisor, row.entropy, row.work / divisor,
                 row.heat / divisor, row.temperature),
            ),
        )
        for row in ledger.rows
    )
    _write_csv(path, [header, *rows])


def write_widths_tsv(ledger: ProtocolLedger, scenario: Scenario, path):
    lines = ["step\tbranch\twidth"]
    for step, layout in ledger.layouts:
        for part in layout.partitions:
            label = _branch_label(scenario, part.input_index, part.output_index)
            lines.append(f"{step}\t{label}\t{format_float(part.width)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trials_csv(batch, path):
    header = ("trial", "work", "bound", "slack", "subadditivity_slack", "relative_entropy",
              "respects_operation")
    rows = (
        (
            r.index,
            *map(
                format_float,
                (r.work, r.bound, r.slack, r.subadditivity_slack, r.environment_relative_entropy),
            ),
            "" if r.respects_operation is None else str(r.respects_operation).lower(),
        )
        for r in batch.results
    )
    _write_csv(path, [header, *rows])


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
    path.write_text(_json_text(manifest))
    return path
