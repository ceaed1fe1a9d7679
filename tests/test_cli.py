import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermologic
from thermologic.cli import main
from thermologic.quantum import MAX_TRIALS
from thermologic.serialize import ScenarioParseError, load_scenario, parse_scenario
from thermologic.thermo import ThermoError

RTZ_SCENARIO = {
    "units": "natural",
    "reference_temperature": 1.0,
    "input": {"labels": ["0", "1"], "probs": [0.5, 0.5]},
    "operation": {
        "inputs": ["0", "1"],
        "outputs": ["0", "1"],
        "rows": [[1.0, 0.0], [1.0, 0.0]],
    },
    "output": {"labels": ["0", "1"]},
    "model": {"kind": "uniform", "E_R": 0.0, "S_R": 0.0},
}
README_SCENARIO = dict(RTZ_SCENARIO, baths=[{"temperature": 1.0}])

EXPLICIT_SCENARIO = {
    "units": {"k_B": 1.0, "hbar": 1.0, "mass": 1.0},
    "reference_temperature": 2.0,
    "baths": [{"temperature": 2.0}],
    "input": {
        "labels": ["a", "b"],
        "probs": [0.25, 0.75],
        "thermo": [{"E": 0.1, "S": 0.2, "T": 2.0}, {"E": 0.3, "S": 0.1, "T": 1.5}],
    },
    "operation": {"inputs": ["a", "b"], "outputs": ["x"], "rows": [[1.0], [1.0]]},
    "output": {"labels": ["x"], "thermo": [{"E": 0.0, "S": 0.4, "T": 2.0}]},
}


UNCERTAIN_CONFIG = {
    "input": {"probs": [0.5, 0.5]},
    "branches": [{"operation": RTZ_SCENARIO["operation"], "probability": 1.0}],
}

PARTIAL_CONFIG = {
    "joint_prior": [[0.25, 0.25], [0.25, 0.25]],
    "operation": RTZ_SCENARIO["operation"],
}

# Explicit state tables for the two-state cycle configs; without them each
# state is built at T_R, which rejects a bad T_R on its own.
FLAT_TABLES = {
    "input_thermo": [{"E": 0.5, "S": 0.0, "T": 1.0}] * 2,
    "output_thermo": [{"E": 0.5, "S": 0.0, "T": 1.0}] * 2,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def replaced(payload, path, value):
    """A deep copy of ``payload`` with the entry at ``path`` (keys and indices) set to ``value``."""
    copy = json.loads(json.dumps(payload))
    *parents, last = path
    target = copy
    for key in parents:
        target = target[key]
    target[last] = value
    return copy


ADIABATIC_SCENARIO = dict(
    RTZ_SCENARIO,
    operation=dict(RTZ_SCENARIO["operation"], rows=[[0.7, 0.3], [0.2, 0.8]]),
    model={"kind": "adiabatic", "input_temperatures": [1.0, 1.5]},
)
QBOUND_CONFIG = {"trials": 3, "env_dim": 4, "seed": 2}

# A row within PROB_ATOL of one as given, and 1.00000000105 once its negative entry is clipped.
BAD_ROW_SCENARIO = dict(
    RTZ_SCENARIO,
    operation={
        "inputs": ["0", "1"],
        "outputs": ["0", "1", "2"],
        "rows": [[-1e-9, 0.5, 0.50000000105], [1.0, 0.0, 0.0]],
    },
    output={"labels": ["0", "1", "2"]},
)
# Finite probabilities whose sum overflows a float; math.fsum raises OverflowError on them.
OVERFLOWING = [1e308, 1e308]

# Models that each run without their last keys, which the kind does not read
# or which set the same value twice.
UNREAD_MODEL_KEYS = {
    "adiabatic-equilibrium-unread": (
        {"kind": "adiabatic_equilibrium"},
        {"input_temperatures": [1.0, 1.5], "C_A": 0.0, "S_R": 0.0, "E_x": 0.5},
    ),
    "uniform-unread": ({"kind": "uniform"}, {"output_temperatures": [1.0, 1.5], "C_A": 0.0}),
    "equilibrium-unread": ({"kind": "equilibrium", "C_A": -1.0}, {"C_B": 1.0}),
    "equilibrium-two-energies": ({"kind": "equilibrium", "E_x": 0.5}, {"E_R": 0.0}),
    "adiabatic-two-constants": ({"kind": "adiabatic", "C_B": 2.0}, {"C_C": 1.0}),
}


def with_model(model):
    return dict(ADIABATIC_SCENARIO, model=model)


class TestScenarioParsing:
    def test_model_scenario(self, tmp_path):
        sc = load_scenario(write(tmp_path, "s.json", RTZ_SCENARIO))
        assert sc.op.n_outputs == 2
        assert sc.input_thermo[0].energy == 0.0

    def test_explicit_thermo(self, tmp_path):
        sc = load_scenario(write(tmp_path, "s.json", EXPLICIT_SCENARIO))
        assert sc.reference_temperature == 2.0
        assert sc.input_thermo[1].temperature == 1.5
        # Its one bath is at the reference temperature, so it parses.
        assert EXPLICIT_SCENARIO["baths"][0]["temperature"] == sc.reference_temperature

    def test_bath_off_the_reference_temperature_is_rejected(self):
        with pytest.raises(ThermoError, match="bath temperature 5.0"):
            parse_scenario(dict(EXPLICIT_SCENARIO, baths=[{"temperature": 5.0}]))

    def test_missing_key(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario({"reference_temperature": 1.0})

    def test_label_mismatch(self):
        bad = dict(EXPLICIT_SCENARIO)
        bad["input"] = dict(bad["input"], labels=["a", "WRONG"])
        with pytest.raises(ScenarioParseError):
            parse_scenario(bad)

    def test_null_model_key_counts_as_absent(self):
        # A null key is never the one read: C_C sets the constant, and uniform ignores nothing.
        nulled = parse_scenario(with_model({"kind": "adiabatic", "C_B": None, "C_C": 3.0}))
        alone = parse_scenario(with_model({"kind": "adiabatic", "C_C": 3.0}))
        assert nulled.input_thermo == alone.input_thermo
        assert parse_scenario(with_model({"kind": "uniform", "C_A": None})).input_thermo

    def test_si_units(self, tmp_path):
        payload = dict(RTZ_SCENARIO, units="si")
        sc = load_scenario(write(tmp_path, "s.json", payload))
        assert sc.units.k_B == pytest.approx(1.380649e-23)


# Every exception class the package defines, and the exit code cli.main maps it to.
PACKAGE_ERRORS = {
    "serialize.ScenarioParseError": 2,
    "logic.LogicError": 3,
    "logic.InvalidDistributionError": 3,
    "logic.InvalidOperationError": 3,
    "logic.ArityMismatchError": 3,
    "logic.ZeroProbabilityOutputError": 3,
    "thermo.ThermoError": 3,
    "thermo.DegenerateBathError": 3,
    "costs.CostError": 3,
    "costs.TransitionImpossibleError": 3,
    "cycles.DegenerateCycleError": 3,
    "quantum.QuantumError": 3,
    "quantum.SetupError": 3,
    "boxprotocol.ProtocolAbortError": 4,
}
EXIT_MESSAGES = {2: "parse error: ", 3: "validation error: ", 4: "runtime error: "}


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        assert main(["classify", path, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "deterministic": True,
            "reversible": False,
            "input_entropy_bits": 1.0,
            "output_entropy_bits": 0.0,
        }

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_bad_row_sum_exits_3_and_names_row(self, tmp_path, capsys):
        payload = json.loads(json.dumps(RTZ_SCENARIO))
        payload["operation"]["rows"] = [[0.9, 0.0], [1.0, 0.0]]
        path = write(tmp_path, "s.json", payload)
        assert main(["classify", path, "--out", str(tmp_path / "o")]) == 3
        assert "'0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"E": 0.1', '"E": 1e400', "energy must be finite"),
            (
                '"reference_temperature": 2.0, "baths": [{"temperature": 2.0}]',
                '"reference_temperature": 1e400',
                "reference temperature must be finite",
            ),
        ],
        ids=["energy", "reference_temperature"],
    )
    def test_overflowing_scenario_value_exits_3(self, tmp_path, capsys, old, new, message):
        # 1e400 is valid JSON that parses to inf, so it reaches the constructors.
        text = json.dumps(EXPLICIT_SCENARIO)
        assert old in text
        path = tmp_path / "s.json"
        path.write_text(text.replace(old, new))
        out = tmp_path / "o"
        assert main(["cost", str(path), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bath_off_the_reference_temperature_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", dict(EXPLICIT_SCENARIO, baths=[{"temperature": 5.0}]))
        assert main(["cost", path, "--out", str(tmp_path / "o")]) == 3
        assert "reference_temperature" in capsys.readouterr().err

    def test_protocol_abort_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        code = main(
            ["box-run", path, "--weights", "1.0,0.0", "--out", str(tmp_path / "o")]
        )
        assert code == 4

    def test_degenerate_cycle_exits_3(self, tmp_path):
        assert main(["cycle", "rle-le", "--p", "0.0", "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_scenario_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(RTZ_SCENARIO).replace("[0.5, 0.5]", "[NaN, 1.0]"))
        out = tmp_path / "o"
        assert main(["cost", str(path), "--out", str(out)]) == 2
        assert "non-finite number NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, token):
        path = tmp_path / "c.json"
        path.write_text(
            '{"joint_prior": [[%s, 0.0], [0.0, 0.5]], "operation": {"inputs": ["0", "1"], '
            '"outputs": ["0"], "rows": [[1.0], [1.0]]}}' % token
        )
        assert main(["cycle", "partial", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"non-finite number {token}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload",
        [
            (["cost"], dict(RTZ_SCENARIO, input=[])),
            (
                ["cost"],
                dict(EXPLICIT_SCENARIO, input=dict(EXPLICIT_SCENARIO["input"], thermo=[1.0, 2.0])),
            ),
            (["cost"], dict(EXPLICIT_SCENARIO, baths=[1.0])),
            (["cost"], dict(RTZ_SCENARIO, model=5)),
            (["cycle", "uncertain"], dict(UNCERTAIN_CONFIG, input_thermo=[1.0, 2.0])),
            (["cost"], dict(RTZ_SCENARIO, output=[])),
            (["cycle", "uncertain"], [UNCERTAIN_CONFIG]),
            (["cycle", "partial"], [PARTIAL_CONFIG]),
            (["cycle", "uncertain"], dict(UNCERTAIN_CONFIG, branches=[1.0])),
        ],
        ids=[
            "input",
            "thermo",
            "baths",
            "model",
            "input_thermo",
            "output",
            "uncertain_config",
            "partial_config",
            "branch",
        ],
    )
    def test_value_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, payload):
        path = write(tmp_path, "s.json", payload)
        assert main([*command, path, "--out", str(tmp_path / "o")]) == 2
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, code",
        [
            (["classify"], {"reference_temperature": 1.0}, 2),
            (["cost", "--weights", "0.5,x"], RTZ_SCENARIO, 2),
            (["optimize"], dict(RTZ_SCENARIO, input={"probs": [0.5, 0.6]}), 3),
            (["box-run", "--weights", "0.5,x"], RTZ_SCENARIO, 2),
            # hbar**2 overflows; a mass this small makes the zero-entropy width infinite
            (["box-run"], dict(README_SCENARIO, units={"hbar": 1e200}), 3),
            (["box-run"], dict(README_SCENARIO, units={"mass": 1e-320}), 3),
            (["cycle", "rle-le", "--p", "0.5", "--temperature", "0"], None, 3),
            (["cycle", "build", "--middle-input", "0.5,x"], RTZ_SCENARIO, 2),
            # three middle-input probabilities for the two inputs of the scenario
            (["cycle", "build", "--middle-input", "0.5,0.3,0.2"], RTZ_SCENARIO, 3),
            (["cycle", "build", "--middle-input", ""], RTZ_SCENARIO, 2),
            (["cycle", "uncertain"], dict(UNCERTAIN_CONFIG, branches=[{"probability": 1.0}]), 2),
            (["cycle", "partial"], dict(PARTIAL_CONFIG, joint_prior="x"), 2),
            (
                ["cycle", "uncertain"],
                dict(UNCERTAIN_CONFIG, **FLAT_TABLES, reference_temperature=-2.0),
                3,
            ),
            (["cycle", "partial"], dict(PARTIAL_CONFIG, **FLAT_TABLES, reference_temperature=-2.0), 3),
            # three input probabilities for branches of two inputs
            (["cycle", "uncertain"], dict(UNCERTAIN_CONFIG, input={"probs": [0.2, 0.3, 0.5]}), 3),
            (["qbound", "--config"], {"env_dim": "x"}, 2),
            (["qbound", "--trials", "-5"], None, 3),
            (["qbound", "--config"], {"trials": -5}, 3),
            # above quantum.MAX_TRIALS; run_trials would otherwise loop until memory ran out
            (["qbound", "--config"], {"trials": 10**400}, 3),
            (["qbound", "--trials", str(MAX_TRIALS + 1)], None, 3),
            # an integer too large for a float reads as infinity, as 1e400 does
            (["qbound", "--config"], {"trials": 1, "reference_temperature": 10**400}, 3),
            (["cost"], replaced(EXPLICIT_SCENARIO, ("input", "thermo", 0, "E"), 10**400), 3),
            (["qbound", "--config"], dict(QBOUND_CONFIG, trails=5), 2),
            (["cost"], dict(RTZ_SCENARIO, modle={"kind": "uniform"}), 2),
            (["qbound", "--blocks", "2,x"], None, 2),
            (["qbound", "--env-dim", "-3"], None, 3),
            (["qbound", "--config"], dict(QBOUND_CONFIG, target_output_probs=[2.0, -1.0]), 3),
            (["cost", "--weights", "1e308,1e308"], RTZ_SCENARIO, 3),
            (["box-run", "--weights", "1e308,1e308"], RTZ_SCENARIO, 3),
            (
                ["cycle", "uncertain"],
                dict(
                    UNCERTAIN_CONFIG,
                    branches=[
                        {"operation": RTZ_SCENARIO["operation"], "probability": p}
                        for p in OVERFLOWING
                    ],
                ),
                3,
            ),
            (["cycle", "partial"], dict(PARTIAL_CONFIG, joint_prior=[OVERFLOWING, [0.0, 0.0]]), 3),
            (["qbound", "--config"], dict(QBOUND_CONFIG, input_probs=OVERFLOWING), 3),
            (["cost"], BAD_ROW_SCENARIO, 3),
            (["classify"], BAD_ROW_SCENARIO, 3),
            (["box-run"], BAD_ROW_SCENARIO, 3),
            # make_model would divide by k T_R = 0
            (["cost"], dict(with_model({"kind": "equilibrium"}), reference_temperature=0.0), 3),
            *(
                (["cost"], with_model({**model, **extra}), 2)
                for model, extra in UNREAD_MODEL_KEYS.values()
            ),
        ],
        ids=[
            "classify",
            "cost",
            "optimize",
            "box-run",
            "box-run-hbar-overflow",
            "box-run-mass-underflow",
            "cycle-rle-le",
            "cycle-build",
            "cycle-build-middle-arity",
            "cycle-build-middle-empty",
            "cycle-uncertain",
            "cycle-partial",
            "cycle-uncertain-negative-temperature",
            "cycle-partial-negative-temperature",
            "cycle-uncertain-input-arity",
            "qbound",
            "qbound-negative-trials-flag",
            "qbound-negative-trials-config",
            "qbound-trials-above-cap-config",
            "qbound-trials-above-cap-flag",
            "qbound-huge-integer",
            "cost-huge-integer",
            "qbound-unknown-key",
            "cost-unknown-key",
            "qbound-blocks",
            "qbound-env-dim-negative",
            "qbound-target-not-a-distribution",
            "cost-weights-sum-overflows",
            "box-run-weights-sum-overflows",
            "cycle-uncertain-branch-sum-overflows",
            "cycle-partial-prior-sum-overflows",
            "qbound-input-sum-overflows",
            "cost-bad-row",
            "classify-bad-row",
            "box-run-bad-row",
            "cost-equilibrium-zero-temperature",
            *(f"cost-{name}" for name in UNREAD_MODEL_KEYS),
        ],
    )
    def test_rejected_run_writes_nothing(self, tmp_path, capsys, command, payload, code):
        inputs = [] if payload is None else [write(tmp_path, "in.json", payload)]
        out = tmp_path / "o"
        assert main([*command, *inputs, "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize(
        "error",
        [np.linalg.LinAlgError, RecursionError, NotImplementedError],
        ids=lambda error: error.__name__,
    )
    def test_program_errors_propagate_and_are_not_mapped(self, tmp_path, monkeypatch, error):
        # LinAlgError is a ValueError and the other two are RuntimeErrors, so
        # each used to read as a validation (3) or runtime (4) failure.
        from thermologic import quantum

        def fail(*args, **kwargs):
            raise error("raised inside the computation")

        monkeypatch.setattr(quantum, "run_trials", fail)
        out = tmp_path / "o"
        with pytest.raises(error, match="raised inside the computation"):
            main(["qbound", "--trials", "2", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("env_dim", [0, -3])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_env_dim_below_one_is_named_before_anything_is_built(
        self, tmp_path, capsys, source, env_dim
    ):
        if source == "flag":
            command = ["qbound", "--env-dim", str(env_dim)]
        else:
            command = ["qbound", "--config", write(tmp_path, "in.json", {"env_dim": env_dim})]
        out = tmp_path / "o"
        assert main([*command, "--out", str(out)]) == 3
        assert not out.exists()
        assert f"env_dim must be at least 1, got {env_dim}" in capsys.readouterr().err

    @pytest.mark.parametrize("model, extra", UNREAD_MODEL_KEYS.values(), ids=UNREAD_MODEL_KEYS)
    def test_model_key_the_kind_does_not_read_exits_2(self, tmp_path, capsys, model, extra):
        # Each model is first run without the extra keys.
        for data, code in ((model, 0), ({**model, **extra}, 2)):
            out = tmp_path / f"o{code}"
            path = write(tmp_path, "in.json", with_model(data))
            assert main(["cost", path, "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        assert f"the {model['kind']} model " in err and repr(list(extra)[-1]) in err

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            (["cost"], dict(RTZ_SCENARIO, modle={"kind": "uniform"}), "modle"),
            (["cycle", "uncertain"], dict(UNCERTAIN_CONFIG, branch=[]), "branch"),
            (["cycle", "partial"], dict(PARTIAL_CONFIG, reference_temp=2.0), "reference_temp"),
            (["qbound", "--config"], dict(QBOUND_CONFIG, trails=5), "trails"),
        ],
        ids=["scenario", "uncertain", "partial", "qbound"],
    )
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys, command, payload, key):
        # Each reader is first run without the misspelt key.
        for data, code in (({k: v for k, v in payload.items() if k != key}, 0), (payload, 2)):
            out = tmp_path / f"o{code}"
            assert main([*command, write(tmp_path, "in.json", data), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert f"unknown keys in {'scenario' if command == ['cost'] else 'config'}: {key!r}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command, payload, where, context",
        [
            (["cost"], RTZ_SCENARIO, ("model",), "model"),
            (["cost"], EXPLICIT_SCENARIO, ("input",), "input"),
            (["cost"], EXPLICIT_SCENARIO, ("output",), "output"),
            (["cost"], EXPLICIT_SCENARIO, ("operation",), "operation"),
            (["cost"], EXPLICIT_SCENARIO, ("output", "thermo", 0), "output thermo entry"),
            (["cost"], EXPLICIT_SCENARIO, ("baths", 0), "bath"),
            (["cost"], EXPLICIT_SCENARIO, ("units",), "units"),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("branches", 0), "branch"),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("branches", 0, "operation"), "operation"),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("input",), "input"),
            (["cycle", "partial"], PARTIAL_CONFIG, ("operation",), "operation"),
            (
                ["cycle", "partial"],
                dict(PARTIAL_CONFIG, input_thermo=[{"E": 0.5, "S": 0.0, "T": 1.0}] * 2),
                ("input_thermo", 1),
                "input thermo entry",
            ),
        ],
        ids=[
            "model", "input", "output", "operation", "thermo-entry", "bath", "units",
            "uncertain-branch", "uncertain-branch-operation", "uncertain-input",
            "partial-operation", "partial-thermo-entry",
        ],
    )
    def test_unknown_nested_key_exits_2(self, tmp_path, capsys, command, payload, where, context):
        # A misspelt "E_r" in a model used to leave E_R at its default, with exit 0.
        # Each reader is first run without the extra key.
        for data, code in ((payload, 0), (replaced(payload, (*where, "E_r"), 5.0), 2)):
            out = tmp_path / f"o{code}"
            assert main([*command, write(tmp_path, "in.json", data), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert f"unknown keys in {context}: 'E_r'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [["cycle", "rle-le", "--p", "0.5", "--temperature"], ["qbound", "--trials", "2", "--t-ref"]],
        ids=["rle-le", "qbound"],
    )
    def test_bad_temperature_exits_3(self, tmp_path, capsys, command, value):
        out = tmp_path / "o"
        assert main([*command, value, "--out", str(out)]) == 3
        assert "temperature must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_qbound_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text('{"trials": 2, "reference_temperature": Infinity}')
        assert main(["qbound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, payload, path, value",
        [
            (["cost"], EXPLICIT_SCENARIO, ("reference_temperature",), [1]),
            (["cost"], EXPLICIT_SCENARIO, ("reference_temperature",), "1"),
            (["cost"], RTZ_SCENARIO, ("model", "S_R"), [1]),
            (["cost"], RTZ_SCENARIO, ("model", "E_R"), "0.5"),
            (["cost"], EXPLICIT_SCENARIO, ("input", "thermo", 0, "E"), [1]),
            (["cost"], EXPLICIT_SCENARIO, ("baths",), 5),
            (["cost"], EXPLICIT_SCENARIO, ("baths", 0, "temperature"), {}),
            (["cost"], EXPLICIT_SCENARIO, ("units", "k_B"), [1]),
            (["cost"], EXPLICIT_SCENARIO, ("input", "labels"), 5),
            (["cost"], EXPLICIT_SCENARIO, ("operation", "inputs"), 5),
            (["cost"], EXPLICIT_SCENARIO, ("operation", "rows", 0, 0), "1"),
            (["cost"], ADIABATIC_SCENARIO, ("model", "input_temperatures"), 5),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("branches", 0, "probability"), [1]),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("reference_temperature",), [1]),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("branches",), []),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG, ("branches",), 5),
            (["cycle", "partial"], PARTIAL_CONFIG, ("reference_temperature",), {}),
            (["qbound", "--config"], QBOUND_CONFIG, ("trials",), [1]),
            (["qbound", "--config"], QBOUND_CONFIG, ("trials",), 2.7),
            (["qbound", "--config"], QBOUND_CONFIG, ("trials",), True),
            (["qbound", "--config"], QBOUND_CONFIG, ("reference_temperature",), [1]),
            (["qbound", "--config"], QBOUND_CONFIG, ("env_dim",), "4"),
            (["qbound", "--config"], QBOUND_CONFIG, ("system_blocks",), "2,2"),
        ],
        ids=[
            "cost-reference_temperature-list",
            "cost-reference_temperature-string",
            "cost-S_R",
            "cost-E_R",
            "cost-thermo-E",
            "cost-baths",
            "cost-bath-temperature",
            "cost-units-k_B",
            "cost-labels",
            "cost-operation-inputs",
            "cost-operation-rows",
            "cost-input_temperatures",
            "uncertain-probability",
            "uncertain-reference_temperature",
            "uncertain-branches-empty",
            "uncertain-branches-number",
            "partial-reference_temperature",
            "qbound-trials-list",
            "qbound-trials-float",
            "qbound-trials-bool",
            "qbound-reference_temperature",
            "qbound-env_dim",
            "qbound-system_blocks",
        ],
    )
    def test_value_of_the_wrong_kind_exits_2(self, tmp_path, capsys, command, payload, path, value):
        # The same input with the right kind runs, so the wrong kind is the only fault.
        good = write(tmp_path, "good.json", payload)
        assert main([*command, good, "--out", str(tmp_path / "good")]) == 0
        bad = write(tmp_path, "bad.json", replaced(payload, path, value))
        out = tmp_path / "o"
        assert main([*command, bad, "--out", str(out)]) == 2
        assert "parse error" in capsys.readouterr().err
        assert not out.exists()

    def test_program_error_is_not_a_parse_error(self, tmp_path, monkeypatch):
        # A KeyError from a bug keeps its traceback instead of passing as bad input.
        def broken(op):
            raise KeyError("bug")

        monkeypatch.setattr("thermologic.cli.classify_op", broken)
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        with pytest.raises(KeyError, match="bug"):
            main(["classify", path, "--out", str(tmp_path / "o")])

    def test_every_package_error_has_a_pinned_exit_code(self):
        modules = [importlib.import_module(f"thermologic.{m.name}")
                   for m in pkgutil.iter_modules(thermologic.__path__)]
        defined = {
            f"{module.__name__.rpartition('.')[2]}.{name}"
            for module in modules
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == module.__name__
        }
        assert defined == set(PACKAGE_ERRORS)

    @pytest.mark.parametrize("name, code", sorted(PACKAGE_ERRORS.items()))
    def test_package_error_exit_code(self, tmp_path, monkeypatch, capsys, name, code):
        module, cls = name.split(".")
        error = getattr(importlib.import_module(f"thermologic.{module}"), cls)

        def failing(op):
            raise error("planted")

        monkeypatch.setattr("thermologic.cli.classify_op", failing)
        out = tmp_path / "o"
        assert main(["classify", write(tmp_path, "s.json", RTZ_SCENARIO), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(EXIT_MESSAGES[code])
        assert not out.exists()


class TestCostCommand:
    def test_reports_and_files(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out = tmp_path / "o"
        assert main(["cost", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "work_bound = 0.693147 kT_R" in stdout
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["expected_work"] == pytest.approx(math.log(2.0))
        assert report["energy_unit"] == "kT_R"

    def test_zero_weight_renders_inf_rows(self, tmp_path, capsys):
        payload = json.loads(json.dumps(RTZ_SCENARIO))
        path = write(tmp_path, "s.json", payload)
        out = tmp_path / "o"
        assert main(["cost", path, "--weights", "1.0,0.0", "--out", str(out)]) == 0
        csv_text = (out / "report.csv").read_text()
        assert "INF" in csv_text
        assert "expected_work = INF" in capsys.readouterr().out

    def test_equilibrium_bound_is_zero(self, tmp_path, capsys):
        payload = json.loads(json.dumps(RTZ_SCENARIO))
        payload["operation"] = {
            "inputs": ["0", "1"],
            "outputs": ["0", "1"],
            "rows": [[0.7, 0.3], [0.2, 0.8]],
        }
        payload["model"] = {"kind": "equilibrium"}
        path = write(tmp_path, "s.json", payload)
        assert main(["cost", path, "--out", str(tmp_path / "o")]) == 0
        assert "work_bound = 0.000000 kT_R" in capsys.readouterr().out


class TestReruns:
    @pytest.mark.parametrize(
        "command, payload",
        [
            (["classify"], RTZ_SCENARIO),
            (["cost"], RTZ_SCENARIO),
            (["optimize"], RTZ_SCENARIO),
            (["box-run"], RTZ_SCENARIO),
            (["cycle", "rle-le", "--p", "0.3", "--p-prime", "0.6"], None),
            (["cycle", "build", "--middle-input", "0.9,0.1"], RTZ_SCENARIO),
            (["cycle", "uncertain"], UNCERTAIN_CONFIG),
            (["cycle", "partial"], PARTIAL_CONFIG),
            (["qbound", "--trials", "3", "--env-dim", "4"], None),
            (["qbound", "--config"], QBOUND_CONFIG),
        ],
        ids=[
            "classify",
            "cost",
            "optimize",
            "box-run",
            "cycle-rle-le",
            "cycle-build",
            "cycle-uncertain",
            "cycle-partial",
            "qbound-flags",
            "qbound-config",
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, capsys, command, payload):
        inputs = [] if payload is None else [write(tmp_path, "in.json", payload)]
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main([*command, *inputs, "--seed", "3", "--out", str(out)]) == 0
        # manifest.json records --out, so it is the one file that differs.
        files = [{f.name: f.read_bytes() for f in out.iterdir()} for out in outs]
        for run in files:
            assert "manifest.json" in run and len(run) > 1
            del run["manifest.json"]
        assert files[0] == files[1]


# Non-natural units; some of its wells are outside the high-temperature
# regime and some are not, and its branch a->y is absent.
WARNED_SCENARIO = {
    "units": {"k_B": 2.0, "hbar": 0.5, "mass": 1.5},
    "reference_temperature": 1.5,
    "input": {
        "labels": ["a", "b", "c"],
        "probs": [0.2, 0.3, 0.5],
        "thermo": [
            {"E": 0.1, "S": 0.2, "T": 2.0},
            {"E": 0.3, "S": 2.5, "T": 1.5},
            {"E": -0.2, "S": 3.0, "T": 0.7},
        ],
    },
    "operation": {
        "inputs": ["a", "b", "c"],
        "outputs": ["x", "y"],
        "rows": [[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]],
    },
    "output": {
        "labels": ["x", "y"],
        "thermo": [{"E": 0.0, "S": 0.4, "T": 2.0}, {"E": 0.5, "S": 2.8, "T": 1.2}],
    },
}


# Three inputs in non-natural units; run with --weights 0.4,0,0.6 its live
# input b has zero weight, so its rows and the expectations are INF.
ZERO_WEIGHT_SCENARIO = {
    "units": {"k_B": 2.0, "hbar": 0.5, "mass": 1.5},
    "reference_temperature": 1.5,
    "input": {
        "labels": ["a", "b", "c"],
        "probs": [0.2, 0.3, 0.5],
        "thermo": [
            {"E": 0.1, "S": 0.2, "T": 2.0},
            {"E": 0.3, "S": 2.5, "T": 1.5},
            {"E": -0.2, "S": 3.0, "T": 0.7},
        ],
    },
    "operation": {
        "inputs": ["a", "b", "c"],
        "outputs": ["x", "y", "z"],
        "rows": [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.2, 0.3, 0.5]],
    },
    "output": {
        "labels": ["x", "y", "z"],
        "thermo": [
            {"E": 0.0, "S": 0.4, "T": 2.0},
            {"E": 0.5, "S": 2.8, "T": 1.2},
            {"E": -0.1, "S": 1.1, "T": 1.5},
        ],
    },
}


# Three branches over WARNED_SCENARIO's states and tables; the third never acts.
UNCERTAIN_PINNED_CONFIG = {
    "reference_temperature": 1.5,
    "input": {"probs": [0.2, 0.3, 0.5]},
    "branches": [
        {"operation": WARNED_SCENARIO["operation"], "probability": 0.6},
        {
            "operation": dict(WARNED_SCENARIO["operation"], rows=[[0.1, 0.9], [1.0, 0.0], [0.3, 0.7]]),
            "probability": 0.4,
        },
        {
            "operation": dict(WARNED_SCENARIO["operation"], rows=[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
            "probability": 0.0,
        },
    ],
    "input_thermo": WARNED_SCENARIO["input"]["thermo"],
    "output_thermo": WARNED_SCENARIO["output"]["thermo"],
}
# A correlated prior with one impossible (input, bystander) pair.
PARTIAL_PINNED_CONFIG = {
    "reference_temperature": 1.5,
    "joint_prior": [[0.2, 0.0], [0.1, 0.2], [0.15, 0.35]],
    "operation": WARNED_SCENARIO["operation"],
    "input_thermo": WARNED_SCENARIO["input"]["thermo"],
    "output_thermo": WARNED_SCENARIO["output"]["thermo"],
}


class TestPinnedBytes:
    """SHA-256 of the files and streams of ``cost``, ``box-run``, ``cycle`` and ``optimize``.

    Any changed byte is a change of behaviour.
    """

    @pytest.mark.parametrize(
        "payload, flags, pinned",
        [
            (
                README_SCENARIO,
                ["--middle-input", "0.9,0.1"],
                {
                    "cycle.json": "ab654adaca933bc7263b84e4a61854bc039c99005792c2d7f8d55d2b3a8fb4c9",
                    "stdout": "2d5eb26a623aec3934c59d05849c5c42b455fefd069c7be43f91f43994ad8721",
                },
            ),
            (
                WARNED_SCENARIO,
                [],
                {
                    "cycle.json": "2f26338c080a9a51117caa94fcbea4611ffd93176989672da0ab76c456fcd7f2",
                    "stdout": "c08311b44cdee6158fcdf4bb1dd4efe0b7f0776deee17a4abf5e7836c40f87fe",
                },
            ),
            (
                WARNED_SCENARIO,
                ["--middle-input", "0.5,0.3,0.2"],
                {
                    "cycle.json": "2810341af59af999582373d8c35a484457c7abf5d35c5ef70bb80f105e7b8f35",
                    "stdout": "944d732665a61e9304344a47581f4d77be30a1b2b3e452fa83330f66b660ab50",
                },
            ),
            (
                WARNED_SCENARIO,
                ["--weights", "0.3,0.3,0.4", "--middle-input", "0.1,0.6,0.3", "--si"],
                {
                    "cycle.json": "d95a4e9300e42ca7e0876976f05d3aab0b0540e3e7d6c530234627eb506e5a06",
                    "stdout": "fd9ffd4db10a91cfcabad9dace93f0e92fd5a3d403869676aa2b61b09b6be97b",
                },
            ),
            (
                ZERO_WEIGHT_SCENARIO,
                ["--weights", "0.4,0,0.6", "--middle-input", "0.2,0.3,0.5"],
                {
                    "cycle.json": "06961ce1eaa0161ffad383dda40b8ce209f149d6a0caf4fc46450528692823cb",
                    "stdout": "7d8eec71490d4ea7bcffccb6338fa565ea1f70ca2811c9931715b8b553af305f",
                },
            ),
        ],
        ids=["readme-middle", "warned", "warned-middle", "warned-weights-middle-si", "zero-weight-middle"],
    )
    def test_cycle_build_bytes_are_pinned(self, tmp_path, capsys, payload, flags, pinned):
        out = tmp_path / "o"
        args = ["cycle", "build", write(tmp_path, "s.json", payload), *flags, "--out", str(out)]
        assert main(args) == 0
        streams = capsys.readouterr()
        assert streams.err == ""
        got = {"cycle.json": (out / "cycle.json").read_bytes(), "stdout": streams.out.encode()}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == pinned

    @pytest.mark.parametrize(
        "command, config, pinned",
        [
            (
                "uncertain",
                UNCERTAIN_CONFIG,
                {
                    "uncertain.json": "754a503e7197b7c37351acc1ad693299f31b3bbb0580467c5cf828624d9dd2fd",
                    "stdout": "e8452d53286cd7f28c5bfacb1584dc6b4936c32a1bf94a0a85f391aca6e5bb41",
                },
            ),
            (
                "uncertain",
                UNCERTAIN_PINNED_CONFIG,
                {
                    "uncertain.json": "86cedb076eb252101405b705d2cd55b9dfdb2655cd5824e9a8f3025c10a8b250",
                    "stdout": "8ccfd6cc76a563437d5246df1cc5e124b124e88da42443c08f4aa0722ab143a2",
                },
            ),
            (
                "partial",
                PARTIAL_CONFIG,
                {
                    "partial.json": "2642f5a1939f2ef59bdb35d59db902ee6306ae7fc3ced051edec7e163b0eb732",
                    "stdout": "e8452d53286cd7f28c5bfacb1584dc6b4936c32a1bf94a0a85f391aca6e5bb41",
                },
            ),
            (
                "partial",
                PARTIAL_PINNED_CONFIG,
                {
                    "partial.json": "e2c67d4e549e826985bc5576df17711a8b0cd1ddbe0661e14119ea8a980a0b16",
                    "stdout": "e32906ef61ec7bc1d9a8a251b16f050e39a7202e9ea2cbc3e4f5d430258d6005",
                },
            ),
        ],
        ids=["uncertain", "uncertain-three-branches", "partial", "partial-correlated"],
    )
    def test_cycle_config_bytes_are_pinned(self, tmp_path, capsys, command, config, pinned):
        out = tmp_path / "o"
        assert main(["cycle", command, write(tmp_path, "c.json", config), "--out", str(out)]) == 0
        streams = capsys.readouterr()
        assert streams.err == ""
        got = {f"{command}.json": (out / f"{command}.json").read_bytes(), "stdout": streams.out.encode()}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == pinned

    @pytest.mark.parametrize(
        "payload, flags, pinned",
        [
            (
                README_SCENARIO,
                [],
                {
                    "report.csv": "059272951d759553bfcf7379f195d4d301714dbe4f7c009eb5f1fe5333984c9a",
                    "report.json": "426840739f9714d7aaa86035758b6e8b14c9a258478695293ca7ae35bb0fbe6b",
                    "stdout": "b809074777c1c0f534e33175c9d530075b5e4744a59f50b04214a6a0deba0fd5",
                },
            ),
            (
                ZERO_WEIGHT_SCENARIO,
                ["--weights", "0.4,0,0.6"],
                {
                    "report.csv": "b6419f787c20b8e5e8e8f95ac4d69d06883877797e8e47a57aef76b0608eb757",
                    "report.json": "e59ea51de0428638b8d0558c285218c4c3545b8b026394abdda5039266d08298",
                    "stdout": "e5cb5239d8ce95a3b3fbca1dcac660746d19f7c48c29b95318049f2038be488e",
                },
            ),
            (
                ZERO_WEIGHT_SCENARIO,
                ["--weights", "0.4,0,0.6", "--si"],
                {
                    "report.csv": "e294ae273a407c8123e38e3ed6fddc715803bc3ecd7389a1ab016ac8e8ea786e",
                    "report.json": "e684c2ca2e680bd801da978acd0dee9a79ea346e6435f46aa217aeba9dba0a42",
                    "stdout": "cb8afa6c32e99c65d01b82f1deb98969b130bcba07937e20ec6781b0985e5717",
                },
            ),
        ],
        ids=["readme", "zero-weight", "zero-weight-si"],
    )
    def test_cost_bytes_are_pinned(self, tmp_path, capsys, payload, flags, pinned):
        out = tmp_path / "o"
        assert main(["cost", write(tmp_path, "s.json", payload), *flags, "--out", str(out)]) == 0
        streams = capsys.readouterr()
        assert streams.err == ""
        got = {name: (out / name).read_bytes() for name in ("report.csv", "report.json")}
        got.update(stdout=streams.out.encode())
        assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == pinned

    @pytest.mark.parametrize(
        "payload, flags, pinned",
        [
            (
                README_SCENARIO,
                [],
                {
                    "ledger.csv": "7f062802b4b67288eba0a6e1bcb48c8f1ae1d5cb40f72a6694e23ed91392ee23",
                    "widths.tsv": "d6608d8c016975065a7689582116bd7efd09ba1221efde86ea3af6797d1ce535",
                    "stdout": "6e0a3974e0fc58dd1cfffa106451b270dea68ecc47a6c72007138f3289b67bb1",
                    "stderr": "b51e8d6598e93f528d404e0fde3707389c615d3794dc024254cf407fce267fb0",
                },
            ),
            (
                WARNED_SCENARIO,
                ["--si"],
                {
                    "ledger.csv": "9db755bd2be255ebcf7295ae5b5c15d240bda754cd7d7a7082d84ac45bd8bfdc",
                    "widths.tsv": "27b7f95df91b37bd1f6b1baed25da291c3a03447abee75c0cde9f3bc4f074341",
                    "stdout": "c8f28d7797fc5293b3cae77ba633e615011768de4f6d87cd775a4c33050af2e5",
                    "stderr": "125930cfe4df19e84dbfdfd5e0b4e6eeeaa251006b9612b40d1bdf75ce0daf35",
                },
            ),
        ],
        ids=["readme", "warned-si"],
    )
    def test_box_run_bytes_are_pinned(self, tmp_path, capsys, payload, flags, pinned):
        out = tmp_path / "o"
        assert main(["box-run", write(tmp_path, "s.json", payload), *flags, "--out", str(out)]) == 0
        streams = capsys.readouterr()
        got = {name: (out / name).read_bytes() for name in ("ledger.csv", "widths.tsv")}
        got.update(stdout=streams.out.encode(), stderr=streams.err.encode())
        assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == pinned

    @pytest.mark.parametrize(
        "payload, flags, pinned",
        [
            (README_SCENARIO, [], "84df65405019048dfe99318aef2f18a5b133414f7322a9bb098a68d4ba89a7be"),
            # A random restart, not the uniform start, gives the best value.
            (README_SCENARIO, ["--seed", "7"], "2a96a1784dd44b75e42cc728efb69c28120d0b6f19cdad3166a15fd3a5bff32e"),
            (WARNED_SCENARIO, [], "5a1b70a17d770cff66ba25c6cb3423829ae959ba613352ba4084f231dd0123c8"),
            (WARNED_SCENARIO, ["--seed", "5"], "f237e880d0aa830d6b7432d1b1c7223884dd26fd3b72dc8a958c4866b11abc5f"),
        ],
        ids=["readme", "readme-seed-7", "warned", "warned-seed-5"],
    )
    def test_optimize_bytes_are_pinned(self, tmp_path, capsys, payload, flags, pinned):
        # stdout is the file's own text.
        out = tmp_path / "o"
        assert main(["optimize", write(tmp_path, "s.json", payload), *flags, "--out", str(out)]) == 0
        streams = capsys.readouterr()
        assert streams.err == ""
        got = {"optimize.json": (out / "optimize.json").read_bytes(), "stdout": streams.out.encode()}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == {
            "optimize.json": pinned,
            "stdout": pinned,
        }


class TestOtherCommands:
    def test_optimize(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out = tmp_path / "o"
        assert main(["optimize", path, "--out", str(out)]) == 0
        payload = json.loads((out / "optimize.json").read_text())
        assert payload["numeric_value"] == pytest.approx(payload["analytic_value"], abs=1e-6)
        assert payload["numeric_value"] == pytest.approx(payload["glp_work_bound"], abs=1e-6)

    def test_box_run_emits_ledger_and_plot_data(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out = tmp_path / "o"
        assert main(["box-run", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "reconciled = true" in stdout
        ledger = (out / "ledger.csv").read_text().splitlines()
        assert ledger[0] == "step,branch,width,energy,entropy_k,work,heat,temperature"
        widths = (out / "widths.tsv").read_text().splitlines()
        assert widths[0] == "step\tbranch\twidth"
        assert any(line.startswith("4\t") for line in widths[1:])

    def test_box_run_adiabatic_equilibrium_is_all_zero(self, tmp_path, capsys):
        payload = json.loads(json.dumps(RTZ_SCENARIO))
        payload["operation"] = {
            "inputs": ["0", "1"],
            "outputs": ["0", "1"],
            "rows": [[0.7, 0.3], [0.2, 0.8]],
        }
        payload["model"] = {"kind": "adiabatic_equilibrium"}
        path = write(tmp_path, "s.json", payload)
        out = tmp_path / "o"
        assert main(["box-run", path, "--out", str(out)]) == 0
        rows = (out / "ledger.csv").read_text().splitlines()[1:]
        for row in rows:
            work, heat = row.split(",")[5:7]
            assert abs(float(work)) < 1e-12
            assert abs(float(heat)) < 1e-12

    def test_format_flag_limits_outputs(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out = tmp_path / "o"
        assert main(["cost", path, "--format", "csv", "--out", str(out)]) == 0
        assert (out / "report.csv").exists()
        assert not (out / "report.json").exists()

    def test_format_flag_belongs_to_cost_only(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["classify", path, "--format", "csv", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert not out.exists()

    def test_cycle_rle_le(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["cycle", "rle-le", "--p", "0.5", "--p-prime", "0.5", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "net_work = 0.000000 kT" in stdout
        assert "reversible = true" in stdout
        payload = json.loads((out / "cycle.json").read_text())
        assert [leg["name"] for leg in payload["legs"]] == ["unset", "reset", "restore"]
        assert payload["net_heat"] == payload["net_work"]
        reports = {}
        for unit, flags in (("kT", []), ("scenario", ["--si"])):
            run = tmp_path / unit
            command = ["cycle", "rle-le", "--p", "0.5", "--p-prime", "0.25", "--temperature", "2"]
            assert main([*command, *flags, "--out", str(run)]) == 0
            reports[unit] = json.loads((run / "cycle.json").read_text())
            assert reports[unit]["energy_unit"] == unit
            assert reports[unit]["net_heat"] == reports[unit]["net_work"]
        # kT = 2 is a power of two, so the two figures differ by exactly that factor.
        assert reports["scenario"]["net_work"] == 2.0 * reports["kT"]["net_work"] > 0.0
        for si, kt in zip(reports["scenario"]["legs"], reports["kT"]["legs"]):
            assert si["work"] == 2.0 * kt["work"]

    def test_cycle_build(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out = tmp_path / "o"
        assert main(["cycle", "build", path, "--out", str(out)]) == 0
        payload = json.loads((out / "cycle.json").read_text())
        assert payload["total_work"] == pytest.approx(0.0, abs=1e-10)

    def test_cycle_uncertain(self, tmp_path, capsys):
        config = {
            "input": {"probs": [1.0]},
            "branches": [
                {
                    "operation": {"inputs": ["a"], "outputs": ["0", "1"], "rows": [[1.0, 0.0]]},
                    "probability": 0.5,
                },
                {
                    "operation": {"inputs": ["a"], "outputs": ["0", "1"], "rows": [[0.0, 1.0]]},
                    "probability": 0.5,
                },
            ],
        }
        path = write(tmp_path, "c.json", config)
        out = tmp_path / "o"
        assert main(["cycle", "uncertain", path, "--out", str(out)]) == 0
        payload = json.loads((out / "uncertain.json").read_text())
        assert payload["excess"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert payload["mutual_information_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_cycle_partial(self, tmp_path, capsys):
        config = {
            "joint_prior": [[0.5, 0.0], [0.0, 0.5]],
            "operation": {
                "inputs": ["0", "1"],
                "outputs": ["0", "1"],
                "rows": [[1.0, 0.0], [1.0, 0.0]],
            },
        }
        path = write(tmp_path, "c.json", config)
        out = tmp_path / "o"
        assert main(["cycle", "partial", path, "--out", str(out)]) == 0
        payload = json.loads((out / "partial.json").read_text())
        assert payload["excess"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_qbound(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["qbound", "--trials", "25", "--seed", "7", "--env-dim", "4", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "violations: 0" in stdout
        assert "identity_violations = 0" in stdout.splitlines()
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 26
        assert lines[0].count(",") == 6

    def test_manifest_written_for_every_command(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        for args, outdir in (
            (["classify", path], "m1"),
            (["cost", path], "m2"),
            (["box-run", path], "m3"),
        ):
            out = tmp_path / outdir
            assert main(args + ["--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["inputs"]
            assert manifest["versions"]["thermologic"]
            assert "seed" in manifest


# Runs the command line as ``python -m thermologic.cli`` does, then prints, as
# its last stdout line, the package modules the run loaded.
LOADED_MODULES = """
import json, runpy, sys
try:
    runpy.run_module("thermologic.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("thermologic."))]))
"""


class TestStartupImports:
    @pytest.mark.parametrize(
        "command, unloaded",
        [
            ("classify", {"costs", "boxprotocol", "cycles", "quantum"}),
            ("cost", {"cycles", "quantum"}),
            ("optimize", {"cycles", "quantum"}),
            ("box-run", {"cycles", "quantum"}),
            ("cycle build", {"boxprotocol", "quantum"}),
            ("qbound", {"boxprotocol", "cycles"}),
        ],
    )
    def test_subcommand_imports_only_its_layers(self, tmp_path, command, unloaded):
        if command == "qbound":
            args = ["qbound", "--trials", "2", "--env-dim", "2"]
        else:
            args = [*command.split(), write(tmp_path, "s.json", RTZ_SCENARIO)]
        src = str(Path(thermologic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, *args, "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        loaded = {name.removeprefix("thermologic.") for name in modules}
        assert "serialize" in loaded and not loaded & unloaded
