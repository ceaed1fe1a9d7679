import json
import math

import pytest

from thermologic.cli import main
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


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_si_units(self, tmp_path):
        payload = dict(RTZ_SCENARIO, units="si")
        sc = load_scenario(write(tmp_path, "s.json", payload))
        assert sc.units.k_B == pytest.approx(1.380649e-23)


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

    def test_non_finite_qbound_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text('{"trials": 2, "reference_temperature": Infinity}')
        assert main(["qbound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", RTZ_SCENARIO)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["cost", path, "--seed", "3", "--out", str(out1)]) == 0
        assert main(["cost", path, "--seed", "3", "--out", str(out2)]) == 0
        for name in ("report.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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

    def test_cycle_rle_le(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["cycle", "rle-le", "--p", "0.5", "--p-prime", "0.5", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "net_work = 0.000000 kT" in stdout
        assert "reversible = true" in stdout

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
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 26

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
