"""The benchmark's checks pass on real outputs and flag planted wrong ones.

    python3 -m pytest bench

Each family of check gets one planted fault: an expected work off by
1e-6, a shifted ledger row, a quantum slack that breaks its identity and
a corrupted CLI output file.  Every workload's full round also has to
pass its checks on a seed other than the one used while writing them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import layers
import run as bench
import thermologic
import tracer
from thermologic import boxprotocol, costs
from workloads import accounting, cli, crosscheck, qbound

ROOT = Path(__file__).resolve().parent.parent
SECOND_SEED = 2


@pytest.fixture
def ctx(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    return bench.Context(root=tmp_path, workdir=workdir, env=bench.child_env())


def pick(ops, label_part):
    return next(op for op in ops if label_part in op.label)


def test_accounting_flags_expected_work_off_by_1e_6(ctx):
    op = pick(accounting.generate(7, ctx), "8x8 dense explicit")
    out = accounting.run(op, ctx)
    assert accounting.check(op, out, {}) == []
    out.rep_opt = dataclasses.replace(out.rep_opt, expected_work=out.rep_opt.expected_work + 1e-6)
    problems = accounting.check(op, out, {})
    assert any("expected work" in p for p in problems), problems


def test_crosscheck_flags_shifted_ledger_row(ctx):
    op = pick(crosscheck.generate(7, ctx), "5x5 dense")
    out = crosscheck.run(op, ctx)
    assert crosscheck.check(op, out, {}) == []
    rows = list(out.ledger.rows)
    k = next(i for i, row in enumerate(rows) if row.step == 7)
    rows[k] = dataclasses.replace(rows[k], work=rows[k].work + 1e-3, heat=rows[k].heat + 1e-3)
    bad = boxprotocol.ProtocolLedger(tuple(rows), out.ledger.layouts, out.ledger.warnings)
    out.ledger = bad
    out.reconciled = boxprotocol.reconcile(bad, out.scenario, out.weights)
    out.totals = bad.trajectory_totals()
    out.expected = bad.expected_totals(out.scenario)
    problems = crosscheck.check(op, out, {})
    assert any("trajectory totals differ" in p for p in problems), problems
    assert any("expected totals" in p for p in problems), problems


def test_qbound_flags_slack_breaking_its_identity(ctx):
    op = qbound.generate(7, ctx)[1]
    out = qbound.run(op, ctx)
    assert qbound.check(op, out, {}) == []
    results = list(out.results)
    results[3] = dataclasses.replace(results[3], slack=results[3].slack + 1e-6)
    problems = qbound.check(op, dataclasses.replace(out, results=tuple(results)), {})
    assert any("trial 3" in p and "subadditivity + relative entropy" in p for p in problems), problems


@pytest.mark.parametrize(
    "corrupt, flagged",
    [
        # ln 2 = 0.6931471805599453 kT is the README reset's cost
        (lambda text: text.replace("0.6931471805599453", "0.6931481805599453"), "not ln 2"),
        (lambda text: text.replace("0.6931471805599453", "0.6931471805599454"), None),
        (lambda text: text[: len(text) // 2], "does not parse"),
    ],
    ids=["value", "last-digit", "truncated"],
)
def test_cli_flags_corrupted_output_file(ctx, corrupt, flagged):
    op = pick(cli.generate(7, ctx), "cost ")
    memo = {}
    assert cli.check(op, cli.run(op, ctx), memo) == []
    proc = cli.run(op, ctx)
    report = op.outdir / "report.json"
    report.write_text(corrupt(report.read_text()))
    problems = cli.check(op, proc, memo)
    assert any("differ from the first invocation" in p for p in problems), problems
    if flagged is not None:
        assert any(flagged in p for p in problems), problems


@pytest.mark.parametrize("workload", [accounting, crosscheck, qbound, cli])
def test_round_passes_on_a_second_seed(ctx, workload):
    memo = {}
    for op in workload.generate(SECOND_SEED, ctx):
        assert workload.check(op, workload.run(op, ctx), memo) == []


def test_tracer_nests_spans_and_restores_the_package():
    original = costs.expected_cost
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        assert costs.expected_cost is not original
        assert thermologic.expected_cost is costs.expected_cost
        ops = crosscheck.generate(3, None)
        crosscheck.run(ops[5], None)
    finally:
        restore()
    assert costs.expected_cost is original and thermologic.expected_cost is original
    calls, busy, self_s = spans.stats["boxprotocol.reconcile"]
    assert calls == 1 and 0.0 < self_s < busy
    assert spans.stats["boxprotocol.run_protocol"][0] == 2  # once by the operation, once by reconcile
    rows = spans.counters["boxprotocol.ledger_rows"] // 2
    # trajectory_totals scans every row once per branch, four times per operation:
    # twice inside reconcile and twice from the operation itself.
    branches = ops[5].transitions
    assert spans.counters["boxprotocol.rows_scanned"] == 4 * branches * rows


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.definitions()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
