"""``cli``: one ``thermologic`` subprocess per operation.

A round runs all nine subcommands (``classify``, ``cost`` with and
without ``--weights``, ``optimize``, ``box-run``, ``cycle rle-le``,
``cycle build`` with and without ``--middle-input``, ``cycle uncertain``,
``cycle partial`` and a small ``qbound``) on the README scenario and on
scenario and config files of at most eight states written at set-up.
Starting the interpreter, importing the package, parsing and writing
reports cost more here than the computation does, so a change that
trades start-up or small-input time for large-input speed shows here.

Each operation writes to its own output directory, reused every round
with the same config and seed, so later rounds must reproduce the first
round's files byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import types

import numpy as np

import oracle

from .inputs import operation_matrix, positive_dist, rng_for, thermo_table
from .qbound import trial_problems

MIN_ROUNDS = 2
# Each operation is a new interpreter, so the speed reference is one too.
# It costs almost as much as an operation, so it brackets pairs of them.
REFERENCE = "process"
REFERENCE_EVERY = 2
TIMEOUT_S = 120
SUBCOMMANDS = (
    "classify",
    "cost",
    "optimize",
    "box-run",
    "cycle-rle-le",
    "cycle-build",
    "cycle-uncertain",
    "cycle-partial",
    "qbound",
)

# The reset-to-zero scenario of the README: two equiprobable inputs, uniform model.
README_SCENARIO = {
    "units": "natural",
    "reference_temperature": 1.0,
    "baths": [{"temperature": 1.0}],
    "input": {"labels": ["0", "1"], "probs": [0.5, 0.5]},
    "operation": {"inputs": ["0", "1"], "outputs": ["0", "1"], "rows": [[1.0, 0.0], [1.0, 0.0]]},
    "output": {"labels": ["0", "1"]},
    "model": {"kind": "uniform", "E_R": 0.0, "S_R": 0.0},
}


def _explicit_scenario(rng, n_in, n_out):
    p = positive_dist(rng, n_in)
    matrix = operation_matrix(rng, n_in, n_out, "dense")
    tables = thermo_table(rng, n_in) + thermo_table(rng, n_out)
    t_ref = float(rng.uniform(0.5, 2.0))
    e_in, s_in, t_in, e_out, s_out, t_out = (a.tolist() for a in tables)
    labels_in = [f"i{i}" for i in range(n_in)]
    labels_out = [f"o{j}" for j in range(n_out)]
    data = {
        "reference_temperature": t_ref,
        "input": {
            "labels": labels_in,
            "probs": p.tolist(),
            "thermo": [{"E": e, "S": s, "T": t} for e, s, t in zip(e_in, s_in, t_in)],
        },
        "operation": {"inputs": labels_in, "outputs": labels_out, "rows": matrix.tolist()},
        "output": {
            "labels": labels_out,
            "thermo": [{"E": e, "S": s, "T": t} for e, s, t in zip(e_out, s_out, t_out)],
        },
    }
    facts = types.SimpleNamespace(p=p, matrix=matrix, t_ref=t_ref, e_in=tables[0], s_in=tables[1],
                                  e_out=tables[3], s_out=tables[4], labels=(labels_in, labels_out))
    return data, facts


def _readme_facts():
    m = np.array(README_SCENARIO["operation"]["rows"])
    zeros = np.zeros(2)
    labels = (README_SCENARIO["operation"]["inputs"], README_SCENARIO["operation"]["outputs"])
    return types.SimpleNamespace(p=np.array([0.5, 0.5]), matrix=m, t_ref=1.0, e_in=zeros,
                                 s_in=zeros, e_out=zeros, s_out=zeros, labels=labels)


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write(ctx, name: str, data) -> str:
    """Write a JSON input file; return its path relative to the checkout, as the CLI gets it."""
    path = ctx.workdir / name
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path.relative_to(ctx.root))


def _uncertain(rng, n_in, n_out, n_branches):
    gamma = positive_dist(rng, n_branches)
    ops = [operation_matrix(rng, n_in, n_out, "dense") for _ in range(n_branches)]
    p = positive_dist(rng, n_in)
    inputs, outputs = [f"i{i}" for i in range(n_in)], [f"o{j}" for j in range(n_out)]
    config = {
        "reference_temperature": 1.0,
        "input": {"probs": p.tolist()},
        "branches": [
            {"probability": g, "operation": {"inputs": inputs, "outputs": outputs, "rows": m.tolist()}}
            for g, m in zip(gamma.tolist(), ops)
        ],
    }
    return config, {"mi": oracle.mutual_information(gamma, [p @ m for m in ops])}


def _partial(rng, n_in, n_out, n_bystander):
    m = operation_matrix(rng, n_in, n_out, "dense")
    prior = positive_dist(rng, n_in)[:, None] * rng.dirichlet(np.ones(n_bystander), size=n_in)
    config = {
        "reference_temperature": 1.0,
        "operation": {"inputs": [f"i{i}" for i in range(n_in)],
                      "outputs": [f"o{j}" for j in range(n_out)], "rows": m.tolist()},
        "joint_prior": prior.tolist(),
    }
    return config, {"cmi": oracle.conditional_mutual_information(prior, m)}


def _qbound(rng, blocks, env_dim, t_ref):
    config = {
        "system_blocks": list(blocks),
        "env_dim": env_dim,
        "reference_temperature": t_ref,
        "input_probs": positive_dist(rng, len(blocks)).tolist(),
        "target_output_probs": positive_dist(rng, len(blocks)).tolist(),
        "trials": QBOUND_TRIALS,
        "seed": int(rng.integers(2**31)),
    }
    return config, {"t_ref": t_ref}


QBOUND_TRIALS = 16


def generate(seed: int, ctx) -> list:
    rng = rng_for(seed, 3000)
    files = {"readme": (_write(ctx, "readme.json", README_SCENARIO), _readme_facts())}
    for n_in, n_out in ((3, 3), (4, 2), (5, 4), (6, 6), (8, 8)):
        data, facts = _explicit_scenario(rng, n_in, n_out)
        files[f"{n_in}x{n_out}"] = _write(ctx, f"scenario{n_in}x{n_out}.json", data), facts

    def on(sub, name, *extra, **expect):
        path, facts = files[name]
        args = sub.split() + [path, *extra]
        return sub.replace(" ", "-"), args, {"facts": facts, **expect}

    def weighted(sub, name, key="--weights"):
        weights = positive_dist(rng, files[name][1].matrix.shape[0])
        return on(sub, name, key, _csv_list(weights), weights=weights, middle=weights)

    plan = [on("classify", name) for name in ("readme", "3x3", "4x2", "5x4", "8x8")]
    plan += [on("cost", name, weights=None, landauer=name == "readme")
             for name in ("readme", "3x3", "5x4")]
    plan += [weighted("cost", name) for name in ("readme", "4x2", "6x6", "8x8")]
    plan += [on("optimize", name) for name in ("readme", "3x3", "4x2", "5x4")]
    plan += [on("box-run", name) for name in ("readme", "3x3", "5x4", "6x6", "8x8")]
    plan += [on("cycle build", name, middle=None) for name in ("readme", "6x6")]
    plan += [weighted("cycle build", name, "--middle-input") for name in ("readme", "3x3", "5x4")]
    for model in ("uniform", "uniform", "adiabatic_equilibrium", "adiabatic_equilibrium"):
        p, p_prime = (float(v) for v in rng.uniform(0.05, 0.95, 2))
        plan.append(("cycle-rle-le", ["cycle", "rle-le", "--p", repr(p), "--p-prime", repr(p_prime),
                                      "--model", model], {"kl": oracle.kl_nats(p, p_prime)}))
    configs = [
        ("cycle uncertain", _uncertain(rng, 4, 3, 2)),
        ("cycle uncertain", _uncertain(rng, 3, 3, 3)),
        ("cycle uncertain", _uncertain(rng, 5, 2, 2)),
        ("cycle uncertain", _uncertain(rng, 2, 4, 4)),
        ("cycle partial", _partial(rng, 4, 3, 2)),
        ("cycle partial", _partial(rng, 3, 3, 3)),
        ("cycle partial", _partial(rng, 5, 2, 2)),
        ("cycle partial", _partial(rng, 2, 4, 4)),
        ("qbound", _qbound(rng, (2, 2), 4, 0.8)),
        ("qbound", _qbound(rng, (1, 3), 4, 1.5)),
    ]
    for index, (sub, (config, expect)) in enumerate(configs):
        path = _write(ctx, f"config{index}.json", config)
        plan.append((sub.replace(" ", "-"), [*sub.split(), *(["--config"] if sub == "qbound" else []), path],
                     expect))
    plan.append(("qbound", ["qbound", "--trials", str(QBOUND_TRIALS), "--blocks", "1,3", "--env-dim", "4"],
                 {"t_ref": 1.0}))
    plan.append(("qbound", ["qbound", "--trials", str(QBOUND_TRIALS), "--blocks", "2,2", "--env-dim", "8",
                            "--t-ref", "0.5"], {"t_ref": 0.5}))

    cli_seed = str(int(rng.integers(2**31)))
    rel = ctx.workdir.relative_to(ctx.root)
    ops = []
    for index, (sub, args, expect) in enumerate(plan):
        out = rel / f"out{index:02d}"
        facts = expect.get("facts")
        ops.append(
            types.SimpleNamespace(
                label=f"cli[{index}] {' '.join(args[:3])}",
                sub=sub,
                args=[*args, "--out", str(out), "--seed", cli_seed],
                outdir=ctx.root / out,
                transitions=0 if facts is None else int((facts.matrix > 0.0).sum()),
                trials=QBOUND_TRIALS if sub == "qbound" else 0,
                expect=expect,
            )
        )
    return ops


def run(op, ctx):
    if ctx.tracer is None:
        command = [sys.executable, "-m", "thermologic.cli", *op.args]
    else:
        stats = ctx.workdir / "trace.json"
        command = [sys.executable, str(ctx.root / "bench" / "clitrace.py"), str(stats), *op.args]
    proc = subprocess.run(
        command, cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    if ctx.tracer is not None and proc.returncode == 0:
        ctx.tracer.merge(json.loads(stats.read_text()))
    return proc


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text), delimiter="\t" if name.endswith(".tsv") else ","))
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("ragged or empty table")
    return rows


def _cost_reference(facts, weights):
    w = facts.p if weights is None else weights
    work, _ = oracle.transition_costs(facts.t_ref, facts.e_in, facts.s_in, facts.e_out,
                                      facts.s_out, facts.matrix, w)
    return oracle.expectation(facts.p, facts.matrix, work) / facts.t_ref, work / facts.t_ref


def check(op, proc, memo) -> list[str]:
    if proc.returncode != 0:
        return [f"{op.label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    problems = []
    need = lambda ok, what: ok or problems.append(what)
    files, parsed = {}, {}
    for path in sorted(op.outdir.iterdir()):
        data = path.read_bytes()
        files[path.name] = hashlib.sha256(data).hexdigest()
        try:
            parsed[path.name] = _parse(path.name, data.decode())
        except ValueError as exc:
            problems.append(f"{path.name} does not parse: {exc}")
    need("manifest.json" in files, "no manifest.json")
    first = memo.setdefault(op.label, files)
    need(first == files, f"files differ from the first invocation: {sorted(set(first.items()) ^ set(files.items()))[:2]}")
    if len(parsed) < len(files):
        return [f"{op.label}: {msg}" for msg in problems]

    expect, tol = op.expect, oracle.ID_TOL
    facts = expect.get("facts")
    if op.sub == "classify":
        got = parsed["classify.json"]
        m = facts.matrix
        need(got["deterministic"] == bool(np.all((m <= 1e-9) | (m >= 1 - 1e-9))), "deterministic flag wrong")
        need(got["reversible"] == bool(np.all((m > 1e-9).sum(axis=0) <= 1)), "reversible flag wrong")
        for key, dist in (("input_entropy_bits", facts.p), ("output_entropy_bits", facts.p @ m)):
            need(oracle.close(got[key], oracle.entropy_nats(dist) / math.log(2.0)), f"{key} wrong")
    elif op.sub == "cost":
        want, _ = _cost_reference(facts, expect["weights"])
        got = parsed["report.json"]["expected_work"]
        need(oracle.close(got, want, 1.0), f"expected work {got!r} kT, closed form {want!r}")
        if expect.get("landauer"):
            need(abs(got - math.log(2.0)) <= tol, f"README reset costs {got!r} kT, not ln 2")
        last = parsed["report.csv"][-1]
        need(last[0] == "<expected>" and float(last[3]) == got, "report.csv disagrees with report.json")
    elif op.sub == "optimize":
        got = parsed["optimize.json"]
        bound, _, _ = oracle.bounds(facts.t_ref, facts.p, facts.matrix, facts.e_in, facts.s_in,
                                    facts.e_out, facts.s_out)
        bound /= facts.t_ref
        need(abs(got["numeric_value"] - bound) <= oracle.MIN_TOL, f"numeric optimum {got['numeric_value']!r}")
        need(oracle.close(got["analytic_value"], bound, 1.0), "analytic value misses the bound")
        need(oracle.close(got["glp_work_bound"], bound, 1.0), "glp work bound wrong")
    elif op.sub == "box-run":
        need("reconciled = true" in proc.stdout.splitlines(), "box-run did not print reconciled = true")
        _, work = _cost_reference(facts, None)
        labels = {}
        for line in proc.stdout.splitlines():
            if line.startswith("trajectory "):
                branch, rest = line[len("trajectory "):].split(": ", 1)
                labels[branch] = float(rest.split("work = ")[1].split()[0])
        live = list(zip(*np.nonzero(facts.matrix)))
        need(len(labels) == len(live), f"{len(labels)} trajectories printed for {len(live)} branches")
        names_in, names_out = facts.labels
        for i, j in live:
            printed = labels.get(f"{names_in[i]}->{names_out[j]}")
            need(printed is not None and abs(printed - work[i, j]) <= 5.1e-7,
                 f"trajectory {i}->{j} work {printed!r}, closed form {work[i, j]!r}")
    elif op.sub == "cycle-rle-le":
        got = parsed["cycle.json"]["net_work"]
        need(oracle.close(got, expect["kl"]), f"net work {got!r}, KL {expect['kl']!r}")
    elif op.sub == "cycle-build":
        got = parsed["cycle.json"]
        scale = sum(abs(v) for v in got["leg_works"])
        if expect["middle"] is None:
            need(abs(got["total_work"]) <= tol * (1.0 + scale), f"matched cycle costs {got['total_work']!r}")
        else:
            want = oracle.suboptimal_cycle_work(1.0, facts.matrix, facts.p, expect["middle"])
            need(oracle.close(got["total_work"], want, scale), f"cycle costs {got['total_work']!r}, KL form {want!r}")
    elif op.sub == "cycle-uncertain":
        got = parsed["uncertain.json"]
        need(oracle.close(got["cycle_total"], got["excess"], sum(map(abs, got["branch_works"]))),
             "cycle total differs from excess")
        need(oracle.close(got["mutual_information_nats"], expect["mi"]), "mutual information wrong")
    elif op.sub == "cycle-partial":
        got = parsed["partial.json"]
        need(oracle.close(got["cycle_total"], got["excess"], abs(got["forward_work"]) + abs(got["restore_work"])),
             "cycle total differs from excess")
        need(oracle.close(got["conditional_mutual_information_nats"], expect["cmi"]), "CMI wrong")
    elif op.sub == "qbound":
        need("violations: 0" in proc.stdout.splitlines(), "qbound reports violations")
        rows = parsed["trials.csv"]
        for row in rows[1:]:
            work, bound, slack, subadd, rel = (float(v) for v in row[1:6])
            problems.extend(trial_problems(expect["t_ref"], work, bound, slack, subadd, rel)[:1])
        need(len(rows) == QBOUND_TRIALS + 1, f"{len(rows) - 1} trials written")
    return [f"{op.label}: {msg}" for msg in problems[:5]]

