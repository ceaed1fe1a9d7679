"""thermologic benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload accounting --seed 1 --seconds 22 --trace 0

Workloads: ``accounting``, ``crosscheck``, ``qbound``, ``cli`` (see
``bench/README.md``).  Run from the root of a checkout; the package is
imported from ``src/`` of that checkout, never from an installed copy.

A run imports thermologic and generates its inputs from the seed (the
set-up), then repeats whole rounds of the workload's fixed operations,
closed loop and one at a time, for ``--seconds`` and at least
``MIN_ROUNDS`` rounds of at least 40 operations.  Each operation is timed
alone; its outputs are checked after the clock stops.  A fixed reference
computation runs between operations, and every time is reported scaled
to the speed at which the reference takes ``speed.NOMINAL_S`` (see
``bench/speed.py``), which takes the shared host's drifting speed out of
the figures.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts, set
# before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("accounting", "crosscheck", "qbound", "cli")
MIN_OPERATIONS = 40  # distinct operations per round: ten lie beyond op_p75_ms
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of five
CLI_PROBES = 5
REFERENCE_EVERY = 1  # operations between two runs of the speed reference, unless the workload sets it
EXIT_NO_PROGRAM = 2


@dataclass
class Context:
    root: Path
    workdir: Path  # this process's scratch directory inside the checkout
    env: dict  # environment of every child process
    tracer: object = None


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def set_up(name: str, seed: int, ctx: Context):
    """Import thermologic and generate the inputs; returns (seconds, workload, ops).

    The seconds are scaled to the nominal speed by the reference run right
    after the set-up (numpy is imported by then).
    """
    start = time.perf_counter()
    for module in ("logic", "thermo", "costs", "boxprotocol", "cycles", "quantum", "serialize"):
        importlib.import_module(f"thermologic.{module}")
    workload = importlib.import_module(f"workloads.{name}")
    ops = workload.generate(seed, ctx)
    seconds = time.perf_counter() - start
    import speed  # only now, so that numpy's import stays inside the set-up above

    return seconds * speed.current_factor(), workload, ops


def probe_setups(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_rounds(workload, ops, ctx, seconds: float, min_rounds: int, memo: dict):
    """Whole rounds for ``seconds``; returns (latencies, failed, problems, rounds).

    A round starts only if it can end by ``seconds`` at the pace of the
    rounds before it.  The speed reference runs before the round and after
    every ``REFERENCE_EVERY`` operations, so each operation is bracketed by
    two reference times, and its latency is scaled by their mean
    (``bench/speed.py``): the host's speed changes within seconds, and a
    reference further away tracked it less well.  A workload whose
    operations are processes (``REFERENCE = "process"``) is scaled by a
    reference process.
    """
    import speed

    if getattr(workload, "REFERENCE", None) == "process":
        reference, nominal = (lambda: speed.reference_process(ctx.env)), speed.NOMINAL_PROCESS_S
    else:
        reference, nominal = speed.reference, speed.NOMINAL_S
    every = getattr(workload, "REFERENCE_EVERY", REFERENCE_EVERY)
    latencies: list[tuple[object, float]] = []
    failed = 0
    problems: list[str] = []
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        timed, references = [], [reference()]
        for index, op in enumerate(ops, 1):
            begin = time.perf_counter()
            try:
                outcome = workload.run(op, ctx)
            except Exception:  # an operation that raises is counted as failed
                failed += 1
                print(f"{op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
                outcome = None
            else:
                timed.append((op, time.perf_counter() - begin, len(references) - 1))
            if index % every == 0 or index == len(ops):
                references.append(reference())
            if outcome is not None:
                problems.extend(workload.check(op, outcome, memo))
        latencies += [(op, elapsed * speed.factor(references[before:before + 2], nominal))
                      for op, elapsed, before in timed]
        rounds += 1
    return latencies, failed, problems, rounds


def median_latencies(timed) -> dict[int, float]:
    """Each operation's median scaled latency over the run's rounds, by ``id`` of the operation.

    Every round repeats the same operations, so the median over rounds
    leaves out the seconds in which the host's speed jumps.  The
    percentiles are then taken over operations, which keeps the spread
    between sizes.
    """
    by_op: dict[int, list[float]] = {}
    for op, seconds in timed:
        by_op.setdefault(id(op), []).append(seconds)
    return {key: statistics.median(values) for key, values in by_op.items()}


def cli_probe(ctx) -> dict:
    """Median wall time of a bare interpreter, and of importing the CLI on top of it."""
    def median_wall(code):
        walls = []
        for _ in range(CLI_PROBES):
            begin = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ctx.root, env=ctx.env, check=True)
            walls.append(time.perf_counter() - begin)
        return statistics.median(walls)

    start = median_wall("pass")
    return {"python_start_s": start, "import_s": median_wall("import thermologic.cli") - start}


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "thermologic" / "__init__.py").is_file():
        print(f"no thermologic sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(root=ROOT, workdir=workdir, env=child_env())
    try:
        return measure(args, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ctx: Context) -> int:
    setup_s, workload, ops = set_up(args.workload, args.seed, ctx)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if len(ops) < MIN_OPERATIONS:
        raise ValueError(f"{args.workload} has {len(ops)} operations per round, fewer than {MIN_OPERATIONS}")
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per round, "
          f"BLAS threads {BLAS_THREADS['OPENBLAS_NUM_THREADS']}")
    if args.trace:
        metrics, rounds, failed, problems = per_layer_metrics(args, ctx, workload, ops)
    else:
        metrics, rounds, failed, problems = end_to_end_metrics(args, ctx, workload, ops, setup_s)
    attempted = len(ops) * rounds
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{rounds} rounds, {attempted} operations attempted, {failed} failed, "
          f"{len(problems)} check failures")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(args, ctx, workload, ops, setup_s):
    setup_runs = [setup_s] + probe_setups(args.workload, args.seed)
    timed, failed, problems, rounds = run_rounds(
        workload, ops, ctx, args.seconds, workload.MIN_ROUNDS, {})
    latencies = list(median_latencies(timed).values())
    metrics = {
        "setup_s": {"value": statistics.median(setup_runs), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_p75_ms": {"value": statistics.quantiles(latencies, n=4)[2] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB"},
    }
    return metrics, rounds, failed, problems


def per_layer_metrics(args, ctx, workload, ops):
    """Untraced and traced rounds in turn for ``--seconds``, at least one of each.

    The untraced rounds give the ``cli.<subcommand>.wall_ms`` figures and
    the baseline for ``trace.overhead_s``; alternating the two keeps the
    machine's drifting speed out of that difference.
    """
    import layers
    import tracer

    spans = tracer.Tracer()
    memo: dict = {}
    untraced, traced = [], []
    failed, problems, rounds = 0, [], 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        timed, failed_plain, problems_plain, _ = run_rounds(workload, ops, ctx, 0.0, 1, memo)
        ctx.tracer = spans
        restore = tracer.install(spans)
        try:
            timed_traced, failed_traced, problems_traced, _ = run_rounds(workload, ops, ctx, 0.0, 1, memo)
        finally:
            restore()
            ctx.tracer = None
        untraced += timed
        traced += timed_traced
        failed += failed_plain + failed_traced
        problems += problems_plain + problems_traced
        rounds += 1
    plain = median_latencies(untraced)
    walls: dict[str, list[float]] = {}
    for op in ops:
        walls.setdefault(getattr(op, "sub", ""), []).append(plain[id(op)] * 1e3)
    values = layers.compute(
        spans, rounds, ops,
        cli_walls={sub: statistics.median(v) for sub, v in walls.items()},
        cli_probe=cli_probe(ctx) if args.workload == "cli" else {},
        overhead_s=sum(median_latencies(traced).values()) - sum(plain.values()),
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.definitions()}
    results = ctx.root / "bench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"rounds": rounds, "metrics": metrics, "tracer": spans.export()}, indent=1)
    )
    return metrics, 2 * rounds, failed, problems


if __name__ == "__main__":
    sys.exit(main())
