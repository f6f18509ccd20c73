"""The mobsim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0

Each repetition runs the whole pipeline (synth, build-graphs, train or
pretrain, generate, evaluate) in a fresh child process (``pipeline.py``), so
that its peak memory belongs to that workload alone.  Repetitions run one
after another until ``--seconds`` have passed, and never fewer than the
schedule below needs.

``--trace 0`` cycles through ``INPUTS`` input sets derived from ``--seed``
and then repeats them; every repeat must write byte-identical generated.txt
and report.txt.  It prints the end-to-end metrics (see ``end_to_end``).

``--trace 1`` runs the first input set untraced, then traced, then traced
again, alternating after that.  It prints the per-layer metrics, the span
coverage and the tracing overhead (see ``per_layer``).  Every count must
repeat exactly between the traced repetitions, and each command's spans must
cover at least ``MIN_COVERAGE`` of its wall time (see ``covered``).

A failed operation is a command that exits non-zero or whose output fails a
check.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the whole record, with the
environment and every repetition, is written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_runs")
INPUTS = 3               # distinct input sets per untraced run
MIN_COVERAGE = 0.95
# The command root (argument parsing, the body of a ``cli.cmd_*`` function,
# freeing its locals) spends a few milliseconds outside every layer; a command
# may leave this much uncovered however short it is.
UNCOVERED_FLOOR_S = 0.010
PIPELINE_COMMANDS = 5    # operations a repetition that crashed is charged with
DEADLINE_S = 170.0       # the whole invocation stays under 180 s

sys.path.insert(0, HERE)
from pipeline import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402


def input_seed(seed: int, index: int) -> int:
    """The program seed of input set ``index`` of workload seed ``seed``."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{index}".encode()).digest()[:4], "little")


def blas_threads() -> tuple[int, int]:
    """(nproc, BLAS threads): the thread count is the caller's setting, or
    nproc, and never more than nproc."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        threads = int(requested) if requested else nproc
    except ValueError:
        threads = nproc
    return nproc, max(1, min(threads, nproc))


def git_commit() -> str:
    """HEAD of the checkout; "unknown" when the checkout is no git repository
    (the search stops there, so an enclosing repository is not reported)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seeds: dict) -> dict:
    import numpy as np

    nproc, threads = blas_threads()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seeds": seeds,
    }


def run_child(workload, seed, trace, rep_dir, deadline):
    """One repetition in a child process; returns its result or an error."""
    _, threads = blas_threads()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    argv = [sys.executable, os.path.join(HERE, "pipeline.py"), "--workload", workload,
            "--seed", str(seed), "--dir", rep_dir, "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), None


def schedule(trace: int):
    """(input index, traced) of each repetition, without end."""
    if trace:
        yield from [(0, False), (0, True)]
        while True:
            yield 0, True
            yield 0, False
    index = 0
    while True:
        yield index % INPUTS, False
        index += 1


def min_reps(trace: int) -> int:
    """Repetitions every run makes: untraced, one per input set plus a
    same-seed repeat; traced, an untraced one and two traced ones."""
    return 3 if trace else INPUTS + 1


def exact_counts(trace: dict) -> dict:
    """Per command: every call count and counter, except the collector's,
    which depends on allocation timing."""
    out = {}
    for command, calls in trace["calls"].items():
        out[command] = {f"{k}.calls": v for k, v in calls.items()}
    for command, counts in trace["counts"].items():
        out.setdefault(command, {}).update(
            {k: v for k, v in counts.items() if not k.startswith("nn.core.gc_")})
    return out


# Per-layer metrics: (name, unit, how to read it from a trace summary).
def _busy(*names):
    return lambda t: sum(t["busy"].get(n, 0.0) for n in names)


def _calls(name):
    return lambda t: sum(c.get(name, 0) for c in t["calls"].values())


def _count(name):
    return lambda t: sum(c.get(name, 0) for c in t["counts"].values())


def _ratio(part, other):
    def read(t):
        a, b = _count(part)(t), _count(other)(t)
        return a / (a + b) if a + b else 0.0
    return read


def _per_call(count, calls):
    def read(t):
        n = _calls(calls)(t)
        return _count(count)(t) / n if n else 0.0
    return read


READS = ("read_trajectories", "read_locations", "read_id_map", "attach_observed")
WRITES = ("write_trajectories", "write_locations", "write_observed", "write_id_map")
HISTOGRAMS = ("step_distances", "gyration_radii", "duration_histogram",
              "daily_locations_histogram", "global_rank_histogram",
              "individual_rank_histogram")

PER_LAYER = [
    ("synth.synth_generate_s", "s", _busy("synth.synth_generate")),
    ("graphs.build_sdg_s", "s", _busy("graphs.build_sdg")),
    ("graphs.build_ttg_s", "s", _busy("graphs.build_ttg")),
    ("graphs.build_stg_s", "s", _busy("graphs.build_stg")),
    ("records.read_s", "s", _busy(*(f"records.{n}" for n in READS))),
    ("records.write_s", "s", _busy(*(f"records.{n}" for n in WRITES))),
    ("records.rows", "count", _count("records.rows")),
    ("nn.attention.graph_attention_s", "s", _busy("nn.attention.graph_attention")),
    ("nn.attention.graph_attention.calls", "count", _calls("nn.attention.graph_attention")),
    ("nn.attention.graph_attention.bytes_computed", "bytes",
     _count("nn.attention.graph_attention.bytes_computed")),
    ("nn.layers.gru_cell_s", "s", _busy("nn.layers.gru_cell")),
    ("nn.layers.gru_cell.calls", "count", _calls("nn.layers.gru_cell")),
    ("nn.layers.gru_cell.rows", "count", _count("nn.layers.gru_cell.rows")),
    ("nn.core.backward_s", "s", _busy("nn.core.backward")),
    ("nn.core.backward.calls", "count", _calls("nn.core.backward")),
    ("nn.core.tape_nodes_per_backward", "count",
     _per_call("nn.core.tape_nodes", "nn.core.backward")),
    ("nn.core.gc_collected", "count", _count("nn.core.gc_collected")),
    ("nn.core.gc_collections", "count", _count("nn.core.gc_collections")),
    ("nn.optim.step_s", "s", _busy("nn.optim.step")),
    ("generator.embed_locations_s", "s", _busy("generator.embed_locations")),
    ("generator.embed_locations.calls", "count", _calls("generator.embed_locations")),
    ("generator.sequence_nll_s", "s", _busy("generator.sequence_nll")),
    ("generator.complete_batch_s", "s", _busy("generator.complete_batch")),
    ("generator.complete_batch.calls", "count", _calls("generator.complete_batch")),
    ("generator.complete_batch.rows_sampled", "count",
     _count("generator.complete_batch.rows_sampled")),
    ("generator.complete_batch.rows_replayed", "count",
     _count("generator.complete_batch.rows_replayed")),
    ("generator.complete_batch.replay_ratio", "ratio",
     _ratio("generator.complete_batch.rows_replayed", "generator.complete_batch.rows_sampled")),
    ("discriminator.classify_s", "s", _busy("discriminator.classify")),
    ("discriminator.classify.calls", "count", _calls("discriminator.classify")),
    ("discriminator.classify.rows", "count", _count("discriminator.classify.rows")),
    ("discriminator.d_loss_s", "s", _busy("discriminator.d_loss")),
    ("training.pretrain_generator_s", "s", _busy("training.pretrain_generator")),
    ("training.pretrain_discriminator_s", "s", _busy("training.pretrain_discriminator")),
    ("training.compute_rewards_s", "s", _busy("training.compute_rewards")),
    ("training.compute_rewards.calls", "count", _calls("training.compute_rewards")),
    ("training.policy_gradient_step_s", "s", _busy("training.policy_gradient_step")),
    ("training.adversarial_train_s", "s", _busy("training.adversarial_train")),
    ("metrics.evaluate_s", "s", _busy("metrics.evaluate")),
    ("metrics.trajectories_scored", "count", _count("metrics.trajectories_scored")),
    *((f"metrics.{n}_s", "s", _busy(f"metrics.{n}")) for n in HISTOGRAMS),
    ("persist.save_s", "s", _busy("persist.save_generator", "persist.save_discriminator")),
    ("persist.load_s", "s", _busy("persist.load_generator", "persist.load_discriminator")),
    *((f"self.{layer}_s", "s", lambda t, layer=layer: t["layer_self"].get(layer, 0.0))
      for layer in LAYERS),
]


def coverage(command) -> float:
    return command["covered_s"] / command["wall_s"] if command["wall_s"] > 0 else 1.0


def covered(command) -> bool:
    """Whether the layer spans account for the command's wall time: at most
    ``1 - MIN_COVERAGE`` of it, or ``UNCOVERED_FLOOR_S``, is left outside them."""
    uncovered = command["wall_s"] - command["covered_s"]
    return uncovered <= max((1.0 - MIN_COVERAGE) * command["wall_s"], UNCOVERED_FLOOR_S)


def completed(reps):
    """Repetitions that ran the whole pipeline."""
    return [r for r in reps if r["result"] is not None and "pipeline_s" in r["result"]]


def end_to_end(reps, attempted, failed) -> dict:
    """Timings are medians: over repetitions, or for a command that a
    repetition repeats, over all its samples."""
    results = [r["result"] for r in completed(reps)]
    count = WORKLOADS[reps[0]["workload"]].count
    jsd_by_input = {r["input"]: r["result"]["jsd_mean"] for r in completed(reps)}

    def pooled(stage):
        return statistics.median([s for x in results for s in x["samples"][stage]])

    return {
        "setup_s": (pooled("setup"), "s"),
        "train_s": (statistics.median([x["stage_s"][c] for x in results for c in
                                       ("train", "pretrain") if c in x["stage_s"]]), "s"),
        "generate_traj_per_s": (count / pooled("generate"), "1/s"),
        "evaluate_s": (pooled("evaluate"), "s"),
        "pipeline_s": (statistics.median([x["pipeline_s"] for x in results]), "s"),
        "peak_rss_mb": (statistics.median([x["peak_rss_mb"] for x in results]), "MB"),
        "jsd_mean": (statistics.fmean(jsd_by_input.values()), "nats"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(reps) -> dict:
    """The layer breakdown of the traced repetition with the median
    ``pipeline_s`` (the lower one of an even count; every traced repetition
    has the same counts), and the tracing overhead: median traced minus
    median untraced ``pipeline_s``."""
    traced = [r["result"] for r in completed(reps) if r["traced"]]
    plain = [r["result"]["pipeline_s"] for r in completed(reps) if not r["traced"]]
    middle = statistics.median_low([x["pipeline_s"] for x in traced])
    chosen = next(x for x in traced if x["pipeline_s"] == middle)
    metrics = {name: (read(chosen["trace"]), unit) for name, unit, read in PER_LAYER}
    metrics["trace.coverage_min"] = (
        min(coverage(c) for x in traced for c in x["trace"]["commands"]), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median([x["pipeline_s"] for x in traced]) - statistics.median(plain), "s")
    return metrics


def check_repetition(rep, first_by_input, first_counts):
    """Mark failed operations of one repetition; returns (attempted, failed)."""
    result = rep["result"]
    if result is None:
        return PIPELINE_COMMANDS, PIPELINE_COMMANDS
    ops = {}
    for op in result["ops"]:
        ops.setdefault(op["command"], op)   # the pipeline's own command comes first
    reference = first_by_input.setdefault(rep["input"], result["digests"])
    for name, command in (("generated.txt", "generate"), ("report.txt", "evaluate")):
        if result["digests"] and result["digests"].get(name) != reference.get(name):
            ops[command]["error"] = ops[command]["error"] or f"{name} differs from a same-seed run"
    trace = result.get("trace")
    if trace is not None:
        for c in trace["commands"]:
            if not covered(c) and c["command"] in ops:
                ops[c["command"]]["error"] = (ops[c["command"]]["error"]
                                              or f"spans cover {coverage(c):.3f} of wall time")
        counts = exact_counts(trace)
        if first_counts:
            for command, expected in first_counts[0].items():
                if counts.get(command) != expected and command in ops:
                    ops[command]["error"] = (ops[command]["error"]
                                             or "counts differ from the first traced run")
        else:
            first_counts.append(counts)
    failed = sum(op["error"] is not None for op in result["ops"])
    return len(result["ops"]), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mobsim", "cli.py")):
        print(f"error: no mobsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    seeds = {"workload_seed": args.seed,
             "input_seeds": [input_seed(args.seed, i) for i in range(INPUTS)]}
    env = environment(seeds)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    reps, first_by_input, first_counts = [], {}, []
    attempted = failed = 0
    last_rep_s = 0.0
    for index, (input_index, traced) in enumerate(schedule(args.trace)):
        now = time.monotonic()
        if index >= min_reps(args.trace) and (now - started >= args.seconds
                                              or now + 1.5 * last_rep_s > deadline):
            break
        seed = seeds["input_seeds"][input_index]
        result, error = run_child(args.workload, seed, int(traced),
                                  os.path.join(run_dir, f"rep{index}"), deadline)
        last_rep_s = time.monotonic() - now
        rep = {"workload": args.workload, "input": input_index, "seed": seed,
               "traced": traced, "result": result, "error": error, "seconds": last_rep_s}
        a, f = check_repetition(rep, first_by_input, first_counts)
        attempted += a
        failed += f
        reps.append(rep)
        if error is not None:
            print(f"repetition {index}: {error}", file=sys.stderr)
            break
        if time.monotonic() >= deadline:
            break

    kinds = {r["traced"] for r in completed(reps)}
    if not kinds or (args.trace and kinds != {True, False}):
        print("error: too few repetitions completed the pipeline", file=sys.stderr)
        return 2
    metrics = per_layer(reps) if args.trace else end_to_end(reps, attempted, failed)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(metrics):
        print(f"error: metrics {sorted(set(wanted) ^ set(metrics))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "trace": args.trace,
                   "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "repetitions": reps}, fh, indent=1)
    print("environment " + json.dumps(env))
    print(f"{args.workload}: {len(reps)} repetitions, {attempted} operations, {failed} failed")
    for name in wanted:
        value, unit = metrics[name]
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                                  for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
