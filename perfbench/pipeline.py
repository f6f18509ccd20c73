"""One repetition of a benchmark workload, run in a fresh process.

Runs the mobsim pipeline in-process through ``mobsim.cli.main`` (synth,
build-graphs, train or pretrain, generate, evaluate), times each command,
checks the outputs, and prints one JSON object as its last stdout line.
With ``--trace 1`` every layer is wrapped by :mod:`tracer` first.

    python3 perfbench/pipeline.py --workload quickstart --seed 7 --dir DIR --trace 0

``run.py`` starts this once per repetition, so that the peak resident
memory reported here belongs to one workload alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOTS = 24
JSD_NAMES = ("distance", "radius", "duration", "daily_loc", "g_rank", "i_rank")
SAMPLE_S = 0.5           # measured seconds of each short command per untraced repetition
MAX_SAMPLES = 20         # samples of a short command per repetition
MODEL_FLAGS = ("--embed-dim", "16", "--hidden-dim", "16", "--heads", "2",
               "--dropout", "0.0", "--beta", "0.1")


@dataclass(frozen=True)
class Workload:
    n_locations: int
    users: int
    days: int
    k: int
    command: str          # "train" or "pretrain"
    train_flags: tuple
    count: int            # trajectories generated


# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "quickstart": Workload(100, 25, 20, 10, "train",
                           ("--pretrain-epochs", "6", "--epochs", "3", "--rollouts", "4",
                            "--steps-per-epoch", "4"), 500),
    "wide-map": Workload(400, 25, 20, 10, "pretrain",
                         ("--pretrain-epochs", "6", "--d-pretrain-epochs", "1"), 500),
    "population": Workload(100, 50, 20, 10, "pretrain",
                           ("--pretrain-epochs", "2", "--d-pretrain-epochs", "1"), 30000),
}


def setup_commands(w: Workload, seed: int, out: str):
    data, graphs = os.path.join(out, "data"), os.path.join(out, "graphs")
    return [
        ("synth", ["synth", "--out-dir", data, "--n-locations", str(w.n_locations),
                   "--users", str(w.users), "--days", str(w.days), "--stay-prob", "0.7",
                   "--seed", str(seed)]),
        ("build-graphs", ["build-graphs", "--train", f"{data}/train.txt",
                          "--locations", f"{data}/locations.csv",
                          "--observed", f"{data}/observed_train.txt",
                          "--out-dir", graphs, "--k", str(w.k)]),
    ]


def model_commands(w: Workload, seed: int, root: str, out: str | None = None):
    """Train on the set-up under ``root``, then generate and evaluate, writing
    their outputs under ``out`` (default ``root``)."""
    out = out or root
    data, graphs = os.path.join(root, "data"), os.path.join(root, "graphs")
    valid = ["--valid", f"{data}/valid.txt"] if w.command == "train" else []
    return [
        (w.command, [w.command, "--train", f"{data}/train.txt", *valid,
                     "--locations", f"{data}/locations.csv", "--graphs-dir", graphs,
                     "--out-dir", f"{root}/model", *MODEL_FLAGS, *w.train_flags,
                     "--seed", str(seed)]),
        ("generate", ["generate", "--model", f"{root}/model/gen", "--graphs-dir", graphs,
                      "--locations", f"{data}/locations.csv", "--out-dir", f"{out}/generated",
                      "--count", str(w.count), "--slots", str(SLOTS), "--seed", str(seed)]),
        ("evaluate", ["evaluate", "--real", f"{data}/test.txt",
                      "--generated", f"{out}/generated/generated.txt",
                      "--locations", f"{data}/locations.csv", "--out-dir", f"{out}/eval"]),
    ]


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digest(directory) -> str:
    """One digest over the files below ``directory`` and their relative paths,
    leaving out manifest.json, which records the input paths."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(f for f in files if f != "manifest.json"):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            h.update(digest(path).encode())
    return h.hexdigest()


def check_generated(path, count: int, n_locations: int) -> str | None:
    """None when ``path`` holds ``count`` rows of SLOTS ids in [0, N)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != count:
        return f"generated.txt has {len(lines)} rows, expected {count}"
    for line_no, line in enumerate(lines, start=1):
        ids = line.rsplit(",", 1)[-1].split()
        if len(ids) != SLOTS:
            return f"generated.txt:{line_no}: {len(ids)} ids, expected {SLOTS}"
        if not all(tok.isdigit() and int(tok) < n_locations for tok in ids):
            return f"generated.txt:{line_no}: an id outside [0, {n_locations})"
    return None


def read_report(path) -> tuple[dict, str | None]:
    """The jsd.* values of report.txt, and None when they are consistent."""
    jsd = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            if key.startswith("jsd."):
                jsd[key[4:]] = float(value)
    missing = [n for n in (*JSD_NAMES, "mean") if n not in jsd]
    if missing:
        return jsd, f"report.txt lacks jsd.{missing[0]}"
    bad = [n for n in JSD_NAMES if not 0.0 <= jsd[n] <= math.log(2.0)]
    if bad:
        return jsd, f"jsd.{bad[0]}={jsd[bad[0]]!r} lies outside [0, ln 2]"
    mean = sum(jsd[n] for n in JSD_NAMES) / len(JSD_NAMES)
    if not math.isclose(jsd["mean"], mean, rel_tol=1e-12, abs_tol=1e-15):
        return jsd, f"jsd.mean={jsd['mean']!r} is not the mean of the six, {mean!r}"
    return jsd, None


def run_repetition(workload: str, seed: int, work: str, sample_s: float, tracer=None):
    """Run the pipeline once.  Then, while less than ``sample_s`` of them is
    measured, repeat its short commands: the set-up, and generate plus
    evaluate on the trained model.  Every repeat must write the same files."""
    from mobsim import cli

    w = WORKLOADS[workload]
    ops = []

    def run(command, argv):
        # Each command starts with an empty collector, as it would in its own
        # process; otherwise it pays for the garbage of the commands before it.
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span_command(command):
                code = cli.main(argv)
        seconds = time.perf_counter() - start
        op = {"command": command, "seconds": seconds,
              "error": None if code == 0 else f"exit code {code}"}
        ops.append(op)
        return op

    pipeline_dir = os.path.join(work, "pipeline")
    commands = setup_commands(w, seed, pipeline_dir) + model_commands(w, seed, pipeline_dir)
    for command, argv in commands:
        if run(command, argv)["error"] is not None:
            break
    result = {"ops": ops, "digests": {}, "jsd_mean": None}
    if len(ops) < len(commands):
        ops.extend({"command": c, "seconds": 0.0, "error": "not run"}
                   for c, _ in commands[len(ops):])
        return result
    stage = {op["command"]: op for op in ops}
    result["stage_s"] = {op["command"]: op["seconds"] for op in ops}
    result["pipeline_s"] = sum(op["seconds"] for op in ops)
    samples = result["samples"] = {
        "setup": [stage["synth"]["seconds"] + stage["build-graphs"]["seconds"]],
        "generate": [stage["generate"]["seconds"]],
        "evaluate": [stage["evaluate"]["seconds"]],
    }

    generated = os.path.join(pipeline_dir, "generated", "generated.txt")
    report = os.path.join(pipeline_dir, "eval", "report.txt")
    stage["generate"]["error"] = check_generated(generated, w.count, w.n_locations)
    jsd, stage["evaluate"]["error"] = read_report(report)
    result["jsd_mean"] = jsd.get("mean")
    result["digests"] = {"generated.txt": digest(generated), "report.txt": digest(report)}

    expected = [tree_digest(os.path.join(pipeline_dir, d)) for d in ("data", "graphs")]
    while sum(samples["setup"]) < sample_s and len(samples["setup"]) < MAX_SAMPLES:
        out = os.path.join(work, "setup")
        synth, graphs = (run(c, argv) for c, argv in setup_commands(w, seed, out))
        if synth["error"] is not None or graphs["error"] is not None:
            break
        samples["setup"].append(synth["seconds"] + graphs["seconds"])
        if [tree_digest(os.path.join(out, d)) for d in ("data", "graphs")] != expected:
            graphs["error"] = "a same-seed set-up wrote different files"
        shutil.rmtree(out, ignore_errors=True)

    out = os.path.join(work, "repeat")
    (_, generate_argv), (_, evaluate_argv) = model_commands(w, seed, pipeline_dir, out)[1:]
    while (sum(samples["generate"]) + sum(samples["evaluate"]) < sample_s
           and len(samples["generate"]) < MAX_SAMPLES):
        gen_op, eval_op = run("generate", generate_argv), run("evaluate", evaluate_argv)
        if gen_op["error"] is not None or eval_op["error"] is not None:
            break
        samples["generate"].append(gen_op["seconds"])
        samples["evaluate"].append(eval_op["seconds"])
        if (digest(os.path.join(out, "generated", "generated.txt"))
                != result["digests"]["generated.txt"]):
            gen_op["error"] = "a same-seed generate wrote a different generated.txt"
        if digest(os.path.join(out, "eval", "report.txt")) != result["digests"]["report.txt"]:
            eval_op["error"] = "a same-seed evaluate wrote a different report.txt"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory for this repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(args.dir, exist_ok=True)
    # A traced repetition runs each command once, so its counts are per pipeline.
    sample_s = 0.0 if args.trace else SAMPLE_S
    result = run_repetition(args.workload, args.seed, args.dir, sample_s, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["trace"] = tracer.summary() if tracer is not None else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
