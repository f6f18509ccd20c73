"""Time one generator pretrain step and one population sample at a large
location count.

Builds the three graphs directly (no CLI) from random coordinates and
random stay-or-jump trajectories, then times teacher-forced pretrain steps:
k=10, embedding and hidden size 32, 2 heads, the three channels, dropout
0.6, batch 32.  The build phase also writes each graph with
``graphs.save_graph`` and reads it back with ``graphs.load_graph``
(``graph_write_s``, ``graph_read_s`` over the three, and whether every graph
came back equal, weights bit for bit).  The sample phase times
``generate_batch`` of 30,000 trajectories of 24 slots from the untrained
generator, then writes them with ``records.write_trajectories`` and reads
them back with ``records.read_trajectories`` (``write_s``, the peak RSS
after the write as ``write_peak_rss_mb``, ``read_s``, and whether the table
came back equal), and times ``metrics.evaluate`` of the sampled rows against
the training rows (``evaluate_s``, with the peak RSS before and after it).  The graph build, the steps and the sample each run
in a fresh process, so each reports its own peak RSS, and next to it the
minor page faults of its timed work (``minflt``).  Prints one JSON object:

    python3 scripts/scale_step.py --n 2000

The script puts the checkout's ``src`` on the import path itself, so it runs
from a checkout that is not installed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mobsim import graphs, metrics, nn  # noqa: E402
from mobsim.generator import (  # noqa: E402
    Generator,
    GeneratorConfig,
    generate_batch,
    seed_distribution,
)
from mobsim.records import (  # noqa: E402
    Dataset,
    Trajectories,
    generated_trajectories,
    read_trajectories,
    write_trajectories,
)

SLOTS, ROWS, K, STEPS, SAMPLED = 24, 2000, 10, 3, 30000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _trajectories(n: int, rng) -> np.ndarray:
    """(ROWS, SLOTS) ids: a uniform first slot, then stay with probability
    0.5 or jump to a uniform location."""
    ids = np.empty((ROWS, SLOTS), dtype=np.int64)
    ids[:, 0] = rng.integers(0, n, ROWS)
    for t in range(1, SLOTS):
        jump = rng.random(ROWS) < 0.5
        ids[:, t] = np.where(jump, rng.integers(0, n, ROWS), ids[:, t - 1])
    return ids


def _table(ids: np.ndarray) -> Trajectories:
    return Trajectories(np.array(["u"] * len(ids)), np.full(len(ids), np.datetime64("2012-01-02")),
                        ids)


def build(n: int, path: str) -> dict:
    rng = np.random.default_rng(n)
    ids = _trajectories(n, rng)
    coords = np.column_stack([40.0 + rng.random(n), -74.0 + rng.random(n)])
    table = _table(ids)
    faults, start = _minflt(), time.perf_counter()
    built = {"sdg": graphs.build_sdg(coords, k=K),
             "ttg": graphs.build_ttg(ids, n),
             "stg": graphs.build_stg(graphs.visit_profile_matrix(table, n), k=K)}
    elapsed, faults = time.perf_counter() - start, _minflt() - faults
    with open(path, "wb") as fh:
        pickle.dump((built, ids, coords), fh)
    report = {"build_s": elapsed, "peak_rss_mb": _peak_rss_mb(), "minflt": faults,
              "edges": {name: len(g.src) for name, g in built.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.csv") for name in built}
        start = time.perf_counter()
        for name, g in built.items():
            graphs.save_graph(files[name], g)
        report["graph_write_s"] = time.perf_counter() - start
        start = time.perf_counter()
        back = {name: graphs.load_graph(files[name], n, name) for name in built}
        report["graph_read_s"] = time.perf_counter() - start
    report["graph_round_trip_equal"] = all(
        np.array_equal(back[name].src, g.src) and np.array_equal(back[name].dst, g.dst)
        and back[name].weight.tobytes() == g.weight.tobytes() for name, g in built.items())
    return report


def _load(n: int, path: str):
    with open(path, "rb") as fh:
        built, ids, coords = pickle.load(fh)
    gen = Generator(GeneratorConfig(n_locations=n, embed_dim=32, hidden_dim=32, heads=2,
                                    dropout=0.6), built)
    return gen, ids, coords


def step(n: int, path: str) -> dict:
    gen, ids, _ = _load(n, path)
    optimizer = nn.Adam(gen.params, 0.01)
    rng = np.random.default_rng(0)
    times, faults = [], _minflt()
    for _ in range(STEPS):
        batch = ids[rng.choice(len(ids), 32, replace=False)]
        start = time.perf_counter()
        optimizer.zero_grad()
        nn.add(*gen.sequence_nll(gen.embed_locations(rng), batch)).backward()
        optimizer.step()
        times.append(time.perf_counter() - start)
    return {"step_s": times, "peak_rss_mb": _peak_rss_mb(), "minflt": _minflt() - faults}


def sample(n: int, path: str) -> dict:
    gen, ids, coords = _load(n, path)
    rss_before, faults = _peak_rss_mb(), _minflt()
    start = time.perf_counter()
    sampled = generate_batch(gen, SAMPLED, SLOTS, seed_distribution(ids, n), 0, "sample")
    report = {"sample_s": time.perf_counter() - start, "rows": SAMPLED,
              "peak_rss_mb_before": rss_before, "peak_rss_mb": _peak_rss_mb(),
              "minflt": _minflt() - faults}
    table = generated_trajectories(sampled)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.txt")
        start = time.perf_counter()
        write_trajectories(path, table)
        report["write_s"] = time.perf_counter() - start
        report["write_peak_rss_mb"] = _peak_rss_mb()
        start = time.perf_counter()
        back = read_trajectories(path, n, SLOTS)
        report["read_s"] = time.perf_counter() - start
    report["round_trip_equal"] = bool(
        np.array_equal(back.ids, table.ids) and back.users.tolist() == table.users.tolist()
        and np.array_equal(back.days, table.days))
    report["peak_rss_mb_before_evaluate"] = _peak_rss_mb()
    start = time.perf_counter()
    metrics.evaluate(Dataset(_table(ids), coords), sampled)
    report["evaluate_s"] = time.perf_counter() - start
    report["evaluate_peak_rss_mb"] = _peak_rss_mb()
    return report


PHASES = {"build": build, "step": step, "sample": sample}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="number of locations")
    parser.add_argument("--phase", choices=tuple(PHASES),
                        help="run one phase in this process (default: all, each in a child)")
    parser.add_argument("--graphs",
                        help="pickle the build phase writes and the other phases read")
    args = parser.parse_args()
    if args.phase:
        print(json.dumps(PHASES[args.phase](args.n, args.graphs)))
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graphs.pkl")
        report = {"n": args.n}
        for phase in PHASES:
            out = subprocess.run([sys.executable, __file__, "--n", str(args.n), "--phase", phase,
                                  "--graphs", path], check=True, capture_output=True, text=True)
            report[phase] = json.loads(out.stdout.splitlines()[-1])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
