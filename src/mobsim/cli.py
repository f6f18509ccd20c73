"""Command-line workflows.

Commands: ``preprocess``, ``synth``, ``build-graphs``, ``pretrain``,
``train``, ``generate``, ``evaluate``, ``ablation``.  Every command writes
its outputs under ``--out-dir`` together with a ``manifest.json`` capturing
the resolved configuration, the master seed, tool versions, and SHA-256
digests of the inputs, so a run is reproducible from its manifest alone.

The options of ``synth``, ``pretrain``, ``train`` and ``ablation`` are the
fields of their config dataclasses, each resolved as: command-line flag >
``--config`` file (key=value lines, ``#`` comments) > the field's default.
Exit codes: 0 success, 1 invalid configuration or input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, graphs, metrics, persist, records, synth, training
from .discriminator import Discriminator, DiscriminatorConfig
from .generator import Generator, GeneratorConfig, generate_batch, sample_streams, seed_distribution
from .records import Dataset


@dataclasses.dataclass
class AblationConfig:
    """The graph options of ``ablation``; its other options are those of ``train``."""

    k: int = 20
    metric: str = "haversine"        # haversine | euclidean
    edge_mode: str = "weighted"      # weighted | vanilla

    def __post_init__(self):
        if self.metric not in ("haversine", "euclidean"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.edge_mode not in ("weighted", "vanilla"):
            raise ValueError(f"unknown edge_mode {self.edge_mode!r}")


# The configs whose options pretrain and train take.
MODEL_CONFIGS = (GeneratorConfig, DiscriminatorConfig, training.TrainConfig)


class CliValidationError(ValueError):
    """Bad flags, config, or inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliValidationError(message)


@contextlib.contextmanager
def _input_file(path, label):
    """Check that the ``label`` file ``path`` exists, then report a malformed
    field of it read inside the block as exit 1 with ``path:line``."""
    if not os.path.isfile(path):
        raise CliValidationError(f"{label} file not found: {path}")
    try:
        yield
    except records.CheckinFormatError as exc:
        where = path if exc.line_no is None else f"{path}:{exc.line_no}"
        raise CliValidationError(f"{where}: field '{exc.field_name}': {exc.detail}") from None


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the OpenBLAS thread count of the library this process
    loaded, or None when none is loaded or it is not found.  NumPy's bundled
    build exports them as ``scipy_openblas_*_num_threads64_``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("scipy_", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore its count.

    The model's products are small (widths of tens, N rows), so a second
    thread saves little.  It also costs much: between calls it spins on a
    core, and while the OS keeps it on the main thread's core each threaded
    product waits a scheduler slice.  That made wide-map ``generate`` run
    about 3x slower for the first seconds of some processes.  Results do not
    depend on the thread count.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, command: str, config: dict, inputs):
    body = {
        "command": command,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(config.items())},
        "inputs": {path: _sha256(path) for path in sorted(inputs)},
        "versions": {
            "mobsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _options(configs) -> dict:
    """``name -> field`` of the options ``configs`` declare: each field with
    a default (``n_locations`` comes from the data) but ``attn_slope``, which
    stays fixed.  Two configs' fields of one name are one option."""
    options = {}
    for config in configs:
        for f in dataclasses.fields(config):
            if f.default is not dataclasses.MISSING and f.name != "attn_slope":
                options.setdefault(f.name, f)
    return options


def _option_flags(parser: _Parser, configs):
    """``--config`` and a flag per option of ``configs`` (``--embed-dim``
    for ``embed_dim``), read by :func:`resolve_config`."""
    parser.add_argument("--config", help="key=value config file")
    for name in _options(configs):
        parser.add_argument("--" + name.replace("_", "-"), dest=name)
    parser.set_defaults(configs=configs)


def resolve_config(args) -> dict:
    """The options of ``args.configs``, each from its flag, else the
    ``--config`` file, else its field's default.  Flag and file values are
    read by the field's type; a bad one exits 1 naming the flag, or the
    file, line and key."""
    options = _options(args.configs)
    resolved = {name: f.default for name, f in options.items()}
    if args.config:
        with _input_file(args.config, "config"):
            file_values = persist.read_meta(args.config)
            for key in file_values:
                if key not in options:
                    raise records.CheckinFormatError(file_values.lines[key], key,
                                                     "unknown config key")
                resolved[key] = file_values.field(key, persist.READERS[options[key].type])
    for name, f in options.items():
        if getattr(args, name) is not None:
            try:
                resolved[name] = persist.READERS[f.type](None, name, getattr(args, name))
            except records.CheckinFormatError as exc:
                flag = name.replace("_", "-")
                raise CliValidationError(f"argument --{flag}: {exc.detail}") from None
    return resolved


def _make_config(cls, values: dict, **given):
    """A ``cls`` config from ``given`` and the ``values`` of its other
    fields; a value it rejects exits 1."""
    try:
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)
                      if f.name in values}, **given)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None


def _parse_ratios(text) -> tuple:
    try:
        parts = tuple(int(p) for p in str(text).split(":"))
    except ValueError:
        raise CliValidationError(f"ratios must look like 7:1:2, got {text!r}") from None
    if len(parts) != 3 or any(p <= 0 for p in parts):
        raise CliValidationError(f"ratios must be 3 positive integers, got {text!r}")
    return parts


def _write_split_outputs(out_dir, dataset: Dataset, ratios, seed):
    try:
        train, valid, test = records.split(dataset, ratios, seed)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        records.write_trajectories(os.path.join(out_dir, f"{name}.txt"), part.trajectories)
    records.write_observed(os.path.join(out_dir, "observed_train.txt"), train.trajectories)
    records.write_locations(os.path.join(out_dir, "locations.csv"), dataset.locations)
    return train, valid, test


def cmd_preprocess(args) -> None:
    if args.slots < 2:
        raise CliValidationError(f"--slots must be at least 2, got {args.slots}")
    ratios = _parse_ratios(args.ratios)
    with _input_file(args.input, "input"), open(args.input, encoding="utf-8") as fh:
        parsed, id_map = records.parse_checkins(fh, delimiter=args.delimiter)
    if not parsed:
        raise CliValidationError(f"no records parsed from {args.input}")
    try:
        trajectories = records.discretize(parsed, slots_per_day=args.slots, fill=args.fill,
                                          utc_offset_hours=args.utc_offset)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None
    kept = records.filter_min_visits(trajectories, min_daily=args.min_daily_visits)
    if len(kept) < 3:
        raise CliValidationError(
            f"only {len(kept)} user-days survive the min-daily-visits filter; cannot split")
    table = records.location_table(parsed, len(id_map))
    dataset = Dataset(kept, table)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_split_outputs(args.out_dir, dataset, ratios, args.seed)
    records.write_id_map(os.path.join(args.out_dir, "idmap.csv"), id_map)
    write_manifest(args.out_dir, "preprocess", {
        "input": args.input, "delimiter": args.delimiter, "slots": args.slots,
        "fill": args.fill, "utc_offset": args.utc_offset,
        "min_daily_visits": args.min_daily_visits, "ratios": args.ratios,
        "seed": args.seed,
    }, [args.input])


def cmd_synth(args) -> None:
    config = resolve_config(args)
    ratios = _parse_ratios(config["ratios"])
    planted = synth.synth_generate(_make_config(synth.SynthConfig, config))
    os.makedirs(args.out_dir, exist_ok=True)
    _write_split_outputs(args.out_dir, planted.dataset, ratios, config["seed"])
    synth.write_kernel(os.path.join(args.out_dir, "kernel.csv"), planted.kernel)
    config["stay_prob_truth"] = planted.stay_prob
    write_manifest(args.out_dir, "synth", config, [args.config] if args.config else [])


def _load_locations(path) -> np.ndarray:
    with _input_file(path, "locations"):
        return records.read_locations(path)


def _attach_observed(trajectories, path, n_locations: int, slots: int):
    with _input_file(path, "observed"):
        records.attach_observed(trajectories, path, n_locations, slots)


def _load_split(path, label, coords, slots: int | None = None) -> Dataset:
    """Read a trajectory file whose ids all index ``coords`` and whose lines
    all hold ``slots`` ids (one common count when omitted), at least 2."""
    with _input_file(path, label):
        trajectories = records.read_trajectories(path, len(coords), slots)
    if not len(trajectories):
        raise CliValidationError(f"{label} file {path} holds no trajectories")
    if trajectories.ids.shape[1] < 2:
        raise CliValidationError(f"{label} file {path} holds one-slot trajectories; "
                                 "need at least 2 slots")
    return Dataset(trajectories, coords)


def _build_graphs(train: Dataset, k: int, metric: str) -> dict:
    """The weighted sdg, ttg and stg channels of a train split."""
    n = train.n_locations
    if not 1 <= k <= n - 1:
        raise CliValidationError(f"k must be in [1, {n - 1}], got {k}")
    return {
        "sdg": graphs.build_sdg(train.locations, k=k, metric=metric),
        "ttg": graphs.build_ttg(train.trajectories.ids, n),
        "stg": graphs.build_stg(graphs.visit_profile_matrix(train.trajectories, n), k=k),
    }


def cmd_build_graphs(args) -> None:
    train = _load_split(args.train, "train", _load_locations(args.locations), args.slots)
    if args.observed:
        _attach_observed(train.trajectories, args.observed, train.n_locations, args.slots)
    built = _build_graphs(train, args.k, args.metric)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, graph in built.items():
        if args.mode == "vanilla":
            graph = graphs.binarize(graph)
        graphs.save_graph(os.path.join(args.out_dir, f"{name}.csv"), graph)
    inputs = [args.train, args.locations] + ([args.observed] if args.observed else [])
    write_manifest(args.out_dir, "build-graphs", {
        "train": args.train, "locations": args.locations,
        "observed": args.observed or "", "k": args.k, "mode": args.mode,
        "metric": args.metric, "slots": args.slots,
    }, inputs)


def _load_graphs(graphs_dir, channels, n) -> dict:
    loaded = {}
    for name in channels:
        path = os.path.join(graphs_dir, f"{name}.csv")
        with _input_file(path, f"graph channel {name}"):
            loaded[name] = graphs.load_graph(path, n)
    return loaded


def _build_models(config, channel_graphs, n):
    """The generator, discriminator and training config of the resolved options."""
    gen_config = _make_config(GeneratorConfig, config, n_locations=n)
    try:
        gen = Generator(gen_config, channel_graphs, seed=config["seed"])
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None
    disc = Discriminator(_make_config(DiscriminatorConfig, config, n_locations=n),
                         seed=config["seed"])
    return gen, disc, _make_config(training.TrainConfig, config)


def _run_training(args, adversarial: bool) -> None:
    config = resolve_config(args)
    coords = _load_locations(args.locations)
    n = len(coords)
    train = _load_split(args.train, "train", coords)
    train_ids = train.trajectories.ids
    if adversarial:
        valid = _load_split(args.valid, "valid", coords, train_ids.shape[1])
    channel_graphs = _load_graphs(args.graphs_dir, config["channels"], n)
    gen, disc, tc = _build_models(config, channel_graphs, n)
    log = training.pretrain_generator(gen, train_ids, tc)
    log += training.pretrain_discriminator(disc, gen, train_ids, tc)
    inputs = [args.train, args.locations] + [
        os.path.join(args.graphs_dir, f"{c}.csv") for c in config["channels"]]
    if adversarial:
        best_gen, best_disc, adv_log = training.adversarial_train(gen, disc, train, valid, tc)
        gen.params.load_values(best_gen)
        disc.params.load_values(best_disc)
        log += adv_log
        inputs.append(args.valid)
    os.makedirs(args.out_dir, exist_ok=True)
    seed_dist = seed_distribution(train_ids, n)
    persist.save_generator(os.path.join(args.out_dir, "gen"), gen, seed_dist,
                           train_ids.shape[1])
    persist.save_discriminator(os.path.join(args.out_dir, "disc"), disc)
    with open(os.path.join(args.out_dir, "train_log.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(log) + "\n")
    config.update(train=args.train, locations=args.locations, graphs_dir=args.graphs_dir)
    if adversarial:
        config["valid"] = args.valid
    write_manifest(args.out_dir, "train" if adversarial else "pretrain", config, inputs)


def cmd_pretrain(args) -> None:
    _run_training(args, adversarial=False)


def cmd_train(args) -> None:
    _run_training(args, adversarial=True)


def cmd_generate(args) -> None:
    if args.count < 1:
        raise CliValidationError("count must be positive")
    coords = _load_locations(args.locations)
    meta_path, ckpt_path = f"{args.model}.meta", f"{args.model}.ckpt"
    with _input_file(meta_path, "model meta"):
        if not os.path.isfile(ckpt_path):
            raise CliValidationError(f"model checkpoint file not found: {ckpt_path}")
        meta = persist.read_model_meta(meta_path, "generator")
        # Metas written before the trained length was recorded get a full day.
        slots = args.slots if args.slots is not None else (
            meta.field("slots", records._int_field) if "slots" in meta
            else records.HOURS_PER_DAY)
        if slots < 2:
            raise CliValidationError(f"slots must be at least 2, got {slots}")
        channels = meta.field("channels", records._tuple_field)
        channel_graphs = _load_graphs(args.graphs_dir, channels, len(coords))
        try:
            gen, seed_dist = persist.load_generator(args.model, channel_graphs, meta)
        except persist.CheckpointError as exc:
            raise CliValidationError(str(exc)) from None
    streams = sample_streams(args.seed, "generate")
    ids = generate_batch(gen, args.count, slots, seed_dist, streams)
    os.makedirs(args.out_dir, exist_ok=True)
    records.write_trajectories(os.path.join(args.out_dir, "generated.txt"),
                               records.generated_trajectories(ids))
    inputs = [meta_path, ckpt_path, args.locations] + [
        os.path.join(args.graphs_dir, f"{c}.csv") for c in channels]
    write_manifest(args.out_dir, "generate", {
        "model": args.model, "locations": args.locations, "graphs_dir": args.graphs_dir,
        "count": args.count, "slots": slots, "seed": args.seed,
    }, inputs)


def cmd_evaluate(args) -> None:
    for flag, value in (("--bins", args.bins), ("--top", args.top)):
        if value < 1:
            raise CliValidationError(f"{flag} must be positive, got {value}")
    if not 0.0 < args.grid_step < math.inf:
        raise CliValidationError(f"--grid-step must be positive and finite, got {args.grid_step}")
    coords = _load_locations(args.locations)
    real = _load_split(args.real, "real", coords, args.slots)
    generated = _load_split(args.generated, "generated", coords, args.slots).trajectories.ids
    report = metrics.evaluate(real, generated, include_zero_steps=not args.exclude_zero_steps,
                              bins=args.bins, top=args.top)
    os.makedirs(args.out_dir, exist_ok=True)
    metrics.write_report(os.path.join(args.out_dir, "report.txt"), report)
    metrics.write_grid(os.path.join(args.out_dir, "grid.csv"),
                       metrics.visit_grid(generated, coords, args.grid_step))
    write_manifest(args.out_dir, "evaluate", {
        "real": args.real, "generated": args.generated, "locations": args.locations,
        "slots": args.slots, "bins": args.bins, "top": args.top,
        "exclude_zero_steps": args.exclude_zero_steps, "grid_step": args.grid_step,
    }, [args.real, args.generated, args.locations])


def _ablation_variants(config) -> list:
    other_mode = "vanilla" if config["edge_mode"] == "weighted" else "weighted"
    variants = [("base", {})]
    for channel in ("sdg", "ttg", "stg"):
        if channel in config["channels"]:
            rest = tuple(c for c in config["channels"] if c != channel)
            if rest:
                variants.append((f"no_{channel}", {"channels": rest}))
    variants.append((f"{other_mode}_edges", {"edge_mode": other_mode}))
    variants.append(("no_dwell", {"dwell": False}))
    return variants


def cmd_ablation(args) -> None:
    config = resolve_config(args)
    graph = _make_config(AblationConfig, config)
    coords = _load_locations(args.locations)
    train_ds, valid_ds, test_ds = (
        _load_split(path, label, coords, args.slots)
        for label, path in (("train", args.train), ("valid", args.valid), ("test", args.test)))
    if args.observed:
        _attach_observed(train_ds.trajectories, args.observed, len(coords), args.slots)
    weighted = _build_graphs(train_ds, graph.k, graph.metric)
    by_mode = {"weighted": weighted,
               "vanilla": {name: graphs.binarize(g) for name, g in weighted.items()}}
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for name, overrides in _ablation_variants(config):
        variant = dict(config, **overrides)
        report = _run_variant(variant, by_mode[variant["edge_mode"]], train_ds,
                              valid_ds, test_ds)
        metrics.write_report(os.path.join(args.out_dir, f"report_{name}.txt"), report)
        rows.append((name, report))
    _write_ablation_table(args.out_dir, rows)
    write_manifest(args.out_dir, "ablation", config,
                   [args.train, args.valid, args.test, args.locations]
                   + ([args.observed] if args.observed else []))


def _run_variant(config, channel_graphs, train_ds, valid_ds, test_ds):
    gen, disc, tc = _build_models(config, channel_graphs, train_ds.n_locations)
    train_ids = train_ds.trajectories.ids
    training.pretrain_generator(gen, train_ids, tc)
    training.pretrain_discriminator(disc, gen, train_ids, tc)
    best_gen, _, _ = training.adversarial_train(gen, disc, train_ds, valid_ds, tc)
    gen.params.load_values(best_gen)
    streams = sample_streams(tc.seed, "ablation/final_eval")
    generated = generate_batch(gen, len(test_ds), train_ids.shape[1],
                               seed_distribution(train_ids, train_ds.n_locations), streams)
    return metrics.evaluate(test_ds, generated)


def _write_ablation_table(out_dir, rows):
    names = list(metrics.METRIC_NAMES)
    with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write("variant," + ",".join(names) + ",mean\n")
        for name, report in rows:
            cells = [repr(report.scores[m]) for m in names] + [repr(report.mean_jsd)]
            fh.write(f"{name}," + ",".join(cells) + "\n")
    width = max(len(name) for name, _ in rows)
    with open(os.path.join(out_dir, "ablation.txt"), "w", encoding="utf-8") as fh:
        header = "variant".ljust(width) + "".join(f"{m:>12}" for m in names + ["mean"])
        fh.write(header + "\n")
        for name, report in rows:
            cells = [report.scores[m] for m in names] + [report.mean_jsd]
            fh.write(name.ljust(width) + "".join(f"{c:12.4f}" for c in cells) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="mobsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("preprocess", help="parse check-ins into split trajectory files")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--slots", type=int, default=24)
    p.add_argument("--fill", choices=("ffill", "bfill"), default="ffill")
    p.add_argument("--utc-offset", dest="utc_offset", type=int, default=0)
    p.add_argument("--min-daily-visits", dest="min_daily_visits", type=int, default=9)
    p.add_argument("--ratios", default="7:1:2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("synth", help="generate a synthetic dataset with known dynamics")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _option_flags(p, (synth.SynthConfig,))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graphs", help="build the three location graphs from a train split")
    p.add_argument("--train", required=True)
    p.add_argument("--locations", required=True)
    p.add_argument("--observed", help="optional raw-observation sidecar for visit profiles")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--mode", choices=("weighted", "vanilla"), default="weighted")
    p.add_argument("--metric", choices=("haversine", "euclidean"), default="haversine")
    p.add_argument("--slots", type=int, default=24)
    p.set_defaults(func=cmd_build_graphs)

    for name, help_text, func, needs_valid in (
            ("pretrain", "teacher-forced pretraining only", cmd_pretrain, False),
            ("train", "pretraining plus adversarial training", cmd_train, True)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--train", required=True)
        if needs_valid:
            p.add_argument("--valid", required=True)
        p.add_argument("--locations", required=True)
        p.add_argument("--graphs-dir", dest="graphs_dir", required=True)
        p.add_argument("--out-dir", dest="out_dir", required=True)
        _option_flags(p, MODEL_CONFIGS)
        p.set_defaults(func=func)

    p = sub.add_parser("generate", help="sample trajectories from a trained model")
    p.add_argument("--model", required=True, help="checkpoint prefix (…/gen)")
    p.add_argument("--graphs-dir", dest="graphs_dir", required=True)
    p.add_argument("--locations", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--slots", type=int, help="trajectory length (default: the trained length)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated against real trajectories")
    p.add_argument("--real", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--locations", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--slots", type=int, default=24)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=0.01)
    p.add_argument("--exclude-zero-steps", dest="exclude_zero_steps", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablation", help="run the channel/edge-mode/dwell ablation suite")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--locations", required=True)
    p.add_argument("--observed")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--slots", type=int, default=24)
    _option_flags(p, MODEL_CONFIGS + (AblationConfig,))
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _one_blas_thread():
            args.func(args)
        return 0
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
