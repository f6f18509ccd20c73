"""Command-line workflows.

Commands: ``preprocess``, ``synth``, ``build-graphs``, ``pretrain``,
``train``, ``generate``, ``evaluate``, ``ablation``.  Every command writes
its outputs under ``--out-dir`` together with a ``manifest.json`` recording
its parsed flags with the options resolved (the master seed among them),
tool versions, and SHA-256 digests of the inputs, so a run is reproducible
from its manifest alone.  ``pretrain`` fits the generator alone; ``train``
and ``ablation`` add the adversarial phase, whose discriminator is never saved.

The options of ``synth``, ``build-graphs``, ``pretrain``, ``train`` and
``ablation`` are the fields of their config dataclasses, each resolved as:
command-line flag > ``--config`` file (key=value lines, ``#`` comments) >
the field's default.  No flag asks for what the inputs fix: the train split
(for ``evaluate``, the real file) sets the trajectory length, and the other
trajectory files and the observed sidecar are checked against it.
Exit codes: 0 success, 1 invalid configuration or input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__, blas, graphs, metrics, persist, records, synth, training
from .generator import Generator, GeneratorConfig, generate_batch, seed_distribution
from .records import Dataset


# The configs whose options pretrain and train take; the discriminator that
# train fits takes the generator's dims.
MODEL_CONFIGS = (GeneratorConfig, training.TrainConfig)


class CliValidationError(ValueError):
    """Bad flags, config, or inputs; maps to exit code 1."""


@contextlib.contextmanager
def _rejected(errors=ValueError):
    """Report an ``errors`` exception raised inside the block as exit 1."""
    try:
        yield
    except errors as exc:
        raise CliValidationError(str(exc)) from None


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


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Parsed attributes that are no settings of the run: the dispatch fields, the
# config file (an input, so its digest is recorded) and the output directory.
_UNRECORDED = ("command", "func", "configs", "config", "out_dir")


def write_manifest(args, config: dict, inputs):
    """Write ``manifest.json`` under ``args.out_dir``: the command, its parsed
    flags with the resolved ``config`` laid over them, the SHA-256 digest of
    each of ``inputs`` and of the ``--config`` file if one was read, and the
    tool versions."""
    if getattr(args, "config", None):
        inputs = [*inputs, args.config]
    settings = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    settings.update(config)
    body = {
        "command": args.command,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(settings.items())},
        "inputs": {path: _sha256(path) for path in sorted(inputs)},
        "versions": {
            "mobsim": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _options(configs) -> dict:
    """``name -> field`` of the options ``configs`` declare: each field with
    a default (``n_locations`` comes from the data)."""
    return {f.name: f for config in configs for f in dataclasses.fields(config)
            if f.default is not dataclasses.MISSING}


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
    with _rejected():
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)
                      if f.name in values}, **given)


def _parse_ratios(text) -> tuple:
    try:
        return tuple(int(p) for p in str(text).split(":"))
    except ValueError:
        raise CliValidationError(f"ratios must look like 7:1:2, got {text!r}") from None


def _write_split_outputs(out_dir, dataset: Dataset, ratios, seed):
    with _rejected():
        train, valid, test = records.split(dataset, ratios, seed)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        records.write_trajectories(os.path.join(out_dir, f"{name}.txt"), part.trajectories)
    records.write_observed(os.path.join(out_dir, "observed_train.txt"), train.trajectories)
    records.write_locations(os.path.join(out_dir, "locations.csv"), dataset.locations)


def cmd_preprocess(args) -> None:
    if args.slots < 2 or records.HOURS_PER_DAY % args.slots:
        raise CliValidationError(f"--slots must be at least 2 and divide "
                                 f"{records.HOURS_PER_DAY}, got {args.slots}")
    if not args.delimiter:
        raise CliValidationError("--delimiter must not be empty")
    if not -24 < args.utc_offset < 24:
        raise CliValidationError(f"--utc-offset must lie strictly between -24 and 24 hours, "
                                 f"got {args.utc_offset}")
    ratios = _parse_ratios(args.ratios)
    with _input_file(args.input, "input"), open(args.input, encoding="utf-8") as fh:
        checkins = records.parse_checkins(fh, args.delimiter, args.utc_offset)
    if not len(checkins.user):
        raise CliValidationError(f"no records parsed from {args.input}")
    trajectories = records.discretize(checkins, args.slots, args.fill)
    kept = records.filter_min_visits(trajectories, min_daily=args.min_daily_visits)
    if len(kept) < 3:
        raise CliValidationError(
            f"only {len(kept)} user-days survive the min-daily-visits filter; cannot split")
    dataset = Dataset(kept, checkins.coords)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_split_outputs(args.out_dir, dataset, ratios, args.seed)
    records.write_id_map(os.path.join(args.out_dir, "idmap.csv"), checkins.id_map)
    write_manifest(args, {}, [args.input])


def cmd_synth(args) -> None:
    config = resolve_config(args)
    ratios = _parse_ratios(config["ratios"])
    dataset = synth.synth_generate(_make_config(synth.SynthConfig, config))
    os.makedirs(args.out_dir, exist_ok=True)
    _write_split_outputs(args.out_dir, dataset, ratios, config["seed"])
    write_manifest(args, config, [])


def _load_locations(path) -> np.ndarray:
    with _input_file(path, "locations"):
        return records.read_locations(path)


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


def _load_train(args) -> Dataset:
    """The train split, with the pairs of the observed sidecar when one is
    given; its length bounds the sidecar's slots."""
    train = _load_split(args.train, "train", _load_locations(args.locations))
    if args.observed:
        with _input_file(args.observed, "observed"):
            records.attach_observed(train.trajectories, args.observed, train.n_locations)
    return train


def _build_graphs(train: Dataset, k: int) -> dict:
    """The weighted sdg, ttg and stg channels of a train split; a ``k``
    outside [1, N - 1] exits 1."""
    n = train.n_locations
    with _rejected():
        return {
            "sdg": graphs.build_sdg(train.locations, k=k),
            "ttg": graphs.build_ttg(train.trajectories.ids, n),
            "stg": graphs.build_stg(graphs.visit_profile_matrix(train.trajectories, n), k=k),
        }


def cmd_build_graphs(args) -> None:
    config = resolve_config(args)
    graph_config = _make_config(graphs.GraphConfig, config)
    train = _load_train(args)
    built = _build_graphs(train, graph_config.k)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, graph in built.items():
        if graph_config.edge_mode == "vanilla":
            graph = graphs.binarize(graph)
        graphs.save_graph(os.path.join(args.out_dir, f"{name}.csv"), graph)
    write_manifest(args, config, [args.train, args.locations]
                   + ([args.observed] if args.observed else []))


def _load_graphs(graphs_dir, channels, n, inputs: list) -> dict:
    """The ``channels`` graphs in ``graphs_dir``; each file joins ``inputs``."""
    loaded = {}
    for name in channels:
        path = os.path.join(graphs_dir, f"{name}.csv")
        with _input_file(path, f"graph channel {name}"):
            loaded[name] = graphs.load_graph(path, n, name)
        inputs.append(path)
    return loaded


def _fit(config, channel_graphs, train: Dataset, valid: Dataset | None):
    """The generator of the resolved options, pretrained on ``train``; given
    ``valid``, trained adversarially with the best checkpoint kept.  Returns
    it with the log."""
    with _rejected():
        gen = Generator(_make_config(GeneratorConfig, config, n_locations=train.n_locations),
                        channel_graphs, seed=config["seed"])
    tc = _make_config(training.TrainConfig, config)
    log = training.pretrain_generator(gen, train.trajectories.ids, tc)
    if valid is not None:
        log += training.adversarial_train(gen, train, valid, tc)
    return gen, log


def cmd_train(args) -> None:
    """``pretrain``; for ``train``, adversarial training after it."""
    config = resolve_config(args)
    coords = _load_locations(args.locations)
    train = _load_split(args.train, "train", coords)
    ids = train.trajectories.ids
    inputs = [args.train, args.locations]
    valid = None
    if args.command == "train":
        valid = _load_split(args.valid, "valid", coords, ids.shape[1])
        inputs.append(args.valid)
    channel_graphs = _load_graphs(args.graphs_dir, config["channels"], len(coords), inputs)
    gen, log = _fit(config, channel_graphs, train, valid)
    os.makedirs(args.out_dir, exist_ok=True)
    persist.save_generator(os.path.join(args.out_dir, "gen"), gen,
                           seed_distribution(ids, len(coords)), ids.shape[1])
    with open(os.path.join(args.out_dir, "train_log.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(log) + "\n")
    write_manifest(args, config, inputs)


def cmd_generate(args) -> None:
    if args.count < 1:
        raise CliValidationError("count must be positive")
    if args.seed < 0:
        raise CliValidationError(f"seed must be non-negative, got {args.seed}")
    coords = _load_locations(args.locations)
    meta_path, ckpt_path = f"{args.model}.meta", f"{args.model}.ckpt"
    inputs = [meta_path, ckpt_path, args.locations]
    with _input_file(meta_path, "model meta"):
        if not os.path.isfile(ckpt_path):
            raise CliValidationError(f"model checkpoint file not found: {ckpt_path}")
        meta = persist.read_model_meta(meta_path)
        trained_slots = meta.field("slots", records._int_field)
        slots = args.slots if args.slots is not None else trained_slots
        if slots < 2:
            raise CliValidationError(f"slots must be at least 2, got {slots}")
        channels = meta.field("channels", records._tuple_field)
        channel_graphs = _load_graphs(args.graphs_dir, channels, len(coords), inputs)
        with _rejected(persist.CheckpointError):
            gen, seed_dist = persist.load_generator(args.model, channel_graphs, meta)
    # Sampling holds count x slots int64 ids at once: a size past NumPy's
    # index range, or one the allocator refuses, is the flags' fault.
    too_large = CliValidationError(f"--count {args.count} trajectories of --slots {slots} ids "
                                   "do not fit in memory")
    if args.count * slots > np.iinfo(np.intp).max // 8:
        raise too_large
    try:
        ids = generate_batch(gen, args.count, slots, seed_dist, args.seed, "generate")
    except MemoryError:
        raise too_large from None
    os.makedirs(args.out_dir, exist_ok=True)
    records.write_trajectories(os.path.join(args.out_dir, "generated.txt"),
                               records.generated_trajectories(ids))
    write_manifest(args, {"slots": slots}, inputs)


def cmd_evaluate(args) -> None:
    for flag, value in (("--bins", args.bins), ("--top", args.top)):
        if value < 1:
            raise CliValidationError(f"{flag} must be positive, got {value}")
    if not 0.0 < args.grid_step < math.inf:
        raise CliValidationError(f"--grid-step must be positive and finite, got {args.grid_step}")
    coords = _load_locations(args.locations)
    # Each visited coordinate / step is floored to an int64 grid cell index.
    if np.abs(coords).max(initial=0.0) / args.grid_step >= 2.0 ** 63:
        raise CliValidationError(f"--grid-step {args.grid_step!r} is too small for "
                                 f"{args.locations}: a grid cell index would overflow int64")
    real = _load_split(args.real, "real", coords)
    generated = _load_split(args.generated, "generated", coords,
                            real.trajectories.ids.shape[1]).trajectories.ids
    if args.exclude_zero_steps:
        for label, path, ids in (("real", args.real, real.trajectories.ids),
                                 ("generated", args.generated, generated)):
            if not metrics.step_lengths(ids, coords, include_zero_steps=False)[0].size:
                raise CliValidationError(f"{path}: no {label} step moves, so "
                                         f"--exclude-zero-steps leaves no step distance to bin")
    report = metrics.evaluate(real, generated, include_zero_steps=not args.exclude_zero_steps,
                              bins=args.bins, top=args.top)
    os.makedirs(args.out_dir, exist_ok=True)
    metrics.write_report(os.path.join(args.out_dir, "report.txt"), report)
    metrics.write_grid(os.path.join(args.out_dir, "grid.csv"),
                       metrics.visit_grid(generated, coords, args.grid_step))
    write_manifest(args, {}, [args.real, args.generated, args.locations])


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
    graph_config = _make_config(graphs.GraphConfig, config)
    train = _load_train(args)
    valid, test = (_load_split(path, label, train.locations, train.trajectories.ids.shape[1])
                   for label, path in (("valid", args.valid), ("test", args.test)))
    weighted = _build_graphs(train, graph_config.k)
    by_mode = {"weighted": weighted,
               "vanilla": {name: graphs.binarize(g) for name, g in weighted.items()}}
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for name, overrides in _ablation_variants(config):
        variant = dict(config, **overrides)
        report = _run_variant(variant, by_mode[variant["edge_mode"]], train, valid, test)
        metrics.write_report(os.path.join(args.out_dir, f"report_{name}.txt"), report)
        rows.append((name, report))
    _write_ablation_table(args.out_dir, rows)
    write_manifest(args, config, [args.train, args.valid, args.test, args.locations]
                   + ([args.observed] if args.observed else []))


def _run_variant(config, channel_graphs, train: Dataset, valid: Dataset, test: Dataset):
    gen, _ = _fit(config, channel_graphs, train, valid)
    ids = train.trajectories.ids
    generated = generate_batch(gen, len(test), ids.shape[1],
                               seed_distribution(ids, train.n_locations), config["seed"],
                               "ablation/final_eval")
    return metrics.evaluate(test, generated)


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


def _command(sub, name, func, help_text, paths, configs=()) -> _Parser:
    """The ``name`` subparser, run by the module function named ``func``
    (looked up when the command runs, so the parser can be kept): a
    required flag per path in ``paths`` and ``--out-dir``, then the option
    flags of ``configs``."""
    p = sub.add_parser(name, help=help_text)
    for path in paths + ("out-dir",):
        p.add_argument("--" + path, required=True)
    if configs:
        _option_flags(p, configs)
    p.set_defaults(func=func)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="mobsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    observed_help = "optional raw-observation sidecar for visit profiles"

    p = _command(sub, "preprocess", "cmd_preprocess",
                 "parse check-ins into split trajectory files", ("input",))
    p.add_argument("--delimiter", default=",")
    p.add_argument("--slots", type=int, default=24)
    p.add_argument("--fill", choices=("ffill", "bfill"), default="ffill")
    p.add_argument("--utc-offset", type=int, default=0)
    p.add_argument("--min-daily-visits", type=int, default=9)
    p.add_argument("--ratios", default="7:1:2")
    p.add_argument("--seed", type=int, default=0)

    _command(sub, "synth", "cmd_synth", "generate a synthetic dataset with known dynamics", (),
             (synth.SynthConfig,))
    p = _command(sub, "build-graphs", "cmd_build_graphs",
                 "build the three location graphs from a train split", ("train", "locations"),
                 (graphs.GraphConfig,))
    p.add_argument("--observed", default="", help=observed_help)
    for name, help_text, paths in (
            ("pretrain", "teacher-forced pretraining only", ("train",)),
            ("train", "pretraining plus adversarial training", ("train", "valid"))):
        _command(sub, name, "cmd_train", help_text, paths + ("locations", "graphs-dir"),
                 MODEL_CONFIGS)

    p = _command(sub, "generate", "cmd_generate", "sample trajectories from a trained model",
                 ("graphs-dir", "locations"))
    p.add_argument("--model", required=True, help="checkpoint prefix (…/gen)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--slots", type=int, help="trajectory length (default: the trained length)")
    p.add_argument("--seed", type=int, default=0)

    p = _command(sub, "evaluate", "cmd_evaluate", "score generated against real trajectories",
                 ("real", "generated", "locations"))
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--exclude-zero-steps", action="store_true")

    p = _command(sub, "ablation", "cmd_ablation", "run the channel/edge-mode/dwell ablation suite",
                 ("train", "valid", "test", "locations"), MODEL_CONFIGS + (graphs.GraphConfig,))
    p.add_argument("--observed", default="", help=observed_help)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing a command line
    leaves it as it was, and each parse starts a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        blas.fix_heap_thresholds()
        with blas.one_thread():
            globals()[args.func](args)
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
