"""Command-line workflows.

Commands: ``preprocess``, ``synth``, ``build-graphs``, ``pretrain``,
``train``, ``generate``, ``evaluate``, ``ablation``.  Every command writes
its outputs under ``--out-dir`` together with a ``manifest.json`` capturing
the resolved configuration, the master seed, tool versions, and SHA-256
digests of the inputs, so a run is reproducible from its manifest alone.

Option values resolve as: command-line flag > ``--config`` file (key=value
lines, ``#`` comments) > built-in default.  Exit codes: 0 success, 1 invalid
configuration or input, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__, graphs, metrics, persist, records, synth, training
from .discriminator import Discriminator, DiscriminatorConfig
from .generator import Generator, GeneratorConfig, generate_batch, sample_streams, seed_distribution
from .records import Dataset


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


def _coerce(key: str, raw: str, default):
    try:
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("1", "true", "yes"):
                return True
            if lowered in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(item.strip() for item in raw.split(",") if item.strip())
        return raw
    except ValueError:
        raise CliValidationError(f"config key {key!r}: cannot parse {raw!r}") from None


def resolve_config(defaults: dict, config_path, flag_values: dict) -> dict:
    """flags > config file > defaults, with file values coerced by default type."""
    resolved = dict(defaults)
    if config_path:
        with _input_file(config_path, "config"):
            file_values = persist.read_meta(config_path)
        for key, raw in file_values.items():
            if key not in defaults:
                raise CliValidationError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, raw, defaults[key])
    for key, value in flag_values.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _parse_ratios(text) -> tuple:
    try:
        parts = tuple(int(p) for p in str(text).split(":"))
    except ValueError:
        raise CliValidationError(f"ratios must look like 7:1:2, got {text!r}") from None
    if len(parts) != 3 or any(p <= 0 for p in parts):
        raise CliValidationError(f"ratios must be 3 positive integers, got {text!r}")
    return parts


def _write_split_outputs(out_dir, dataset: Dataset, ratios, seed):
    train, valid, test = records.split(dataset, ratios, seed)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        records.write_trajectories(os.path.join(out_dir, f"{name}.txt"), part.trajectories)
    records.write_observed(os.path.join(out_dir, "observed_train.txt"), train.trajectories)
    records.write_locations(os.path.join(out_dir, "locations.csv"), dataset.locations)
    return train, valid, test


def cmd_preprocess(args) -> None:
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


SYNTH_DEFAULTS = {
    "n_locations": 100, "users": 50, "days": 10, "stay_prob": 0.0,
    "kernel": "uniform", "seed": 0, "slots": 24, "grid_step": 0.01,
    "ratios": "7:1:2",
}


def cmd_synth(args) -> None:
    flags = {k: getattr(args, k) for k in SYNTH_DEFAULTS}
    config = resolve_config(SYNTH_DEFAULTS, args.config, flags)
    ratios = _parse_ratios(config["ratios"])
    try:
        synth_config = synth.SynthConfig(
            n_locations=config["n_locations"], users=config["users"],
            days=config["days"], stay_prob=config["stay_prob"],
            kernel=config["kernel"], seed=config["seed"],
            slots_per_day=config["slots"], grid_step_deg=config["grid_step"])
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None
    planted = synth.synth_generate(synth_config)
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
    all hold ``slots`` ids (one common count when omitted)."""
    with _input_file(path, label):
        trajectories = records.read_trajectories(path, len(coords), slots)
    if not len(trajectories):
        raise CliValidationError(f"{label} file {path} holds no trajectories")
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


TRAIN_DEFAULTS = {
    "embed_dim": 32, "hidden_dim": 32, "layers": 1, "heads": 1,
    "channels": ("sdg", "ttg", "stg"), "dropout": 0.6, "beta": 1.0, "dwell": True,
    "epochs": 50, "pretrain_epochs": 10, "d_pretrain_epochs": 3, "batch_size": 32,
    "lr": 0.01, "optimizer": "adam", "rollouts": 16, "g_steps": 1, "d_steps": 1,
    "seed": 0, "baseline": True, "baseline_decay": 0.9, "eval_count": 0,
    "steps_per_epoch": 0,
}


def _model_flags(parser: _Parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--embed-dim", dest="embed_dim", type=int)
    parser.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    parser.add_argument("--layers", type=int)
    parser.add_argument("--heads", type=int)
    parser.add_argument("--channels", type=lambda s: tuple(s.split(",")))
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--dwell", type=int, choices=(0, 1))
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    parser.add_argument("--d-pretrain-epochs", dest="d_pretrain_epochs", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--optimizer", choices=("adam", "sgd"))
    parser.add_argument("--rollouts", type=int)
    parser.add_argument("--g-steps", dest="g_steps", type=int)
    parser.add_argument("--d-steps", dest="d_steps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--baseline", type=int, choices=(0, 1))
    parser.add_argument("--baseline-decay", dest="baseline_decay", type=float)
    parser.add_argument("--eval-count", dest="eval_count", type=int)
    parser.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int)


def _resolve_train_config(args, extra_defaults=None) -> dict:
    """TRAIN_DEFAULTS plus ``extra_defaults``, resolved flag > file > default."""
    defaults = dict(TRAIN_DEFAULTS, **(extra_defaults or {}))
    flags = {k: getattr(args, k) for k in defaults}
    for key in ("dwell", "baseline"):
        if flags[key] is not None:
            flags[key] = bool(flags[key])
    config = resolve_config(defaults, args.config, flags)
    if not config["channels"]:
        raise CliValidationError("at least one graph channel must stay enabled")
    return config


def _load_graphs(graphs_dir, channels, n) -> dict:
    loaded = {}
    for name in channels:
        path = os.path.join(graphs_dir, f"{name}.csv")
        with _input_file(path, f"graph channel {name}"):
            loaded[name] = graphs.load_graph(path, n)
    return loaded


def _build_models(config, channel_graphs, n):
    try:
        gen = Generator(GeneratorConfig(
            n_locations=n, embed_dim=config["embed_dim"], hidden_dim=config["hidden_dim"],
            layers=config["layers"], heads=config["heads"], channels=config["channels"],
            dropout=config["dropout"], beta=config["beta"], dwell=config["dwell"],
        ), channel_graphs, seed=config["seed"])
        disc = Discriminator(DiscriminatorConfig(
            n_locations=n, embed_dim=config["embed_dim"], hidden_dim=config["hidden_dim"],
        ), seed=config["seed"])
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None
    return gen, disc


def _train_config(config) -> training.TrainConfig:
    keys = ("epochs", "pretrain_epochs", "d_pretrain_epochs", "batch_size", "lr",
            "optimizer", "rollouts", "g_steps", "d_steps", "seed", "baseline",
            "baseline_decay", "eval_count", "steps_per_epoch")
    try:
        return training.TrainConfig(**{k: config[k] for k in keys})
    except ValueError as exc:
        raise CliValidationError(str(exc)) from None


def _run_training(args, adversarial: bool) -> None:
    config = _resolve_train_config(args)
    coords = _load_locations(args.locations)
    n = len(coords)
    train = _load_split(args.train, "train", coords)
    train_ids = train.trajectories.ids
    if adversarial:
        valid = _load_split(args.valid, "valid", coords, train_ids.shape[1])
    channel_graphs = _load_graphs(args.graphs_dir, config["channels"], n)
    gen, disc = _build_models(config, channel_graphs, n)
    tc = _train_config(config)
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
    command = "train" if adversarial else "pretrain"
    manifest_config = dict(config)
    manifest_config.update(train=args.train, locations=args.locations,
                           graphs_dir=args.graphs_dir)
    if adversarial:
        manifest_config["valid"] = args.valid
    write_manifest(args.out_dir, command, manifest_config, inputs)


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
        if slots < 1:
            raise CliValidationError(f"slots must be positive, got {slots}")
        channels = tuple(meta.field("channels").split(","))
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
    config = _resolve_train_config(
        args, {"k": 20, "metric": "haversine", "edge_mode": "weighted"})
    coords = _load_locations(args.locations)
    train_ds, valid_ds, test_ds = (
        _load_split(path, label, coords, args.slots)
        for label, path in (("train", args.train), ("valid", args.valid), ("test", args.test)))
    if args.observed:
        _attach_observed(train_ds.trajectories, args.observed, len(coords), args.slots)
    weighted = _build_graphs(train_ds, config["k"], config["metric"])
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
    gen, disc = _build_models(config, {c: channel_graphs[c] for c in config["channels"]},
                              train_ds.n_locations)
    tc = _train_config(config)
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
    p.add_argument("--config")
    p.add_argument("--n-locations", dest="n_locations", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--stay-prob", dest="stay_prob", type=float)
    p.add_argument("--kernel", choices=("uniform", "uniform_offdiag", "random"))
    p.add_argument("--seed", type=int)
    p.add_argument("--slots", type=int)
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--ratios")
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
        _model_flags(p)
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
    p.add_argument("--k", type=int)
    p.add_argument("--metric", choices=("haversine", "euclidean"))
    p.add_argument("--edge-mode", dest="edge_mode", choices=("weighted", "vanilla"))
    _model_flags(p)
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
