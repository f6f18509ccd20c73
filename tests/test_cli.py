import argparse
import hashlib
import json
import math
import os
import re
import shlex
import struct
import types

import numpy as np
import pytest

from mobsim import blas, cli, nn, persist
from mobsim.cli import CliValidationError, build_parser, main, resolve_config
from mobsim.discriminator import Discriminator


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = _read(path)
    return out


CHECKINS = "\n".join(
    f"user{u},venue{(u * 7 + h * 3) % 5},40.{u},-74.0,2012-04-0{d}T{h:02d}:10:00Z"
    for u in range(4) for d in (3, 4) for h in range(0, 24, 2)
) + "\n"


@pytest.fixture()
def checkin_file(tmp_path):
    path = tmp_path / "checkins.csv"
    path.write_text(CHECKINS)
    return str(path)


def test_preprocess_writes_outputs_and_manifest(tmp_path, checkin_file):
    out = tmp_path / "prep"
    assert main(["preprocess", "--input", checkin_file, "--out-dir", str(out)]) == 0
    for name in ("train.txt", "valid.txt", "test.txt", "locations.csv",
                 "idmap.csv", "observed_train.txt", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["config"]["min_daily_visits"] == 9
    assert checkin_file in manifest["inputs"]
    assert len(manifest["inputs"][checkin_file]) == 64      # sha256 hex
    assert "mobsim" in manifest["versions"]


def test_preprocess_is_byte_deterministic(tmp_path, checkin_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["preprocess", "--input", checkin_file,
                     "--out-dir", str(out), "--seed", "3"]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_preprocess_other_delimiter_matches_comma(tmp_path, checkin_file):
    semicolons = tmp_path / "checkins_semicolon.csv"
    semicolons.write_text(CHECKINS.replace(",", ";"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["preprocess", "--input", checkin_file, "--out-dir", str(a)]) == 0
    assert main(["preprocess", "--input", str(semicolons), "--delimiter", ";",
                 "--out-dir", str(b)]) == 0
    outputs = [_tree_bytes(out) for out in (a, b)]
    for tree in outputs:
        del tree["manifest.json"]
    assert outputs[0] == outputs[1]


def test_preprocess_missing_input_is_exit_1(tmp_path, capsys):
    code = main(["preprocess", "--input", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_preprocess_malformed_record_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("only,three,fields\n")
    code = main(["preprocess", "--input", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("lat, lon, field", [("40.5", "\u0663", "lon"), ("4_0.5", "-74.0", "lat")],
                         ids=["non_ascii_lon", "underscore_lat"])
def test_preprocess_coordinate_that_is_no_ascii_float_is_exit_1(tmp_path, capsys, lat, lon,
                                                                 field):
    # Python's float() reads both as numbers (3.0 and 40.5).
    bad = tmp_path / "bad.csv"
    lines = CHECKINS.splitlines()
    lines[2] = f"user9,venue9,{lat},{lon},2012-04-03T08:15:00Z"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["preprocess", "--input", str(bad), "--out-dir", str(tmp_path / "o")]) == 1
    assert f"{bad}:3: field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_command_is_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_bad_flag_value_is_exit_1(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "o"),
                 "--stay-prob", "1.5"]) == 1


def test_synth_is_deterministic(tmp_path):
    # The config fixes the planted kernel, so no file of it is written.
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--n-locations", "9", "--users", "4", "--days", "3",
            "--stay-prob", "0.4", "--seed", "11"]
    for out in (a, b):
        assert main(args + ["--out-dir", str(out)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)
    assert set(_tree_bytes(a)) == {"train.txt", "valid.txt", "test.txt", "observed_train.txt",
                                   "locations.csv", "manifest.json"}


def test_synth_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("users=3\ndays=2\nn_locations=6\nseed=5\n")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out),
                 "--days", "4"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["users"] == 3         # from file
    assert manifest["config"]["days"] == 4          # flag wins
    assert manifest["config"]["n_locations"] == 6


def test_config_file_unknown_key_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("warp_speed=9\n")
    assert main(["synth", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert "warp_speed" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> build-graphs -> pretrain once per module; several tests read it."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert main(["synth", "--out-dir", str(data), "--n-locations", "12",
                 "--users", "6", "--days", "5", "--stay-prob", "0.5",
                 "--seed", "2"]) == 0
    gdir = root / "graphs"
    assert main(["build-graphs", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"),
                 "--observed", str(data / "observed_train.txt"),
                 "--out-dir", str(gdir), "--k", "4"]) == 0
    model = root / "model"
    assert main(["pretrain", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"),
                 "--graphs-dir", str(gdir), "--out-dir", str(model),
                 "--embed-dim", "6", "--hidden-dim", "6", "--dropout", "0.0",
                 "--pretrain-epochs", "1", "--d-pretrain-epochs", "1",
                 "--seed", "2"]) == 0
    return root


def test_build_graphs_outputs(pipeline):
    gdir = pipeline / "graphs"
    for channel in ("sdg", "ttg", "stg"):
        header = (gdir / f"{channel}.csv").read_text().splitlines()[0]
        assert header.startswith(f"{channel},weighted")


def test_build_graphs_bad_k_is_exit_1(pipeline, tmp_path):
    data = pipeline / "data"
    assert main(["build-graphs", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"),
                 "--out-dir", str(tmp_path / "g"), "--k", "12"]) == 1


def test_pretrain_saves_models_and_log(pipeline):
    # Only the adversarial phase fits a discriminator, so pretrain saves none.
    model = pipeline / "model"
    for name in ("gen.ckpt", "gen.meta", "train_log.txt", "manifest.json"):
        assert (model / name).exists()
    assert not list(model.glob("disc.*"))
    log = (model / "train_log.txt").read_text()
    assert "phase=pretrain_g epoch=0" in log
    assert "phase=pretrain_d" not in log


def test_pretrain_never_builds_a_discriminator(pipeline, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pretrain built a discriminator")

    monkeypatch.setattr(Discriminator, "__init__", refuse)
    assert main(_pretrain_args(pipeline, tmp_path) + ["--d-pretrain-epochs", "2"]) == 0
    assert (tmp_path / "gen.ckpt").exists()


def test_train_without_epochs_saves_the_pretrained_generator(pipeline, tmp_path):
    # Fitting the discriminator never touches the generator.
    flags = ["--epochs", "0", "--d-pretrain-epochs", "2", "--dropout", "0.3"]
    assert main(_pretrain_args(pipeline, tmp_path / "pre") + flags) == 0
    assert main(["train", "--valid", str(pipeline / "data" / "valid.txt"),
                 *_pretrain_args(pipeline, tmp_path / "adv")[1:], *flags]) == 0
    for name in ("gen.ckpt", "gen.meta"):
        assert _read(tmp_path / "adv" / name) == _read(tmp_path / "pre" / name)
    assert not list((tmp_path / "adv").glob("disc.*"))


def test_train_saves_the_generator_alone(pipeline, tmp_path):
    # The discriminator is a training signal: train writes no disc.* file.
    assert main(["train", "--valid", str(pipeline / "data" / "valid.txt"),
                 *_pretrain_args(pipeline, tmp_path)[1:], "--epochs", "1",
                 "--steps-per-epoch", "1", "--rollouts", "2", "--eval-count", "4"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["gen.ckpt", "gen.meta", "manifest.json",
                                            "train_log.txt"]
    assert "phase=adv epoch=1 " in (tmp_path / "train_log.txt").read_text()


def test_generate_rejects_an_older_runs_discriminator(pipeline, tmp_path, capsys):
    # The disc.meta and disc.ckpt that train wrote before it stopped saving one.
    (tmp_path / "disc.meta").write_text("kind=discriminator\nn_locations=12\n"
                                        "embed_dim=6\nhidden_dim=6\n")
    nn.save_checkpoint(tmp_path / "disc.ckpt", Discriminator(12, 6, 6).params)
    assert main(["generate", "--model", str(tmp_path / "disc"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--count", "3", "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{tmp_path / 'disc.meta'}:1: field 'kind'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_is_byte_deterministic(pipeline, tmp_path):
    args = ["generate", "--model", str(pipeline / "model" / "gen"),
            "--graphs-dir", str(pipeline / "graphs"),
            "--locations", str(pipeline / "data" / "locations.csv"),
            "--count", "25", "--seed", "6"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)
    lines = (a / "generated.txt").read_text().splitlines()
    assert len(lines) == 25
    assert main(args + ["--out-dir", str(tmp_path / "c"), "--seed", "7"]) == 0
    assert _read(tmp_path / "c" / "generated.txt") != _read(a / "generated.txt")


def test_evaluate_writes_report_and_grid(pipeline, tmp_path):
    gen_dir = tmp_path / "gen"
    assert main(["generate", "--model", str(pipeline / "model" / "gen"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--count", "30", "--seed", "1", "--out-dir", str(gen_dir)]) == 0
    out = tmp_path / "eval"
    assert main(["evaluate", "--real", str(pipeline / "data" / "test.txt"),
                 "--generated", str(gen_dir / "generated.txt"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(out)]) == 0
    text = (out / "report.txt").read_text()
    for name in ("distance", "radius", "duration", "daily_loc", "g_rank", "i_rank"):
        assert f"jsd.{name}=" in text
    assert "jsd.mean=" in text
    assert (out / "grid.csv").read_text().count(",") >= 2

    again = tmp_path / "eval2"
    assert main(["evaluate", "--real", str(pipeline / "data" / "test.txt"),
                 "--generated", str(gen_dir / "generated.txt"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(again)]) == 0
    assert _tree_bytes(out) == _tree_bytes(again)


def test_generate_missing_model_is_exit_1(pipeline, tmp_path):
    assert main(["generate", "--model", str(tmp_path / "missing"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "o")]) == 1


def test_ablation_runs_all_variants(pipeline, tmp_path):
    data = pipeline / "data"
    out = tmp_path / "abl"
    assert main(["ablation", "--train", str(data / "train.txt"),
                 "--valid", str(data / "valid.txt"),
                 "--test", str(data / "test.txt"),
                 "--locations", str(data / "locations.csv"),
                 "--observed", str(data / "observed_train.txt"),
                 "--out-dir", str(out), "--k", "4",
                 "--embed-dim", "6", "--hidden-dim", "6", "--dropout", "0.0",
                 "--pretrain-epochs", "1", "--d-pretrain-epochs", "0",
                 "--epochs", "1", "--rollouts", "2", "--eval-count", "12",
                 "--seed", "4"]) == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    names = [row.split(",")[0] for row in rows[1:]]
    assert names == ["base", "no_sdg", "no_ttg", "no_stg",
                     "vanilla_edges", "no_dwell"]
    for name in names:
        assert (out / f"report_{name}.txt").exists()
    table = (out / "ablation.txt").read_text()
    assert "variant" in table and "no_dwell" in table


def test_evaluate_vocabulary_check_is_exit_1(pipeline, tmp_path):
    rogue = tmp_path / "rogue.txt"
    rogue.write_text("u,2012-01-01," + " ".join(["99"] * 24) + "\n")
    assert main(["evaluate", "--real", str(pipeline / "data" / "test.txt"),
                 "--generated", str(rogue),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "o")]) == 1


def _ids(values):
    return " ".join(str(v) for v in values)


GOOD_LINE = "u,2012-01-01," + _ids([0] * 24)


@pytest.mark.parametrize("line, field", [
    ("u,2012-01-01," + _ids([-1] + [0] * 23), "slots"),
    ("u,2012-01-01," + _ids([0] * 30), "slots"),
], ids=["negative_id", "thirty_slots"])
def test_evaluate_bad_generated_line_is_exit_1(pipeline, tmp_path, capsys, line, field):
    rogue = tmp_path / "rogue.txt"
    rogue.write_text(f"{GOOD_LINE}\n{line}\n")
    assert main(["evaluate", "--real", str(pipeline / "data" / "test.txt"),
                 "--generated", str(rogue),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert f"{rogue}:2: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [
    ("u,2020-13-01," + _ids([0] * 24), "day"),
    ("u,2012-01-01," + _ids(["x"] + [0] * 23), "slots"),
    ("u,2012-01-01", "record"),
    ("u,20120101,0 1 2", "day"),
    ("u,2012-W01-2,1 2 3", "day"),
], ids=["bad_day", "bad_token", "two_fields", "basic_day", "week_day"])
def test_build_graphs_bad_split_line_is_exit_1(pipeline, tmp_path, capsys, line, field):
    split = tmp_path / "train.txt"
    split.write_text(f"{GOOD_LINE}\n\n{line}\n")
    assert main(["build-graphs", "--train", str(split),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "g"), "--k", "4"]) == 1
    assert f"{split}:3: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1_0", "\u0663", "1" * 20, "1.5", "1e3"],
                         ids=["underscore", "arabic_indic_digit", "twenty_digits",
                              "decimal_point", "exponent"])
def test_evaluate_id_that_is_no_ascii_int64_is_exit_1(pipeline, tmp_path, capsys, token):
    # Python's int() reads all three; the id parse takes ASCII decimal int64 only.
    rogue = tmp_path / "rogue.txt"
    rogue.write_text(f"{GOOD_LINE}\nu,2012-01-01,{_ids([token] + [0] * 23)}\n")
    assert main(["evaluate", "--real", str(pipeline / "data" / "test.txt"),
                 "--generated", str(rogue),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert f"{rogue}:2: field 'slots': ids must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["1_0", "1.5", "1e3"],
                         ids=["underscore", "decimal_point", "exponent"])
def test_build_graphs_pair_that_is_no_ascii_int_is_exit_1(pipeline, tmp_path, capsys, token):
    data = pipeline / "data"
    observed = tmp_path / "observed.txt"
    observed.write_text(f"u,2012-01-01,0:1 5:2\nu,2012-01-01,{token}:3\n")
    assert main(["build-graphs", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"), "--observed", str(observed),
                 "--out-dir", str(tmp_path / "g"), "--k", "4"]) == 1
    assert f"{observed}:2: field 'pairs': not an integer: '{token}'" in capsys.readouterr().err


def test_train_valid_length_must_match_train_is_exit_1(pipeline, tmp_path, capsys):
    data = pipeline / "data"
    valid = tmp_path / "valid.txt"
    valid.write_text("u,2012-01-01," + _ids([0] * 12) + "\n")
    assert main(["train", "--train", str(data / "train.txt"), "--valid", str(valid),
                 "--locations", str(data / "locations.csv"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--out-dir", str(tmp_path / "m")]) == 1
    assert f"{valid}:1: field 'slots': 12 ids, expected 24" in capsys.readouterr().err


def _rewrite_line(src, dst, line_no, text):
    lines = src.read_text().splitlines()
    lines[line_no - 1] = text
    dst.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("line, field", [
    ("2,40.0", "record"),
    ("two,40.0,-74.0", "id"),
    ("2,north,-74.0", "lat"),
    ("2,40.0,x", "lon"),
    ("2,nan,-74.0", "lat"),
    ("2,40.0,inf", "lon"),
    ("1,40.0,-74.0", "id"),
    ("12,40.0,-74.0", "id"),
    ("2,400.0,-74.0", "lat"),
    ("2,40.0,181", "lon"),
    ("1_0,40.0,-74.0", "id"),
    ("2,4_0.5,-74.0", "lat"),
], ids=["two_fields", "bad_id", "bad_lat", "bad_lon", "nan_lat", "inf_lon",
        "duplicate_id", "non_dense_ids", "lat_out_of_range", "lon_out_of_range",
        "underscore_id", "underscore_lat"])
def test_build_graphs_bad_locations_line_is_exit_1(pipeline, tmp_path, capsys, line, field):
    data = pipeline / "data"
    locations = tmp_path / "locations.csv"
    _rewrite_line(data / "locations.csv", locations, 3, line)
    assert main(["build-graphs", "--train", str(data / "train.txt"),
                 "--locations", str(locations),
                 "--out-dir", str(tmp_path / "g"), "--k", "4"]) == 1
    assert f"{locations}:3: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [
    ("u,2012-01-01,99:3", "pairs"),
    ("u,2012-01-01,-1:3", "pairs"),
    ("u,2012-01-01,3:12", "pairs"),
    ("u,2012-01-01,3:4 5-6", "pairs"),
    ("u,2012-01-01,3:x", "pairs"),
    ("u,2012-13-01,3:4", "day"),
    ("u,2012-01-01", "record"),
], ids=["slot_too_large", "negative_slot", "location_too_large", "no_colon",
        "bad_location", "bad_day", "two_fields"])
def test_build_graphs_bad_observed_line_is_exit_1(pipeline, tmp_path, capsys, line, field):
    data = pipeline / "data"
    observed = tmp_path / "observed.txt"
    observed.write_text(f"u,2012-01-01,0:1 5:2\n{line}\n")
    assert main(["build-graphs", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"), "--observed", str(observed),
                 "--out-dir", str(tmp_path / "g"), "--k", "4"]) == 1
    assert f"{observed}:2: field '{field}'" in capsys.readouterr().err


def test_generate_defaults_to_the_trained_length(tmp_path):
    data, gdir, model = tmp_path / "data", tmp_path / "graphs", tmp_path / "model"
    assert main(["synth", "--out-dir", str(data), "--n-locations", "8", "--users", "4",
                 "--days", "4", "--slots", "12", "--seed", "3"]) == 0
    assert main(["build-graphs", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"),
                 "--out-dir", str(gdir), "--k", "3"]) == 0
    assert main(["pretrain", "--train", str(data / "train.txt"),
                 "--locations", str(data / "locations.csv"),
                 "--graphs-dir", str(gdir), "--out-dir", str(model),
                 "--embed-dim", "4", "--hidden-dim", "4", "--dropout", "0.0",
                 "--pretrain-epochs", "1", "--d-pretrain-epochs", "0"]) == 0
    out = tmp_path / "gen"
    assert main(["generate", "--model", str(model / "gen"), "--graphs-dir", str(gdir),
                 "--locations", str(data / "locations.csv"), "--count", "5",
                 "--out-dir", str(out)]) == 0
    lines = (out / "generated.txt").read_text().splitlines()
    assert [len(line.split(",")[2].split()) for line in lines] == [12] * 5
    assert json.loads((out / "manifest.json").read_text())["config"]["slots"] == 12
    assert main(["generate", "--model", str(model / "gen"), "--graphs-dir", str(gdir),
                 "--locations", str(data / "locations.csv"), "--slots", "0",
                 "--out-dir", str(tmp_path / "zero")]) == 1


def _generate_from(pipeline, model_dir, meta_lines, ckpt):
    """Exit code of generate on a model written to ``model_dir`` from
    ``meta_lines`` and the checkpoint bytes ``ckpt``."""
    (model_dir / "gen.meta").write_text("\n".join(meta_lines) + "\n")
    (model_dir / "gen.ckpt").write_bytes(ckpt)
    return main(["generate", "--model", str(model_dir / "gen"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--count", "3", "--out-dir", str(model_dir / "out")])


def test_generate_without_slots_in_meta_is_exit_1(pipeline, tmp_path, capsys):
    # The trained length is a required meta field like every other one.
    meta = (pipeline / "model" / "gen.meta").read_text().splitlines()
    without_slots = [line for line in meta if not line.startswith("slots=")]
    assert _generate_from(pipeline, tmp_path, without_slots,
                          _read(pipeline / "model" / "gen.ckpt")) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'gen.meta'}: field 'slots': missing" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line_no, line, field", [
    (3, "0,999,1.0", "dst"),
    (3, "0,1,abc", "weight"),
    (3, "0,0,1.0", "dst"),
    (3, "0,1", "record"),
    (3, "-3,1,1.0", "src"),
    (3, "0,x,1.0", "dst"),
    (3, "0,1,nan", "weight"),
    (1, "sdg,dense,4", "header"),
    (1, "sdg,weighted", "header"),
    (1, "sdg,weighted,four", "k"),
    (1, "ttg,weighted,4", "header"),
    (3, "0,1,1_0.5", "weight"),
    (3, "0,1,\u0663", "weight"),
], ids=["dst_out_of_range", "bad_weight", "self_edge", "two_fields", "negative_src",
        "bad_dst", "nan_weight", "unknown_mode", "short_header", "bad_k", "other_channel",
        "underscore_weight", "non_ascii_weight"])
def test_generate_bad_graph_line_is_exit_1(pipeline, tmp_path, capsys, line_no, line, field):
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    for channel in ("sdg", "ttg", "stg"):
        (gdir / f"{channel}.csv").write_bytes(_read(pipeline / "graphs" / f"{channel}.csv"))
    _rewrite_line(pipeline / "graphs" / "sdg.csv", gdir / "sdg.csv", line_no, line)
    assert main(["generate", "--model", str(pipeline / "model" / "gen"),
                 "--graphs-dir", str(gdir),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--count", "3", "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{gdir / 'sdg.csv'}:{line_no}: field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "generate"])
def test_duplicate_graph_edge_is_exit_1(pipeline, tmp_path, capsys, command):
    # Line 3 repeats line 2's (src, dst) pair with another weight.
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    for channel in ("sdg", "ttg", "stg"):
        (gdir / f"{channel}.csv").write_bytes(_read(pipeline / "graphs" / f"{channel}.csv"))
    src, dst, _ = (pipeline / "graphs" / "sdg.csv").read_text().splitlines()[1].split(",")
    _rewrite_line(pipeline / "graphs" / "sdg.csv", gdir / "sdg.csv", 3, f"{src},{dst},2.0")
    data = pipeline / "data"
    if command == "train":
        args = ["train", "--train", str(data / "train.txt"), "--valid", str(data / "valid.txt"),
                "--graphs-dir", str(gdir), "--out-dir", str(tmp_path / "m")]
    else:
        args = ["generate", "--model", str(pipeline / "model" / "gen"), "--graphs-dir", str(gdir),
                "--count", "3", "--out-dir", str(tmp_path / "out")]
    assert main(args + ["--locations", str(data / "locations.csv")]) == 1
    assert f"{gdir / 'sdg.csv'}:3: field 'dst'" in capsys.readouterr().err


@pytest.mark.parametrize("edits, field", [
    ({"n_locations": "n_locations=abc"}, "n_locations"),
    ({"heads": None}, "heads"),
    ({"seed_distribution": "seed_distribution=0.5,0.5"}, "seed_distribution"),
    ({"seed_distribution": "seed_distribution=-0.5,1.5" + ",0.0" * 10}, "seed_distribution"),
    ({"seed_distribution": "seed_distribution=0.5,nan" + ",0.0" * 10}, "seed_distribution"),
    ({"dwell": "dwell"}, "record"),
    ({"heads": "heads=3"}, "heads"),
    ({"hidden_dim": "hidden_dim=0"}, "hidden_dim"),
    ({"n_locations": "n_locations=13",
      "seed_distribution": "seed_distribution=1.0" + ",0.0" * 12}, "n_locations"),
    ({"channels": "channels=sdg,sdg"}, "channels"),
], ids=["bad_int", "missing_field", "short_seed_distribution", "negative_seed_probability",
        "nan_seed_probability", "no_equals_sign", "unsupported_heads", "zero_hidden_dim",
        "n_locations_not_the_locations_file", "repeated_channel"])
def test_generate_bad_meta_is_exit_1(pipeline, tmp_path, capsys, edits, field):
    # Each edit replaces the line of its key (None drops it); the error names
    # the line of the first edited key.
    model = pipeline / "model"
    lines = (model / "gen.meta").read_text().splitlines()
    line_of = {text.split("=")[0]: i for i, text in enumerate(lines, start=1)}
    for key, line in edits.items():
        lines[line_of[key] - 1] = line
    kept = [line for line in lines if line is not None]
    assert _generate_from(pipeline, tmp_path, kept, _read(model / "gen.ckpt")) == 1
    where = tmp_path / "gen.meta"
    key, line = next(iter(edits.items()))
    prefix = f"{where}: " if line is None else f"{where}:{line_of[key]}: "
    assert f"{prefix}field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["embed_dim", "hidden_dim"])
def test_generate_meta_width_past_the_checkpoint_is_exit_1(pipeline, tmp_path, capsys,
                                                           monkeypatch, field):
    # A generator of this width would take over 100 GiB; the meta is checked
    # against the checkpoint's tensors before one is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("Generator built before the meta was checked")

    monkeypatch.setattr(persist, "Generator", unreachable)
    model = pipeline / "model"
    lines = (model / "gen.meta").read_text().splitlines()
    line_no = next(i for i, text in enumerate(lines, start=1) if text.startswith(f"{field}="))
    lines[line_no - 1] = f"{field}=1000000000"
    assert _generate_from(pipeline, tmp_path, lines, _read(model / "gen.ckpt")) == 1
    assert f"{tmp_path / 'gen.meta'}:{line_no}: field '{field}'" in capsys.readouterr().err


def _with_embed_rows(ckpt: bytes, rows: int) -> bytes:
    """``ckpt`` with the first dim of its ``embed`` tensor set to ``rows``."""
    at = ckpt.index(b"\x05\x00embed\x02") + 8
    return ckpt[:at] + struct.pack("<Q", rows) + ckpt[at + 8:]


@pytest.mark.parametrize("ckpt", ["truncated", "discriminator", "appended_byte",
                                  "embed_rows_2e40", "embed_rows_2e63"])
def test_generate_bad_checkpoint_is_exit_1(pipeline, tmp_path, capsys, ckpt):
    model = pipeline / "model"
    if ckpt == "discriminator":
        # A checkpoint of the other model, sized like the pipeline's generator.
        nn.save_checkpoint(tmp_path / "disc.ckpt", Discriminator(12, 6, 6).params)
        data = _read(tmp_path / "disc.ckpt")
    else:
        # A shape field past the file's size is caught before it is allocated.
        data = {"truncated": _read(model / "gen.ckpt")[:100],
                "appended_byte": _read(model / "gen.ckpt") + b"\0",
                "embed_rows_2e40": _with_embed_rows(_read(model / "gen.ckpt"), 2 ** 40),
                "embed_rows_2e63": _with_embed_rows(_read(model / "gen.ckpt"), 2 ** 63)}[ckpt]
    meta = (model / "gen.meta").read_text().splitlines()
    assert _generate_from(pipeline, tmp_path, meta, data) == 1
    assert f"{tmp_path / 'gen.ckpt'}: " in capsys.readouterr().err


def test_config_file_line_without_equals_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# synth settings\nusers=3\ndays 2\n")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert f"{cfg}:3: field 'record'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# options declared by the config dataclasses

# The option defaults the CLI held as literals before each option was
# declared once, in its config dataclass.
PARENT_SYNTH_DEFAULTS = {
    "n_locations": 100, "users": 50, "days": 10, "stay_prob": 0.0,
    "kernel": "uniform", "seed": 0, "slots": 24, "grid_step": 0.01,
    "ratios": "7:1:2",
}
PARENT_TRAIN_DEFAULTS = {
    "embed_dim": 32, "hidden_dim": 32, "layers": 1, "heads": 1,
    "channels": ("sdg", "ttg", "stg"), "dropout": 0.6, "beta": 1.0, "dwell": True,
    "epochs": 50, "pretrain_epochs": 10, "d_pretrain_epochs": 3, "batch_size": 32,
    "lr": 0.01, "rollouts": 16, "seed": 0,
    "baseline_decay": 0.9, "eval_count": 0, "steps_per_epoch": 0,
}
ABLATION_DEFAULTS = {"k": 20, "edge_mode": "weighted"}


def _subparser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _flags(command):
    return {s for a in _subparser(command)._actions for s in a.option_strings} - {"-h", "--help"}


def _option_flags(defaults):
    return {"--config"} | {"--" + key.replace("_", "-") for key in defaults}


@pytest.mark.parametrize("command, flags", [
    ("synth", {"--out-dir"} | _option_flags(PARENT_SYNTH_DEFAULTS)),
    ("pretrain", {"--train", "--locations", "--graphs-dir", "--out-dir"}
     | _option_flags(PARENT_TRAIN_DEFAULTS)),
    ("train", {"--train", "--valid", "--locations", "--graphs-dir", "--out-dir"}
     | _option_flags(PARENT_TRAIN_DEFAULTS)),
    ("ablation", {"--train", "--valid", "--test", "--locations", "--observed", "--out-dir"}
     | _option_flags(dict(PARENT_TRAIN_DEFAULTS, **ABLATION_DEFAULTS))),
    ("preprocess", {"--input", "--out-dir", "--delimiter", "--slots", "--fill", "--utc-offset",
                    "--min-daily-visits", "--ratios", "--seed"}),
    ("build-graphs", {"--train", "--locations", "--observed", "--out-dir"}
     | _option_flags(ABLATION_DEFAULTS)),
    ("generate", {"--model", "--graphs-dir", "--locations", "--out-dir", "--count", "--slots",
                  "--seed"}),
    ("evaluate", {"--real", "--generated", "--locations", "--out-dir", "--bins", "--top",
                  "--grid-step", "--exclude-zero-steps"}),
])
def test_commands_take_the_same_flags(command, flags):
    assert _flags(command) == flags


def _manifest_config(out):
    return json.loads((out / "manifest.json").read_text())["config"]


def _listed(defaults):
    return {k: list(v) if isinstance(v, tuple) else v for k, v in defaults.items()}


def test_synth_without_flags_resolves_to_the_defaults(tmp_path):
    assert main(["synth", "--out-dir", str(tmp_path)]) == 0
    assert _manifest_config(tmp_path) == PARENT_SYNTH_DEFAULTS


def test_pretrain_without_flags_resolves_to_the_defaults(pipeline, tmp_path):
    data = pipeline / "data"
    paths = {"train": str(data / "train.txt"), "locations": str(data / "locations.csv"),
             "graphs_dir": str(pipeline / "graphs")}
    assert main(["pretrain", "--train", paths["train"], "--locations", paths["locations"],
                 "--graphs-dir", paths["graphs_dir"], "--out-dir", str(tmp_path)]) == 0
    assert _manifest_config(tmp_path) == dict(_listed(PARENT_TRAIN_DEFAULTS), **paths)


@pytest.mark.parametrize("argv, defaults", [
    (["train", "--train", "t", "--valid", "v", "--locations", "l", "--graphs-dir", "g",
      "--out-dir", "o"], PARENT_TRAIN_DEFAULTS),
    (["ablation", "--train", "t", "--valid", "v", "--test", "x", "--locations", "l",
      "--out-dir", "o"], dict(PARENT_TRAIN_DEFAULTS, **ABLATION_DEFAULTS)),
], ids=["train", "ablation"])
def test_options_without_flags_resolve_to_the_defaults(argv, defaults):
    assert resolve_config(build_parser().parse_args(argv)) == defaults


def _pretrain_args(pipeline, out):
    data = pipeline / "data"
    return ["pretrain", "--train", str(data / "train.txt"),
            "--locations", str(data / "locations.csv"), "--graphs-dir", str(pipeline / "graphs"),
            "--out-dir", str(out), "--embed-dim", "4", "--hidden-dim", "4",
            "--pretrain-epochs", "1", "--d-pretrain-epochs", "0"]


@pytest.mark.parametrize("extra, message", [
    (["--lr", "nan"], "argument --lr: not finite: 'nan'"),
    (["--lr", "inf"], "argument --lr: not finite: 'inf'"),
    (["--beta", "nan"], "argument --beta: not finite: 'nan'"),
    (["--baseline-decay=-inf"], "argument --baseline-decay: not finite: '-inf'"),
    (["--dwell", "2"], "argument --dwell: not a bool: '2'"),
    (["--heads", "x"], "argument --heads: not an integer: 'x'"),
    (["--channels", "sdg,"], "argument --channels: an empty item in 'sdg,'"),
    (["--channels", "sdg,sdg"], "channels must be distinct"),
], ids=["lr_nan", "lr_inf", "beta_nan", "baseline_decay_minus_inf", "dwell_2", "heads_x",
        "channels_empty_item", "channels_repeated"])
def test_bad_model_flag_is_exit_1_naming_it(pipeline, tmp_path, capsys, extra, message):
    assert main(_pretrain_args(pipeline, tmp_path / "m") + extra) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("option", ["eval-count", "steps-per-epoch"])
def test_negative_auto_sized_training_option_is_exit_1(pipeline, tmp_path, capsys, option):
    # 0 derives the count from the data; a negative one means no count.
    argv = ["train", "--valid", str(pipeline / "data" / "valid.txt"), "--epochs", "1",
            f"--{option}=-1", *_pretrain_args(pipeline, tmp_path / "m")[1:]]
    assert main(argv) == 1
    assert f"{option.replace('-', '_')} must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("line, message", [
    ("lr=nan", "field 'lr': not finite: 'nan'"),
    ("dwell=2", "field 'dwell': not a bool: '2'"),
    ("channels=sdg,", "field 'channels': an empty item in 'sdg,'"),
], ids=["lr_nan", "dwell_2", "channels_empty_item"])
def test_bad_config_value_is_exit_1_naming_its_line(pipeline, tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# run\n{line}\n")
    assert main(_pretrain_args(pipeline, tmp_path / "m") + ["--config", str(cfg)]) == 1
    assert f"{cfg}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("dwell", ["true", "Yes", "0"])
def test_bool_flags_take_the_config_spellings(pipeline, tmp_path, dwell):
    assert main(_pretrain_args(pipeline, tmp_path) + ["--dwell", dwell]) == 0
    config = _manifest_config(tmp_path)
    assert config["dwell"] == (dwell.lower() in ("true", "yes", "1"))
    meta = (tmp_path / "gen.meta").read_text().splitlines()
    assert f"dwell={int(config['dwell'])}" in meta


@pytest.mark.parametrize("argv, message", [
    (["--grid-step", "nan"], "argument --grid-step: not finite: 'nan'"),
    (["--stay-prob", "inf"], "argument --stay-prob: not finite: 'inf'"),
    (["--n-locations", "400", "--grid-step", "5"], "grid_step"),
    (["--slots", "0"], "slots must be at least 2"),
    (["--slots", "1"], "slots must be at least 2"),
    (["--users", "1", "--days", "2"], "cannot split 2 trajectories into 3 parts"),
    (["--kernel", "teleport"], "unknown kernel kind 'teleport'"),
], ids=["grid_step_nan", "stay_prob_inf", "grid_off_the_globe", "zero_slots", "one_slot",
        "too_few_user_days", "unknown_kernel"])
def test_bad_synth_option_is_exit_1(tmp_path, capsys, argv, message):
    assert main(["synth", "--out-dir", str(tmp_path / "o"), "--users", "3", "--days", "2"]
                + argv) == 1
    assert message in capsys.readouterr().err


def test_ablation_bad_graph_option_in_config_is_exit_1(pipeline, tmp_path, capsys):
    data = pipeline / "data"
    cfg = tmp_path / "abl.cfg"
    for line, message in (("edge_mode=dense", "unknown edge_mode 'dense'"),
                          ("metric=haversine", "field 'metric': unknown config key"),
                          ("g_steps=2", f"{cfg}:1: field 'g_steps': unknown config key"),
                          ("d_steps=2", f"{cfg}:1: field 'd_steps': unknown config key"),
                          ("channels=sdg,xyz", "no graph supplied for channels ['xyz']")):
        cfg.write_text(line + "\n")
        assert main(["ablation", "--train", str(data / "train.txt"),
                     "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
                     "--locations", str(data / "locations.csv"), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "abl"), "--k", "4", "--embed-dim", "4",
                     "--hidden-dim", "4", "--pretrain-epochs", "0", "--d-pretrain-epochs", "0",
                     "--epochs", "0"]) == 1
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trajectories hold at least two slots


ONE_SLOT_LINES = "u,2012-01-01,3\nv,2012-01-01,4\nw,2012-01-02,5\n"


@pytest.mark.parametrize("command", ["pretrain", "train"])
def test_training_on_one_slot_split_is_exit_1(pipeline, tmp_path, capsys, command):
    split = tmp_path / "train.txt"
    split.write_text(ONE_SLOT_LINES)
    valid = ["--valid", str(split)] if command == "train" else []
    assert main([command, "--train", str(split), *valid,
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--graphs-dir", str(pipeline / "graphs"), "--out-dir", str(tmp_path / "m")]) == 1
    assert f"train file {split} holds one-slot trajectories" in capsys.readouterr().err


def test_evaluate_one_slot_files_is_exit_1(pipeline, tmp_path, capsys):
    split = tmp_path / "real.txt"
    split.write_text(ONE_SLOT_LINES)
    assert main(["evaluate", "--real", str(split), "--generated", str(split),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "e")]) == 1
    assert f"real file {split} holds one-slot trajectories" in capsys.readouterr().err


def test_evaluate_exclude_zero_steps_drops_only_stays(pipeline, tmp_path):
    data = pipeline / "data"
    args = ["evaluate", "--real", str(data / "test.txt"), "--generated", str(data / "valid.txt"),
            "--locations", str(data / "locations.csv")]
    assert main(args + ["--out-dir", str(tmp_path / "all")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "moves"), "--exclude-zero-steps"]) == 0
    pairs = [line.split("=", 1) for line in (tmp_path / "all" / "report.txt").read_text().splitlines()]
    moves = dict(line.split("=", 1) for line in
                 (tmp_path / "moves" / "report.txt").read_text().splitlines())
    changed = {key for key, value in pairs if moves[key] != value}
    assert {"jsd.distance", "hist.distance.real", "hist.distance.generated"} <= changed
    assert changed <= {"jsd.distance", "jsd.mean", "hist.distance.real",
                       "hist.distance.generated"}


def test_evaluate_exclude_zero_steps_without_a_real_move_is_exit_1(pipeline, tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("u,2012-01-01,0 0 0 0\nv,2012-01-01,1 1 1 1\n")
    generated = tmp_path / "generated.txt"
    generated.write_text("u,2012-01-01,0 1 0 1\n")
    assert main(["evaluate", "--real", str(real), "--generated", str(generated),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "e"), "--exclude-zero-steps"]) == 1
    err = capsys.readouterr().err
    assert str(real) in err and "--exclude-zero-steps" in err
    assert not (tmp_path / "e").exists()


def test_evaluate_exclude_zero_steps_without_a_generated_move_is_exit_1(pipeline, tmp_path,
                                                                        capsys):
    # A generated side with no moving step would leave nothing to bin on that
    # side; it must not be scored against the real moves.
    real = tmp_path / "real.txt"
    real.write_text("u,2012-01-01,0 1 0 1\n")
    generated = tmp_path / "generated.txt"
    generated.write_text("u,2012-01-01,0 0 0 0\nv,2012-01-01,1 1 1 1\n")
    assert main(["evaluate", "--real", str(real), "--generated", str(generated),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "e"), "--exclude-zero-steps"]) == 1
    err = capsys.readouterr().err
    assert str(generated) in err and "--exclude-zero-steps" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("offset", ["24", "-24", "100000000", "100000000000000000000"])
def test_preprocess_utc_offset_of_a_day_or_more_is_exit_1(tmp_path, checkin_file, capsys,
                                                           offset):
    # A day's offset or more builds no timezone; huge ones used to exit 2
    # with an OverflowError, or 1 with a message that did not name the flag.
    assert main(["preprocess", "--input", checkin_file, "--out-dir", str(tmp_path / "p"),
                 "--utc-offset", offset]) == 1
    assert "--utc-offset must lie strictly between -24 and 24" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("slots", ["0", "1"])
def test_preprocess_below_two_slots_is_exit_1(tmp_path, checkin_file, capsys, slots):
    assert main(["preprocess", "--input", checkin_file, "--out-dir", str(tmp_path / "p"),
                 "--slots", slots]) == 1
    assert "--slots must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("slots", ["5", "7"])
def test_preprocess_slots_that_do_not_divide_a_day_is_exit_1(tmp_path, capsys, slots):
    # Checked with the other flags, before the input is opened.
    assert main(["preprocess", "--input", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path / "p"), "--slots", slots]) == 1
    assert f"--slots must be at least 2 and divide 24, got {slots}" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_preprocess_local_time_after_year_9999_is_exit_1(tmp_path, capsys):
    path = tmp_path / "late.csv"
    path.write_text(CHECKINS + "user0,venue0,40.0,-74.0,9999-12-31T23:10:00\n")
    assert main(["preprocess", "--input", str(path), "--out-dir", str(tmp_path / "p"),
                 "--utc-offset", "1"]) == 1
    assert f"{path}:97: field 'timestamp': local time after year 9999" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_preprocess_empty_delimiter_is_exit_1(tmp_path, checkin_file, capsys):
    assert main(["preprocess", "--input", checkin_file, "--out-dir", str(tmp_path / "p"),
                 "--delimiter", ""]) == 1
    assert "--delimiter must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_generate_below_two_slots_is_exit_1(pipeline, tmp_path, capsys):
    assert main(["generate", "--model", str(pipeline / "model" / "gen"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--slots", "1", "--out-dir", str(tmp_path / "g")]) == 1
    assert "slots must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("count, slots", [
    ("100000000000000", "24"),                   # 727 TiB of seed uniforms
    ("5", "100000000000000"),                    # 3.55 PiB of ids
    ("10000000000000000000", "24"),              # past NumPy's index range
], ids=["count", "slots", "index_range"])
def test_generate_impossible_size_is_exit_1(pipeline, tmp_path, capsys, count, slots):
    # Every size here lies beyond the 128 TiB user address space, so the
    # first allocation fails before anything is allocated.
    assert main(["generate", "--model", str(pipeline / "model" / "gen"),
                 "--graphs-dir", str(pipeline / "graphs"),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--count", count, "--slots", slots, "--out-dir", str(tmp_path / "g")]) == 1
    err = capsys.readouterr().err
    assert f"--count {count} trajectories of --slots {slots} ids do not fit in memory" in err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("argv, message", [
    (["--bins", "0"], "--bins must be positive"),
    (["--top", "0"], "--top must be positive"),
    (["--grid-step", "0"], "--grid-step must be positive and finite"),
    (["--grid-step", "nan"], "--grid-step must be positive and finite"),
    (["--grid-step=-0.5"], "--grid-step must be positive and finite"),
    (["--grid-step", "1e-300"], "--grid-step 1e-300 is too small"),
], ids=["zero_bins", "zero_top", "zero_grid_step", "nan_grid_step", "negative_grid_step",
        "overflowing_grid_step"])
def test_evaluate_bad_option_is_exit_1(pipeline, tmp_path, capsys, argv, message):
    data = pipeline / "data"
    assert main(["evaluate", "--real", str(data / "test.txt"),
                 "--generated", str(data / "test.txt"), "--locations", str(data / "locations.csv"),
                 "--out-dir", str(tmp_path / "e")] + argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_evaluate_fine_grid_step_gives_each_location_its_cell(pipeline, tmp_path):
    # Far below any real cell size, but every cell index still fits int64.
    data = pipeline / "data"
    out = tmp_path / "e"
    assert main(["evaluate", "--real", str(data / "test.txt"),
                 "--generated", str(data / "test.txt"), "--locations", str(data / "locations.csv"),
                 "--out-dir", str(out), "--grid-step", "1e-15"]) == 0
    ids = [int(i) for line in (data / "test.txt").read_text().splitlines()
           for i in line.split(",")[2].split()]
    rows = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()]
    assert len(rows) == len(set(ids))
    assert sum(int(count) for _, _, count in rows) == len(ids)
    assert all(math.isfinite(float(lat)) and math.isfinite(float(lon)) for lat, lon, _ in rows)


@pytest.mark.parametrize("outcome, code", [(None, 0), (CliValidationError("bad"), 1),
                                           (RuntimeError("boom"), 2)],
                         ids=["ok", "exit_1", "exit_2"])
def test_commands_run_blas_on_one_thread(tmp_path, monkeypatch, outcome, code):
    calls = blas._thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS loaded in this process")
    get, _ = calls
    seen = []

    def command(args):
        seen.append(get())
        if outcome is not None:
            raise outcome

    monkeypatch.setattr(cli, "cmd_synth", command)
    before = get()
    assert main(["synth", "--out-dir", str(tmp_path)]) == code
    assert seen == [1]
    assert get() == before


def test_consecutive_commands_parse_independently(monkeypatch):
    # main builds its parser once per process; each call still parses from
    # the defaults, with no flag or value of an earlier call left over.
    seen = []
    for name in ("cmd_synth", "cmd_evaluate"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)))
    evaluate = ["evaluate", "--real", "r", "--generated", "g", "--locations", "l",
                "--out-dir", "e"]
    argvs = [["synth", "--out-dir", "a", "--seed", "5", "--users", "3"],
             evaluate + ["--bins", "7", "--exclude-zero-steps"],
             ["synth", "--out-dir", "b"],
             evaluate]
    for argv in argvs:
        assert main(argv) == 0
    assert cli._parser() is cli._parser()
    assert seen == [vars(build_parser().parse_args(argv)) for argv in argvs]
    assert seen[2]["seed"] is None and seen[2]["users"] is None and "bins" not in seen[2]
    assert seen[3]["bins"] == 100 and seen[3]["exclude_zero_steps"] is False
    assert "seed" not in seen[3]


class _Mallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.mark.parametrize("found", [True, False], ids=["mallopt", "no_mallopt"])
def test_heap_thresholds_are_fixed_where_libc_has_mallopt(monkeypatch, found):
    libc = types.SimpleNamespace(mallopt=_Mallopt()) if found else types.SimpleNamespace()
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda name: libc)
    assert blas.fix_heap_thresholds() is None
    if found:
        # M_MMAP_THRESHOLD at 8 MiB, then M_TRIM_THRESHOLD at 16 MiB.
        assert libc.mallopt.calls == [(-3, 8 << 20), (-1, 16 << 20)]


# ---------------------------------------------------------------------------
# every command, run small on the module's pipeline


COMMANDS = ["preprocess", "synth", "build-graphs", "pretrain", "train", "generate", "evaluate",
            "ablation"]


def _command_argv(command, pipeline, checkin_file, out):
    data, gdir = pipeline / "data", pipeline / "graphs"
    split = ["--train", str(data / "train.txt"), "--locations", str(data / "locations.csv")]
    model = ["--embed-dim", "4", "--hidden-dim", "4", "--pretrain-epochs", "1",
             "--d-pretrain-epochs", "0", "--epochs", "0"]
    argv = {
        "preprocess": ["--input", checkin_file, "--ratios", "2:1:1"],
        "synth": ["--n-locations", "9", "--users", "4", "--days", "3", "--stay-prob", "0.4"],
        "build-graphs": [*split, "--k", "3", "--edge-mode", "vanilla"],
        "pretrain": [*split, "--graphs-dir", str(gdir), *model],
        "train": [*split, "--valid", str(data / "valid.txt"), "--graphs-dir", str(gdir), *model],
        "generate": ["--model", str(pipeline / "model" / "gen"), "--graphs-dir", str(gdir),
                     "--locations", str(data / "locations.csv"), "--count", "5"],
        "evaluate": ["--real", str(data / "test.txt"), "--generated", str(data / "valid.txt"),
                     "--locations", str(data / "locations.csv"), "--bins", "7"],
        "ablation": [*split, "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
                     "--observed", str(data / "observed_train.txt"), "--k", "4", *model,
                     "--channels", "sdg,ttg"],
    }[command]
    return [command, *argv, "--out-dir", str(out)]


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_config_is_the_parsed_flags(pipeline, checkin_file, tmp_path, command):
    # Each flag's value as parsed, or as resolved for the options of config
    # dataclasses and generate's trained length.
    argv = _command_argv(command, pipeline, checkin_file, tmp_path / "o")
    assert main(argv) == 0
    args = build_parser().parse_args(argv)
    dests = {a.dest for a in _subparser(command)._actions if a.option_strings}
    expected = {d: getattr(args, d) for d in dests - {"help", "out_dir", "config"}}
    if hasattr(args, "configs"):
        expected.update(resolve_config(args))
    resolved = {"generate": {"slots": 24}}
    assert _manifest_config(tmp_path / "o") == _listed(dict(expected, **resolved.get(command, {})))


@pytest.mark.parametrize("command", ["synth", "build-graphs", "pretrain", "train", "ablation"])
def test_manifest_records_the_config_file_digest(pipeline, checkin_file, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# every option at its flag or default\n")
    out = tmp_path / "o"
    assert main(_command_argv(command, pipeline, checkin_file, out) + ["--config", str(cfg)]) == 0
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs[str(cfg)] == hashlib.sha256(cfg.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["preprocess", "synth", "pretrain", "train", "generate",
                                     "ablation"])
def test_negative_seed_is_exit_1(pipeline, checkin_file, tmp_path, capsys, command):
    argv = _command_argv(command, pipeline, checkin_file, tmp_path / "o")
    assert main(argv + ["--seed", "-1"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err


def _readme_commands():
    """Every ``mobsim ...`` command of README.md's ``sh`` blocks, with its
    continuation lines joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mobsim ")]


README_COMMANDS = _readme_commands()


def test_readme_shows_every_pipeline_command():
    shown = {argv[0] for argv in README_COMMANDS}
    assert {"synth", "build-graphs", "train", "generate", "evaluate", "preprocess"} <= shown


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv)
    if hasattr(args, "configs"):
        resolve_config(args)
