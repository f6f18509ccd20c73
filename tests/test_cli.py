import json
import os

import numpy as np
import pytest

from mobsim.cli import main


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


def test_unknown_command_is_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_bad_flag_value_is_exit_1(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path / "o"),
                 "--stay-prob", "1.5"]) == 1


def test_synth_deterministic_and_kernel_saved(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--n-locations", "9", "--users", "4", "--days", "3",
            "--stay-prob", "0.4", "--seed", "11"]
    for out in (a, b):
        assert main(args + ["--out-dir", str(out)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)
    kernel = np.loadtxt(a / "kernel.csv", delimiter=",")
    assert kernel.shape == (9, 9)
    assert np.allclose(kernel.sum(axis=1), 1.0)


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
    model = pipeline / "model"
    for name in ("gen.ckpt", "gen.meta", "disc.ckpt", "disc.meta",
                 "train_log.txt", "manifest.json"):
        assert (model / name).exists()
    log = (model / "train_log.txt").read_text()
    assert "phase=pretrain_g epoch=0" in log
    assert "phase=pretrain_d epoch=1" in log


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
], ids=["bad_day", "bad_token", "two_fields"])
def test_build_graphs_bad_split_line_is_exit_1(pipeline, tmp_path, capsys, line, field):
    split = tmp_path / "train.txt"
    split.write_text(f"{GOOD_LINE}\n\n{line}\n")
    assert main(["build-graphs", "--train", str(split),
                 "--locations", str(pipeline / "data" / "locations.csv"),
                 "--out-dir", str(tmp_path / "g"), "--k", "4"]) == 1
    assert f"{split}:3: field '{field}'" in capsys.readouterr().err


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
], ids=["two_fields", "bad_id", "bad_lat", "bad_lon", "nan_lat", "inf_lon",
        "duplicate_id", "non_dense_ids", "lat_out_of_range", "lon_out_of_range"])
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
                 "--locations", str(data / "locations.csv"), "--slots", "12",
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


def test_generate_without_slots_in_meta_gives_a_full_day(pipeline, tmp_path):
    meta = (pipeline / "model" / "gen.meta").read_text().splitlines()
    without_slots = [line for line in meta if not line.startswith("slots=")]
    assert _generate_from(pipeline, tmp_path, without_slots,
                          _read(pipeline / "model" / "gen.ckpt")) == 0
    lines = (tmp_path / "out" / "generated.txt").read_text().splitlines()
    assert [len(line.split(",")[2].split()) for line in lines] == [24] * 3


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
], ids=["dst_out_of_range", "bad_weight", "self_edge", "two_fields", "negative_src",
        "bad_dst", "nan_weight", "unknown_mode", "short_header", "bad_k"])
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
], ids=["bad_int", "missing_field", "short_seed_distribution", "negative_seed_probability",
        "nan_seed_probability", "no_equals_sign", "unsupported_heads", "zero_hidden_dim",
        "n_locations_not_the_locations_file"])
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


@pytest.mark.parametrize("ckpt", ["truncated", "discriminator", "appended_byte"])
def test_generate_bad_checkpoint_is_exit_1(pipeline, tmp_path, capsys, ckpt):
    model = pipeline / "model"
    data = {"truncated": _read(model / "gen.ckpt")[:100],
            "discriminator": _read(model / "disc.ckpt"),
            "appended_byte": _read(model / "gen.ckpt") + b"\0"}[ckpt]
    meta = (model / "gen.meta").read_text().splitlines()
    assert _generate_from(pipeline, tmp_path, meta, data) == 1
    assert f"{tmp_path / 'gen.ckpt'}: " in capsys.readouterr().err


def test_config_file_line_without_equals_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# synth settings\nusers=3\ndays 2\n")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert f"{cfg}:3: field 'record'" in capsys.readouterr().err
