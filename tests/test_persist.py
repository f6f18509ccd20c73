import numpy as np
import pytest

from mobsim import nn, persist
from mobsim.generator import Generator, GeneratorConfig, generate_batch


def _gen(small_graphs, **overrides):
    defaults = dict(n_locations=16, embed_dim=8, hidden_dim=6, layers=2, heads=2,
                    channels=("sdg", "stg"), dropout=0.25, beta=0.5, dwell=False)
    defaults.update(overrides)
    config = GeneratorConfig(**defaults)
    return Generator(config, small_graphs, seed=3)


def _load_gen(prefix, graphs):
    return persist.load_generator(prefix, graphs, persist.read_model_meta(f"{prefix}.meta"))


def test_generator_roundtrip(tmp_path, small_graphs):
    gen = _gen(small_graphs)
    seed_dist = np.linspace(1, 16, 16)
    seed_dist /= seed_dist.sum()
    prefix = tmp_path / "gen"
    persist.save_generator(prefix, gen, seed_dist, 12)

    loaded, dist = _load_gen(prefix, small_graphs)
    assert persist.read_meta(f"{prefix}.meta")["slots"] == "12"
    assert loaded.config == gen.config
    assert np.array_equal(dist, seed_dist)
    for name, tensor in gen.params.items():
        assert loaded.params[name].values.tobytes() == tensor.values.tobytes()
    with nn.no_grad():
        assert np.array_equal(loaded.embed_locations().values,
                              gen.embed_locations().values)


def test_generator_roundtrip_after_training_step(tmp_path, small_graphs):
    gen = _gen(small_graphs, dwell=True)
    opt = nn.Adam(gen.params, lr=0.05)
    nll, _ = gen.sequence_nll(gen.embed_locations(), np.array([[0, 1, 2, 3], [4, 4, 5, 5]]))
    nll.backward()
    opt.step()
    prefix = tmp_path / "gen"
    persist.save_generator(prefix, gen, np.full(16, 1 / 16), 24)
    loaded, _ = _load_gen(prefix, small_graphs)
    for name, tensor in gen.params.items():
        assert loaded.params[name].values.tobytes() == tensor.values.tobytes()


def test_kind_mismatch_rejected(tmp_path, small_graphs):
    # The meta an older ``train`` wrote for its discriminator.
    persist.save_generator(tmp_path / "model", _gen(small_graphs), np.full(16, 1 / 16), 12)
    (tmp_path / "model.meta").write_text(
        "kind=discriminator\nn_locations=16\nembed_dim=32\nhidden_dim=32\n")
    with pytest.raises(ValueError, match="field 'kind'"):
        _load_gen(tmp_path / "model", small_graphs)


def test_load_generator_needs_its_channels(tmp_path, small_graphs):
    gen = _gen(small_graphs, channels=("sdg", "ttg", "stg"))
    prefix = tmp_path / "gen"
    persist.save_generator(prefix, gen, np.full(16, 1 / 16), 24)
    with pytest.raises(ValueError):
        _load_gen(prefix, {"sdg": small_graphs["sdg"]})


@pytest.mark.parametrize("missing", ["embed", "explore/weight"])
def test_load_generator_needs_the_sized_tensors(tmp_path, small_graphs, missing):
    gen = _gen(small_graphs)
    kept = nn.ParamSet()
    for name, tensor in gen.params.items():
        if name != missing:
            kept.register(name, tensor.values)
    persist.save_generator(tmp_path / "gen", gen, np.full(16, 1 / 16), 12)
    nn.save_checkpoint(tmp_path / "gen.ckpt", kept)
    with pytest.raises(persist.CheckpointError, match=f"no tensor '{missing}'"):
        _load_gen(tmp_path / "gen", small_graphs)


def test_read_meta_value_keeps_further_equals_signs(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# settings\nout_dir = runs/k=4\n\nseed=3\n")
    meta = persist.read_meta(path)
    assert meta == {"out_dir": "runs/k=4", "seed": "3"}
    assert meta.lines == {"out_dir": 2, "seed": 4}


# The meta lines of a generator: one per config field, in field order, then
# its trained length and seed distribution.
GEN_META = ("kind=generator\nn_locations=16\nembed_dim=8\nhidden_dim=6\nlayers=2\nheads=2\n"
            "channels=sdg,stg\ndropout=0.25\nbeta=0.5\ndwell=1\nslots=12\n"
            "seed_distribution=" + ",".join(["0.0625"] * 16) + "\n")


def test_meta_lines_are_the_config_fields(tmp_path, small_graphs):
    gen = _gen(small_graphs, dwell=True)
    persist.save_generator(tmp_path / "gen", gen, np.full(16, 1 / 16), 12)
    assert (tmp_path / "gen.meta").read_text() == GEN_META
    assert _load_gen(tmp_path / "gen", small_graphs)[0].config == gen.config


def test_meta_with_the_retired_attn_slope_line_still_loads(tmp_path, small_graphs):
    # Metas written while the attention slope was a config field hold an
    # ``attn_slope=0.2`` line.  The slope is fixed at that value, and a key
    # that is no config field is read past.
    gen = _gen(small_graphs, dwell=True)
    persist.save_generator(tmp_path / "gen", gen, np.full(16, 1 / 16), 12)
    old = tmp_path / "old"
    (tmp_path / "old.ckpt").write_bytes((tmp_path / "gen.ckpt").read_bytes())
    (tmp_path / "old.meta").write_text(GEN_META.replace("dwell=1\n", "dwell=1\nattn_slope=0.2\n"))
    loaded, dist = _load_gen(old, small_graphs)
    assert loaded.config == gen.config
    ids = [generate_batch(model, 40, 12, dist, 5, "compat")
           for model in (gen, loaded)]
    assert ids[0].tobytes() == ids[1].tobytes()
