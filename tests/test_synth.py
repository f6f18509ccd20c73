import tracemalloc

import numpy as np
import pytest

from mobsim import rng, synth
from mobsim.synth import SynthConfig
from oracles import synth_uniform_dense


def test_kernel_kinds_are_stochastic():
    # The uniform kind is the one (12,) row that every location shares.
    rng = np.random.default_rng(0)
    for kind, shape in (("uniform", (12,)), ("uniform_offdiag", (12, 12)),
                        ("random", (12, 12))):
        kernel = synth.make_kernel(kind, 12, rng)
        assert kernel.shape == shape
        assert (kernel >= 0).all()
        assert np.abs(kernel.sum(axis=-1) - 1.0).max() <= 1e-9


def test_uniform_offdiag_has_zero_diagonal():
    kernel = synth.make_kernel("uniform_offdiag", 8, np.random.default_rng(0))
    assert np.all(np.diag(kernel) == 0)


def test_grid_coordinates_are_distinct():
    coords = synth.grid_coordinates(10, 0.01, (40.0, -74.0))
    assert coords.shape == (10, 2)
    assert len({tuple(row) for row in coords}) == 10


def test_generate_shapes_and_vocabulary():
    ds = synth.synth_generate(SynthConfig(n_locations=9, users=4, days=3, seed=1))
    assert len(ds.trajectories) == 12
    assert ds.locations.shape == (9, 2)
    for i, slots in enumerate(ds.trajectories.ids):
        assert slots.shape == (24,)
        assert slots.min() >= 0 and slots.max() < 9
        assert (ds.trajectories.row == i).sum() == 24


def test_generate_deterministic():
    a = synth.synth_generate(SynthConfig(seed=7, users=3, days=2))
    b = synth.synth_generate(SynthConfig(seed=7, users=3, days=2))
    assert np.array_equal(a.trajectories.ids, b.trajectories.ids)
    c = synth.synth_generate(SynthConfig(seed=8, users=3, days=2))
    assert not np.array_equal(a.trajectories.ids, c.trajectories.ids)


def test_stay_prob_increases_repeats():
    still = synth.synth_generate(SynthConfig(stay_prob=0.9, users=20, days=5, seed=2))
    mobile = synth.synth_generate(SynthConfig(stay_prob=0.0, users=20, days=5, seed=2))

    def repeat_rate(ds):
        mat = ds.trajectories.ids
        return float((mat[:, 1:] == mat[:, :-1]).mean())

    assert repeat_rate(still) > 0.8
    assert repeat_rate(mobile) < 0.1


def test_stay_prob_observed_frequency():
    # With a zero-diagonal kernel every repeat comes from the stay gate alone.
    mat = synth.synth_generate(SynthConfig(
        n_locations=25, users=40, days=10, stay_prob=0.3,
        kernel="uniform_offdiag", seed=3)).trajectories.ids
    repeats = float((mat[:, 1:] == mat[:, :-1]).mean())
    assert abs(repeats - 0.3) < 0.02


@pytest.mark.parametrize("n", [9, 100, 400])
@pytest.mark.parametrize("stay_prob", [0.0, 0.7])
def test_uniform_shared_row_draws_the_dense_kernels_ids(n, stay_prob):
    config = SynthConfig(n_locations=n, users=7, days=3, stay_prob=stay_prob, seed=n)
    assert np.array_equal(synth.synth_generate(config).trajectories.ids,
                          synth_uniform_dense(config))


@pytest.mark.parametrize("kind", ["uniform", "uniform_offdiag", "random"])
def test_synth_draws_from_its_kernels_block_totals(monkeypatch, kind):
    # The block totals of either kind of kernel are built once, by synth.
    config = SynthConfig(n_locations=30, users=4, days=3, stay_prob=0.2, kernel=kind, seed=5)
    want = synth.synth_generate(config).trajectories.ids

    def refuse(masses):
        raise AssertionError("block totals built by the draw")

    monkeypatch.setattr(rng, "block_totals", refuse)
    assert np.array_equal(synth.synth_generate(config).trajectories.ids, want)


def test_uniform_kind_allocates_no_n_by_n_table():
    # A (5000, 5000) float64 kernel alone is 200 MB.
    tracemalloc.start()
    try:
        synth.synth_generate(SynthConfig(n_locations=5000, users=2, days=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(stay_prob=1.5)
    with pytest.raises(ValueError):
        SynthConfig(n_locations=0)
    with pytest.raises(ValueError):
        SynthConfig(kernel="teleport")


def test_config_keeps_the_grid_on_the_globe():
    # 400 locations make a 20 x 20 grid from (40, -74): its last row is at
    # 40 + 19 * step, which passes 90 above a step of 50/19, and its
    # last column at -74 + 19 * step, which passes -180 below -106/19.
    SynthConfig(n_locations=400, grid_step=2.6)
    SynthConfig(n_locations=400, grid_step=-5.0)
    for step in (2.7, 5.0, -7.0):
        with pytest.raises(ValueError, match="grid_step"):
            SynthConfig(n_locations=400, grid_step=step)


def test_config_needs_two_slots():
    SynthConfig(slots=2)
    for slots in (0, 1):
        with pytest.raises(ValueError, match="slots"):
            SynthConfig(slots=slots)
