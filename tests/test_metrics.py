import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsim import metrics
from mobsim.metrics import (
    binned_masses,
    daily_locations_histogram,
    duration_histogram,
    evaluate,
    global_rank_histogram,
    gyration_radii,
    individual_rank_histogram,
    jsd,
    sorted_run_starts,
    step_distances,
    step_lengths,
    visit_grid,
)
from mobsim.records import Dataset, generated_trajectories
from numpy.testing import assert_array_equal
from oracles import (MarkovBaseline, evaluate_looped, gyration_radii_gathered, haversine_naive,
                     jsd_naive, markov_counts, run_lengths)
from tables import table

LN2 = math.log(2.0)


def _traj(slot_ids):
    return np.array(slot_ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# binned masses


def test_equal_width_edges_span_data():
    # Real values 2 and 10 fix the edges 2, 4, 6, 8, 10.
    real, gen = binned_masses([2.0, 10.0], [3.9, 4.0, 7.9, 8.0], bins=4)
    assert real.tolist() == [0.5, 0.0, 0.0, 0.5]
    assert gen.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_equal_width_edges_degenerate_range():
    # One real value spans [3, 4]: 3.5 lands in the middle bin of two.
    real, gen = binned_masses([3.0, 3.0, 3.0], [3.0, 3.5], bins=2)
    assert real.tolist() == [1.0, 0.0]
    assert gen.tolist() == [0.5, 0.5]


def test_continuous_histogram_clamps_outliers():
    real, gen = binned_masses([0.0, 10.0], [-5.0, 0.5, 9.9, 25.0], bins=10)
    assert gen[0] == 0.5                                   # -5 clamped into bin 0
    assert gen[-1] == 0.5                                  # 25 clamped into bin 9
    assert gen.sum() == pytest.approx(1.0)


def test_continuous_histogram_empty_is_all_zero():
    real, gen = binned_masses([0.0, 1.0], [], bins=4)
    assert real.tolist() == [0.5, 0.0, 0.0, 0.5]
    assert gen.tolist() == [0.0] * 4
    with pytest.raises(ValueError, match="no values"):
        binned_masses([], [0.5], bins=4)


# ---------------------------------------------------------------------------
# JSD


def test_jsd_frozen_hand_values():
    assert jsd([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.21576155433883570, abs=1e-12)
    assert jsd([0.7, 0.3], [0.2, 0.8]) == pytest.approx(
        0.13250545091704780, abs=1e-12)


def test_jsd_identity_symmetry_bound():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.random(10) + 1e-12
        q = rng.random(10) + 1e-12
        hp, hq = p / p.sum(), q / q.sum()
        assert jsd(hp, hp) == pytest.approx(0.0, abs=1e-12)
        assert jsd(hp, hq) == pytest.approx(jsd(hq, hp), abs=1e-12)
        assert -1e-12 <= jsd(hp, hq) <= LN2 + 1e-12


def test_jsd_disjoint_supports_is_ln2():
    assert jsd([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75]) == pytest.approx(LN2, abs=1e-12)


def test_jsd_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        size = rng.integers(2, 20)
        p = rng.random(size)
        p[rng.random(size) < 0.3] = 0.0                    # exercise zero bins
        q = rng.random(size)
        if p.sum() == 0 or q.sum() == 0:
            continue
        p, q = p / p.sum(), q / q.sum()
        assert jsd(p, q) == pytest.approx(jsd_naive(p, q), abs=1e-12)


def test_jsd_rejects_mismatches():
    with pytest.raises(ValueError, match="differ in shape"):
        jsd([1.0], [0.5, 0.5])


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12))
@settings(max_examples=80, deadline=None)
def test_jsd_properties(raw_p, raw_q):
    size = min(len(raw_p), len(raw_q))
    p = np.array(raw_p[:size]); p /= p.sum()
    q = np.array(raw_q[:size]); q /= q.sum()
    value = jsd(p, q)
    assert -1e-12 <= value <= LN2 + 1e-12
    assert value == pytest.approx(jsd(q, p), abs=1e-12)


def test_align_categorical_by_id_union():
    # G-rank keeps the ids either side visits, ascending: 2, 5, 7.
    ds = _dataset([_traj([2, 2, 7, 7, 2]), _traj([7, 2, 2, 2, 7])])
    real, gen = evaluate(ds, [_traj([5, 5, 5, 5, 5])]).histograms["g_rank"]
    assert real.tolist() == [0.6, 0.0, 0.4]
    assert gen.tolist() == [0.0, 1.0, 0.0]


def test_align_rank_pads_right():
    # I-rank pads the two-rank real profile to the three ranks generated.
    ds = _dataset([_traj([0, 0, 0, 1])])
    real, gen = evaluate(ds, [_traj([0, 1, 1, 2])]).histograms["i_rank"]
    assert real.tolist() == [0.75, 0.25, 0.0]
    assert gen.tolist() == [0.5, 0.25, 0.25]


# ---------------------------------------------------------------------------
# trajectory statistics


def test_step_distances_include_stays():
    coords = np.array([[0.0, 0.0], [0.0, 1.0]])
    steps = step_distances(np.array([[0, 0, 1]]), coords)
    assert len(steps) == 2
    assert steps[0] == 0.0
    assert steps[1] == pytest.approx(haversine_naive(0, 0, 0, 1), rel=1e-9)


def test_gyration_radius_two_point_commute():
    # Half the time at each of two nearby points: radius is half the gap.
    coords = np.array([[40.0, -74.0], [40.0, -73.99]])
    gap = haversine_naive(40.0, -74.0, 40.0, -73.99)
    (radius,) = gyration_radii(np.array([[0, 1] * 12]), coords)
    assert radius == pytest.approx(gap / 2, rel=1e-6)


def test_gyration_radius_stationary_is_zero():
    coords = np.array([[40.0, -74.0], [41.0, -74.0]])
    (radius,) = gyration_radii(np.array([[1] * 24]), coords)
    assert radius == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_gyration_radii_equal_the_gathered_mean(seed):
    # The column gathers and the slot-by-slot centre give the radii of the
    # (B, T, 2) gather and its mean to the bit; a pairwise sum of the slots,
    # which the mean of a (B, T) gather and the sum of a one-row block take,
    # would not.
    rng = np.random.default_rng(seed)
    n, b, t = int(rng.integers(2, 400)), int(rng.integers(1, 300)), int(rng.integers(1, 50))
    spread = 10.0 ** rng.integers(-3, 2)
    coords = np.column_stack([rng.uniform(-60, 60) + spread * rng.random(n),
                              rng.uniform(-170, 170) + spread * rng.random(n)])
    ids = rng.integers(0, n, (b, t))
    ids[::3] = ids[::3, :1]                      # rows that never move
    assert np.array_equal(gyration_radii(ids, coords), gyration_radii_gathered(ids, coords))


def test_duration_histogram():
    h = duration_histogram(np.array([[0, 0, 1, 2, 2, 2]]))
    assert h.tolist() == [1 / 3, 1 / 3, 1 / 3, 0, 0, 0]         # runs of 1..6 slots


def test_daily_locations_histogram():
    h = daily_locations_histogram(sorted_run_starts(np.array([[0, 0, 1], [2, 2, 2]])))
    assert h.tolist() == [0.5, 0.5, 0.0]


def test_global_rank_top_selection_and_ties():
    h = global_rank_histogram(np.array([[0, 0, 0, 1, 1, 2]]), 5, top=2)
    assert np.allclose(h, [0.6, 0.4, 0, 0, 0])            # top 2, renormalized over them
    tie = global_rank_histogram(np.array([[4, 3, 4, 3]]), 5, top=1)
    assert tie.tolist() == [0, 0, 0, 1, 0]                # tie goes to the lower id


def test_global_rank_disjoint_vocabularies_score_ln2():
    real = global_rank_histogram(np.array([[0, 1, 0, 1]]), 10, top=5)
    fake = global_rank_histogram(np.array([[7, 8, 9, 7]]), 10, top=5)
    assert jsd(real, fake) == pytest.approx(LN2, abs=1e-12)


def test_individual_rank_average():
    # Trajectory A: 3:1 split; trajectory B: single location.
    h = individual_rank_histogram(sorted_run_starts(np.array([[0, 0, 0, 1], [5, 5, 5, 5]])))
    # Profiles (0.75, 0.25) and (1.0, 0.0); mean (0.875, 0.125), already normal.
    assert np.allclose(h, [0.875, 0.125])


def test_individual_rank_top_truncates():
    h = individual_rank_histogram(sorted_run_starts(np.arange(10)[None, :]), top=4)
    assert len(h) == 4
    assert h.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate


def _dataset(trajs, n=10):
    rng = np.random.default_rng(7)
    coords = np.column_stack([40 + 0.01 * rng.random(n), -74 + 0.01 * rng.random(n)])
    return Dataset(table(trajs), coords)


def test_run_lengths_hand_cases():
    assert run_lengths(np.array([0, 0, 1, 1, 1, 0])).tolist() == [2, 3, 1]
    assert run_lengths(np.array([5])).tolist() == [1]
    assert run_lengths(np.array([2, 2, 2])).tolist() == [3]


def _assert_reports_equal(report, reference):
    for name in metrics.METRIC_NAMES:
        assert report.scores[name] == reference.scores[name], name
        for got, want in zip(report.histograms[name], reference.histograms[name]):
            assert_array_equal(got, want, strict=True)


def _random_ids(rng, rows, length, n):
    """Random rows mixing stationary rows, sticky rows and id n - 1."""
    ids = rng.integers(0, n, size=(rows, length))
    stay = rng.random((rows, length)) < rng.random()
    for t in range(1, length):
        ids[:, t] = np.where(stay[:, t], ids[:, t - 1], ids[:, t])
    ids[rng.random(rows) < 0.2, :] = ids[0, 0]
    ids[-1, -1] = n - 1
    return ids


@pytest.mark.parametrize("length", [2, 3, 24])
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_looped_oracle(length, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    coords = np.column_stack([rng.uniform(-60, 60, n), rng.uniform(-170, 170, n)])
    real_rows, gen_rows = ([1, 200], [200, 1], [37, 64], [5, 9])[seed]
    real = table(_random_ids(rng, real_rows, length, n))
    fake = _random_ids(rng, gen_rows, length, n)
    ds = Dataset(real, coords)
    for top in (100, 2):
        for zero_steps in (True, False):
            try:
                reference = evaluate_looped(ds, fake, top=top, include_zero_steps=zero_steps)
            except ValueError:        # no nonzero real step to bin
                assert not zero_steps
                continue
            _assert_reports_equal(evaluate(ds, fake, top=top, include_zero_steps=zero_steps),
                                  reference)


def test_evaluate_matches_looped_oracle_on_extreme_rows():
    # Stationary and all-distinct rows, T > top (I-rank truncates), id N - 1.
    n, length = 30, 24
    rng = np.random.default_rng(12)
    coords = np.column_stack([40 + rng.random(n), -74 + rng.random(n)])
    stationary = np.repeat(np.arange(n)[:, None], length, axis=1)
    distinct = np.array([rng.permutation(n)[:length] for _ in range(20)])
    distinct[0, 0] = n - 1
    real = table(np.vstack([stationary[:5], distinct]))
    for fake in (stationary, distinct, np.vstack([distinct, stationary])):
        ds = Dataset(real, coords)
        for top in (100, 10):
            for zero_steps in (True, False):
                _assert_reports_equal(
                    evaluate(ds, fake, top=top, include_zero_steps=zero_steps),
                    evaluate_looped(ds, fake, top=top, include_zero_steps=zero_steps))


def test_distance_families_in_tiny_row_blocks_match_one_block(monkeypatch):
    # The distance and radius families run their rows in blocks; blocks of
    # 7 rows, and of one, give the whole matrix's values and masses.
    rng = np.random.default_rng(4)
    n, length = 40, 24
    coords = np.column_stack([rng.uniform(-60, 60, n), rng.uniform(-170, 170, n)])
    ds = Dataset(table(_random_ids(rng, 30, length, n)), coords)
    fake = _random_ids(rng, 50, length, n)
    want = step_distances(fake, coords), gyration_radii(fake, coords), evaluate(ds, fake)
    for block_bytes in (7 * 8 * length, 1):
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_bytes)
        assert_array_equal(step_distances(fake, coords), want[0])
        assert_array_equal(gyration_radii(fake, coords), want[1])
        _assert_reports_equal(evaluate(ds, fake), want[2])


@pytest.mark.parametrize("block_bytes", [metrics._BLOCK_BYTES, 3 * 8 * 24, 1],
                         ids=["default_blocks", "3_row_blocks", "1_row_blocks"])
@pytest.mark.parametrize("n", [2, 3, 40, 3000])
def test_step_family_matches_looped_oracle_on_both_paths(n, block_bytes, monkeypatch):
    # The step family measures each visited location pair once when the V
    # visited locations give V² <= B·(T-1), and each step otherwise; on both
    # paths the masses must be the looped oracle's, bit for bit.  Half the
    # locations share one coordinate, so some steps between distinct
    # locations have length 0.
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(n)
    coords = np.column_stack([rng.uniform(-60, 60, n), rng.uniform(-170, 170, n)])
    coords[rng.choice(n, n // 2 + 1, replace=False)] = coords[0]
    length = 3 if n < 40 else 24
    few = rng.choice(n, min(n, 12), replace=False)
    pairwise = few[_random_ids(rng, 200, length, len(few))]
    stepwise = np.array([np.resize(rng.permutation(n), length) for _ in range(1 if n == 2 else 2)])
    single = np.full((5, length), rng.integers(n))
    assert step_lengths(pairwise, coords)[1] is not None
    assert step_lengths(stepwise, coords)[1] is None
    assert_array_equal(np.sort(np.repeat(*step_lengths(pairwise, coords))),
                       np.sort(step_distances(pairwise, coords)), strict=True)
    for real, fake in ((pairwise, stepwise), (stepwise, pairwise), (pairwise, single),
                       (single, stepwise)):
        ds = Dataset(table(real), coords)
        for bins in (1, 7, 100):
            for zero_steps in (True, False):
                try:
                    reference = evaluate_looped(ds, fake, bins=bins,
                                                include_zero_steps=zero_steps)
                except ValueError:        # no nonzero real step to bin
                    assert not zero_steps
                    with pytest.raises(ValueError, match="no values"):
                        evaluate(ds, fake, bins=bins, include_zero_steps=zero_steps)
                    continue
                _assert_reports_equal(
                    evaluate(ds, fake, bins=bins, include_zero_steps=zero_steps), reference)


def test_evaluate_scores_a_population_in_bounded_memory():
    # 30,000 generated rows of 24 slots against a small real set.  Whole
    # (B, T, 2) coordinate arrays and their haversine temporaries peaked at
    # 107 bytes a slot, and the sort-based families' (B, T) int64 arrays at
    # 38; with every family in row blocks and the steps counted per visited
    # location pair, the peak is about 12 bytes a slot, most of it the
    # (B, T) float64 I-rank shares.
    rng = np.random.default_rng(3)
    n, b, length = 100, 30000, 24
    coords = np.column_stack([40 + rng.random(n), -74 + rng.random(n)])
    ds = Dataset(table(rng.integers(0, n, size=(500, length))), coords)
    fake = rng.integers(0, n, size=(b, length))
    tracemalloc.start()
    try:
        evaluate(ds, fake)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * b * length


def test_evaluate_rejects_ragged_and_unequal_lengths():
    ds = _dataset([_traj([0, 1, 2, 3]), _traj([1, 2, 3, 4])])
    with pytest.raises(ValueError, match="inhomogeneous"):
        evaluate(ds, [_traj([0, 1, 2, 3]), _traj([0, 1, 2])])
    with pytest.raises(ValueError, match="generated trajectories hold 3 ids"):
        evaluate(ds, [_traj([0, 1, 2])])


def test_evaluate_self_comparison_is_zero():
    rng = np.random.default_rng(8)
    trajs = [_traj(rng.integers(0, 10, size=24)) for i in range(12)]
    ds = _dataset(trajs)
    report = evaluate(ds, trajs)
    for name in metrics.METRIC_NAMES:
        assert report.scores[name] == pytest.approx(0.0, abs=1e-12)
    assert report.mean_jsd == pytest.approx(0.0, abs=1e-12)


def test_evaluate_returns_all_metrics_in_bounds():
    rng = np.random.default_rng(9)
    real = [_traj(rng.integers(0, 10, size=24)) for _ in range(15)]
    fake = [_traj(rng.integers(0, 10, size=24)) for _ in range(9)]
    report = evaluate(_dataset(real), fake)
    assert set(report.scores) == set(metrics.METRIC_NAMES)
    for value in report.scores.values():
        assert -1e-12 <= value <= LN2 + 1e-12


def test_evaluate_zero_step_toggle():
    real = [_traj([0, 0, 0, 1]), _traj([1, 1, 0, 0])]
    fake = [_traj([0, 1, 0, 1])]
    ds = _dataset(real)
    with_zeros = evaluate(ds, fake)
    without = evaluate(ds, fake, include_zero_steps=False)
    assert with_zeros.scores["distance"] != without.scores["distance"]


def test_evaluate_rejects_empty():
    ds = _dataset([_traj([0, 1, 2, 3])])
    with pytest.raises(ValueError):
        evaluate(ds, [])


# ---------------------------------------------------------------------------
# Markov baseline


def test_markov_rows_match_count_oracle():
    rng = np.random.default_rng(10)
    mat = rng.integers(0, 6, size=(40, 24))
    model = MarkovBaseline(mat, 6)
    counts = markov_counts(mat, 6)
    expected = counts / counts.sum(axis=1, keepdims=True)
    assert np.allclose(model.transitions, expected, atol=1e-12)
    assert np.allclose(model.transitions.sum(axis=1), 1.0)


def test_markov_unseen_rows_fall_back_to_uniform():
    model = MarkovBaseline(np.array([_traj([0, 1, 0, 1])]), 4)
    assert np.allclose(model.transitions[2], 0.25)
    assert np.allclose(model.transitions[3], 0.25)


def test_markov_initial_distribution():
    model = MarkovBaseline(np.array([_traj([2, 0]), _traj([2, 1]), _traj([1, 0])]), 4)
    assert np.allclose(model.initial, [0, 1 / 3, 2 / 3, 0])


def test_markov_generate_deterministic_and_shaped():
    model = MarkovBaseline(np.array([_traj([0, 1, 2, 0]), _traj([1, 2, 0, 1])]), 3)
    a = model.generate(5, seed=3)
    b = model.generate(5, seed=3)
    c = model.generate(5, seed=4)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.shape == (5, 4)


def test_markov_learns_planted_kernel():
    # Fit on sticky chains; the diagonal of the fitted matrix must dominate.
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(200):
        path = [int(rng.integers(0, 4))]
        for _ in range(23):
            path.append(path[-1] if rng.random() < 0.8 else int(rng.integers(0, 4)))
        rows.append(path)
    model = MarkovBaseline(np.array(rows), 4)
    assert np.diag(model.transitions).min() > 0.7


# ---------------------------------------------------------------------------
# miscellany


def test_matrix_to_trajectories_labels():
    trajs = generated_trajectories(np.zeros((3, 4), dtype=np.int64))
    assert trajs.users.tolist() == ["gen00000", "gen00001", "gen00002"]
    assert np.datetime_as_string(trajs.days).tolist() == ["2000-01-01"] * 3


def test_visit_grid_bins_by_floor():
    coords = np.array([[40.001, -74.001], [40.002, -74.002], [40.011, -74.001]])
    rows = visit_grid(np.array([_traj([0, 1, 2, 2])]), coords, cell_deg=0.01)
    # First two locations share the cell (40.00, -74.01); the third is alone.
    assert rows == [(40.0, -74.01, 2), (40.01, -74.01, 2)]


def test_write_report_format(tmp_path):
    real = [_traj([0, 1, 0, 1]), _traj([1, 1, 1, 1])]
    report = evaluate(_dataset(real), real)
    path = tmp_path / "report.txt"
    metrics.write_report(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "jsd.distance=0.0"
    assert any(line.startswith("jsd.mean=") for line in lines)
    assert any(line.startswith("hist.i_rank.generated=") for line in lines)
