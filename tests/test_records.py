import datetime as dt
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsim import records
from mobsim.records import CheckinFormatError, Dataset, Trajectory
from oracles import fill_gaps_looped


def _checkin(user="u", loc="A", lat=40.0, lon=-74.0, ts="2012-04-03T08:15:00Z"):
    return f"{user},{loc},{lat},{lon},{ts}"


def test_parse_dense_ids_first_appearance():
    lines = [_checkin(loc="B"), _checkin(loc="A"), _checkin(loc="B")]
    parsed, id_map = records.parse_checkins(lines)
    assert id_map == {"B": 0, "A": 1}
    assert [r.location for r in parsed] == [0, 1, 0]


def test_parse_skips_blank_lines():
    parsed, _ = records.parse_checkins([_checkin(), "", "   ", _checkin()])
    assert len(parsed) == 2


@pytest.mark.parametrize("line,field", [
    ("u,A,40.0,-74.0", "record"),
    (",A,40.0,-74.0,2012-04-03T08:15:00Z", "user"),
    ("u,,40.0,-74.0,2012-04-03T08:15:00Z", "location"),
    ("u,A,antarctica,-74.0,2012-04-03T08:15:00Z", "lat"),
    ("u,A,91.0,-74.0,2012-04-03T08:15:00Z", "lat"),
    ("u,A,40.0,-190.0,2012-04-03T08:15:00Z", "lon"),
    ("u,A,40.0,-74.0,yesterday", "timestamp"),
])
def test_parse_rejects_malformed_fields(line, field):
    with pytest.raises(CheckinFormatError) as err:
        records.parse_checkins([line])
    assert err.value.field_name == field
    assert err.value.line_no == 1


def test_parse_timestamp_zulu_and_offset_agree():
    a, _ = records.parse_checkins([_checkin(ts="2012-04-03T08:15:00Z")])
    b, _ = records.parse_checkins([_checkin(ts="2012-04-03T10:15:00+02:00")])
    c, _ = records.parse_checkins([_checkin(ts="2012-04-03T08:15:00")])
    assert a[0].timestamp == b[0].timestamp == c[0].timestamp


def test_location_table_first_occurrence_wins():
    lines = [_checkin(loc="A", lat=1.0), _checkin(loc="A", lat=2.0)]
    parsed, id_map = records.parse_checkins(lines)
    table = records.location_table(parsed, len(id_map))
    assert table[0, 0] == 1.0


def test_discretize_last_record_per_hour_wins():
    lines = [
        _checkin(loc="A", ts="2012-04-03T09:05:00Z"),
        _checkin(loc="B", ts="2012-04-03T09:40:00Z"),
        _checkin(loc="C", ts="2012-04-03T09:20:00Z"),
    ]
    parsed, _ = records.parse_checkins(lines)
    (traj,) = records.discretize(parsed)
    assert traj.slots[9] == 1  # B has the latest timestamp in hour 9


def test_discretize_tie_broken_by_input_order():
    lines = [
        _checkin(loc="A", ts="2012-04-03T09:05:00Z"),
        _checkin(loc="B", ts="2012-04-03T09:05:00Z"),
    ]
    parsed, _ = records.parse_checkins(lines)
    (traj,) = records.discretize(parsed)
    assert traj.slots[9] == 1  # later input wins an exact tie


def test_discretize_forward_fill_and_leading_backfill():
    lines = [
        _checkin(loc="A", ts="2012-04-03T05:00:00Z"),
        _checkin(loc="B", ts="2012-04-03T10:00:00Z"),
    ]
    parsed, _ = records.parse_checkins(lines)
    (traj,) = records.discretize(parsed)
    assert traj.slots[:5].tolist() == [0] * 5      # leading gap back-filled
    assert traj.slots[5:10].tolist() == [0] * 5    # A carried forward
    assert traj.slots[10:].tolist() == [1] * 14    # B to end of day


def test_discretize_bfill_mirrors():
    lines = [
        _checkin(loc="A", ts="2012-04-03T05:00:00Z"),
        _checkin(loc="B", ts="2012-04-03T10:00:00Z"),
    ]
    parsed, _ = records.parse_checkins(lines)
    (traj,) = records.discretize(parsed, fill="bfill")
    assert traj.slots[:6].tolist() == [0] * 6
    assert traj.slots[6:11].tolist() == [1] * 5    # next observation pulled back
    assert traj.slots[11:].tolist() == [1] * 13    # trailing gap anchored at B


@pytest.mark.parametrize("fill", ["ffill", "bfill"])
def test_fill_gaps_matches_looped_oracle(fill):
    rng = np.random.default_rng(3)
    for _ in range(500):
        length = int(rng.integers(1, 25))
        slots = np.where(rng.random(length) < rng.random(), -1, rng.integers(0, 9, length))
        slots[rng.integers(0, length)] = 5              # at least one observation
        np.testing.assert_array_equal(records._fill_gaps(slots, fill),
                                      fill_gaps_looped(slots, fill))


def test_discretize_observed_kept_in_time_order():
    lines = [
        _checkin(loc="B", ts="2012-04-03T10:00:00Z"),
        _checkin(loc="A", ts="2012-04-03T05:00:00Z"),
    ]
    parsed, _ = records.parse_checkins(lines)
    (traj,) = records.discretize(parsed)
    assert traj.observed == ((5, 1), (10, 0))


def test_discretize_splits_users_and_days():
    lines = [
        _checkin(user="u1", ts="2012-04-03T08:00:00Z"),
        _checkin(user="u1", ts="2012-04-04T08:00:00Z"),
        _checkin(user="u2", ts="2012-04-03T08:00:00Z"),
    ]
    parsed, _ = records.parse_checkins(lines)
    trajs = records.discretize(parsed)
    assert {(t.user, t.day.isoformat()) for t in trajs} == {
        ("u1", "2012-04-03"), ("u1", "2012-04-04"), ("u2", "2012-04-03")}


def test_discretize_utc_offset_shifts_day_boundary():
    parsed, _ = records.parse_checkins([_checkin(ts="2012-04-03T23:30:00")])
    (traj,) = records.discretize(parsed, utc_offset_hours=1)
    assert traj.day == dt.date(2012, 4, 4)
    assert traj.observed[0][0] == 0


@pytest.mark.parametrize("utc_offset_hours", [0, 5])
def test_discretize_aware_times_keep_their_own_wall_clock(utc_offset_hours):
    lines = [_checkin(ts="2012-04-03T23:30:00-04:00"), _checkin(ts="2012-04-03T23:30:00Z")]
    parsed, _ = records.parse_checkins(lines)
    assert [r.utc_offset for r in parsed] == [-4 * 3600, 0]
    trajs = records.discretize(parsed, utc_offset_hours=utc_offset_hours)
    assert [(t.day, t.observed) for t in trajs] == [(dt.date(2012, 4, 3), ((23, 0), (23, 0)))]


def test_trajectory_matrix_names_the_first_ragged_row():
    trajs = [Trajectory("u", dt.date(2012, 1, 1), np.arange(n)) for n in (4, 4, 3, 5)]
    with pytest.raises(ValueError, match="trajectory 2 holds 3 ids, expected 4"):
        records.trajectory_matrix(trajs)
    assert records.trajectory_matrix(trajs[:2]).shape == (2, 4)


def test_discretize_coarser_slots():
    parsed, _ = records.parse_checkins([_checkin(ts="2012-04-03T13:00:00Z")])
    (traj,) = records.discretize(parsed, slots_per_day=4)
    assert len(traj.slots) == 4
    assert traj.observed == ((2, 0),)    # hour 13 lands in quarter 2


def test_filter_min_visits_threshold_is_inclusive():
    def traj_with(count):
        return Trajectory("u", dt.date(2012, 1, 1), np.zeros(24, dtype=np.int64),
                          tuple((i, 0) for i in range(count)))
    kept = records.filter_min_visits([traj_with(8), traj_with(9), traj_with(10)])
    assert len(kept) == 2


def _dataset(n_trajs, n_locs=4):
    trajs = [Trajectory(f"u{i}", dt.date(2012, 1, 1 + i % 28),
                        np.full(24, i % n_locs, dtype=np.int64), ())
             for i in range(n_trajs)]
    return Dataset(trajs, np.zeros((n_locs, 2)))


def test_split_sizes_and_partition():
    ds = _dataset(103)
    train, valid, test = records.split(ds, (7, 1, 2), seed=0)
    assert len(valid) == 10 and len(test) == 20      # floor shares
    assert len(train) == 73                           # remainder joins train
    users = [t.user for part in (train, valid, test) for t in part.trajectories]
    assert sorted(users) == sorted(t.user for t in ds.trajectories)


def test_split_deterministic_and_seed_sensitive():
    ds = _dataset(40)
    a = records.split(ds, seed=5)[0]
    b = records.split(ds, seed=5)[0]
    c = records.split(ds, seed=6)[0]
    assert [t.user for t in a.trajectories] == [t.user for t in b.trajectories]
    assert [t.user for t in a.trajectories] != [t.user for t in c.trajectories]


def test_trajectory_roundtrip(tmp_path):
    ds = _dataset(7)
    path = tmp_path / "t.txt"
    records.write_trajectories(path, ds.trajectories)
    back = records.read_trajectories(path)
    assert back == ds.trajectories


def test_observed_roundtrip(tmp_path):
    traj = Trajectory("u", dt.date(2012, 1, 1),
                      np.zeros(24, dtype=np.int64), ((3, 1), (17, 0)))
    path = tmp_path / "obs.txt"
    records.write_observed(path, [traj])
    stripped = Trajectory(traj.user, traj.day, traj.slots, ())
    records.attach_observed([stripped], path)
    assert stripped.observed == ((3, 1), (17, 0))


def test_locations_roundtrip(tmp_path):
    table = np.array([[40.75, -74.0], [51.5, -0.13]])
    path = tmp_path / "loc.csv"
    records.write_locations(path, table)
    assert np.array_equal(records.read_locations(path), table)


def test_id_map_roundtrip(tmp_path):
    id_map = {"venue_9": 0, "venue_3": 1}
    path = tmp_path / "ids.csv"
    records.write_id_map(path, id_map)
    assert records.read_id_map(path) == id_map


@given(st.lists(st.integers(0, 50), min_size=1, max_size=48),
       st.dates(dt.date(1990, 1, 1), dt.date(2100, 1, 1)))
@settings(max_examples=50, deadline=None)
def test_trajectory_roundtrip_property(slots, day):
    traj = Trajectory("user-x", day, np.array(slots, dtype=np.int64), ())
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.txt")
        records.write_trajectories(path, [traj])
        assert records.read_trajectories(path) == [traj]
