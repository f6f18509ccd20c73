import datetime as dt
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsim import records
from mobsim.records import CheckinFormatError, Dataset
from oracles import (attach_observed_looped, discretize_looped, fill_gaps_looped,
                     location_table, parse_checkins_looped, read_id_map,
                     read_trajectories_looped)
from tables import observed, table


def _checkin(user="u", loc="A", lat=40.0, lon=-74.0, ts="2012-04-03T08:15:00Z"):
    return f"{user},{loc},{lat},{lon},{ts}"


def _columns(checkins):
    """Every column of a check-in table as plain values."""
    return (checkins.names, checkins.user.tolist(), checkins.location.tolist(),
            checkins.timestamp.tolist(), checkins.local.tolist(), checkins.coords.tolist(),
            checkins.id_map)


def test_parse_dense_ids_first_appearance():
    lines = [_checkin(loc="B"), _checkin(loc="A"), _checkin(loc="B")]
    parsed = records.parse_checkins(lines)
    assert parsed.id_map == {"B": 0, "A": 1}
    assert parsed.location.tolist() == [0, 1, 0]


@pytest.mark.parametrize("delimiter", [";", "\t"])
def test_parse_other_delimiter_matches_comma(delimiter):
    lines = [_checkin(loc="B"), _checkin(lat=41.5)]
    parsed = records.parse_checkins([line.replace(",", delimiter) for line in lines],
                                    delimiter=delimiter)
    assert _columns(parsed) == _columns(records.parse_checkins(lines))
    with pytest.raises(CheckinFormatError) as err:
        records.parse_checkins([lines[0]], delimiter=delimiter)
    assert err.value.field_name == "record"


def test_parse_skips_blank_lines():
    parsed = records.parse_checkins([_checkin(), "", "   ", _checkin()])
    assert len(parsed.user) == 2


@pytest.mark.parametrize("line,field", [
    ("u,A,40.0,-74.0", "record"),
    (",A,40.0,-74.0,2012-04-03T08:15:00Z", "user"),
    ("u,,40.0,-74.0,2012-04-03T08:15:00Z", "location"),
    ("u,A,antarctica,-74.0,2012-04-03T08:15:00Z", "lat"),
    ("u,A,91.0,-74.0,2012-04-03T08:15:00Z", "lat"),
    ("u,A,40.0,-190.0,2012-04-03T08:15:00Z", "lon"),
    ("u,A,40.0,-74.0,yesterday", "timestamp"),
    ("u,A,nan,-74.0,2012-04-03T08:15:00Z", "lat"),
    ("u,A,40.0,inf,2012-04-03T08:15:00Z", "lon"),
])
def test_parse_rejects_malformed_fields(line, field):
    with pytest.raises(CheckinFormatError) as err:
        records.parse_checkins([line])
    assert err.value.field_name == field
    assert err.value.line_no == 1


def test_parse_timestamp_zulu_and_offset_agree():
    a = records.parse_checkins([_checkin(ts="2012-04-03T08:15:00Z")])
    b = records.parse_checkins([_checkin(ts="2012-04-03T10:15:00+02:00")])
    c = records.parse_checkins([_checkin(ts="2012-04-03T08:15:00")])
    assert a.timestamp[0] == b.timestamp[0] == c.timestamp[0]


def test_coords_first_occurrence_wins():
    lines = [_checkin(loc="A", lat=1.0), _checkin(loc="A", lat=2.0)]
    assert records.parse_checkins(lines).coords.tolist() == [[1.0, -74.0]]


def test_discretize_last_record_per_hour_wins():
    lines = [
        _checkin(loc="A", ts="2012-04-03T09:05:00Z"),
        _checkin(loc="B", ts="2012-04-03T09:40:00Z"),
        _checkin(loc="C", ts="2012-04-03T09:20:00Z"),
    ]
    parsed = records.parse_checkins(lines)
    (slots,) = records.discretize(parsed).ids
    assert slots[9] == 1  # B has the latest timestamp in hour 9


def test_discretize_tie_broken_by_input_order():
    lines = [
        _checkin(loc="A", ts="2012-04-03T09:05:00Z"),
        _checkin(loc="B", ts="2012-04-03T09:05:00Z"),
    ]
    parsed = records.parse_checkins(lines)
    (slots,) = records.discretize(parsed).ids
    assert slots[9] == 1  # later input wins an exact tie


def test_discretize_forward_fill_and_leading_backfill():
    lines = [
        _checkin(loc="A", ts="2012-04-03T05:00:00Z"),
        _checkin(loc="B", ts="2012-04-03T10:00:00Z"),
    ]
    parsed = records.parse_checkins(lines)
    (slots,) = records.discretize(parsed).ids
    assert slots[:5].tolist() == [0] * 5      # leading gap back-filled
    assert slots[5:10].tolist() == [0] * 5    # A carried forward
    assert slots[10:].tolist() == [1] * 14    # B to end of day


def test_discretize_bfill_mirrors():
    lines = [
        _checkin(loc="A", ts="2012-04-03T05:00:00Z"),
        _checkin(loc="B", ts="2012-04-03T10:00:00Z"),
    ]
    parsed = records.parse_checkins(lines)
    (slots,) = records.discretize(parsed, fill="bfill").ids
    assert slots[:6].tolist() == [0] * 6
    assert slots[6:11].tolist() == [1] * 5    # next observation pulled back
    assert slots[11:].tolist() == [1] * 13    # trailing gap anchored at B


@pytest.mark.parametrize("fill", ["ffill", "bfill"])
def test_fill_gaps_matches_looped_oracle(fill):
    rng = np.random.default_rng(3)
    for _ in range(100):
        rows, length = int(rng.integers(1, 8)), int(rng.integers(1, 25))
        slots = np.where(rng.random((rows, length)) < rng.random(), -1,
                         rng.integers(0, 9, (rows, length)))
        slots[np.arange(rows), rng.integers(0, length, rows)] = 5   # an observation per row
        np.testing.assert_array_equal(records._fill_gaps(slots, fill),
                                      [fill_gaps_looped(row, fill) for row in slots])


def test_discretize_observed_kept_in_time_order():
    lines = [
        _checkin(loc="B", ts="2012-04-03T10:00:00Z"),
        _checkin(loc="A", ts="2012-04-03T05:00:00Z"),
    ]
    parsed = records.parse_checkins(lines)
    trajs = records.discretize(parsed)
    assert len(trajs) == 1
    assert observed(trajs, 0) == ((5, 1), (10, 0))


def test_discretize_splits_users_and_days():
    lines = [
        _checkin(user="u1", ts="2012-04-03T08:00:00Z"),
        _checkin(user="u1", ts="2012-04-04T08:00:00Z"),
        _checkin(user="u2", ts="2012-04-03T08:00:00Z"),
    ]
    parsed = records.parse_checkins(lines)
    trajs = records.discretize(parsed)
    assert set(zip(trajs.users.tolist(), np.datetime_as_string(trajs.days).tolist())) == {
        ("u1", "2012-04-03"), ("u1", "2012-04-04"), ("u2", "2012-04-03")}


def test_discretize_utc_offset_shifts_day_boundary():
    parsed = records.parse_checkins([_checkin(ts="2012-04-03T23:30:00")], utc_offset_hours=1)
    trajs = records.discretize(parsed)
    assert trajs.days.tolist() == [dt.date(2012, 4, 4)]
    assert observed(trajs, 0)[0][0] == 0


@pytest.mark.parametrize("utc_offset_hours", [0, 5])
def test_discretize_aware_times_keep_their_own_wall_clock(utc_offset_hours):
    lines = [_checkin(ts="2012-04-03T23:30:00-04:00"), _checkin(ts="2012-04-03T23:30:00Z")]
    parsed = records.parse_checkins(lines, utc_offset_hours=utc_offset_hours)
    assert (parsed.local - parsed.timestamp).tolist() == [-4 * 3600, 0]
    trajs = records.discretize(parsed)
    assert [(day, observed(trajs, i)) for i, day in enumerate(trajs.days.tolist())] == [
        (dt.date(2012, 4, 3), ((23, 0), (23, 0)))]


# Offsets in minutes east of UTC: whole and half hours, and ones that move
# the local day.
OFFSETS = [0, 60, -60, 30, -30, 330, -330, 345, -570, 600, -600, 1410, -1410, 1439, -1439]


def _random_checkins(rng):
    """Check-in lines of random shape: naive, Z and offset times, some of one
    instant, of several users (one with a non-ASCII name), at locations seen
    again with other coordinates; a few inputs are empty, and some times
    fall just after the epoch."""
    count = int(rng.integers(0, 40)) if rng.random() < 0.95 else 0
    start = int(rng.integers(0, 86400)) if rng.random() < 0.1 else int(rng.integers(9e8, 2e9))
    moments = start + rng.integers(0, 3 * 86400, count)
    ties = rng.random(count) < 0.3
    moments[ties] = rng.choice(moments, ties.sum())
    users = ["u1", "u10", "user 2", "Łucja", "u0"][:int(rng.integers(1, 6))]
    lines = []
    for moment in moments.tolist():
        minutes = int(rng.choice(OFFSETS))
        wall = dt.datetime.fromtimestamp(moment + 60 * minutes, tz=dt.timezone.utc)
        kind = rng.integers(0, 3)
        suffix = ("", "Z" if rng.random() < 0.8 else "z",
                  f"{'-' if minutes < 0 else '+'}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}")
        lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        lines.append(f"{rng.choice(users)},v{rng.integers(0, 8)},{lat!r},{lon!r},"
                     f"{wall.replace(tzinfo=None).isoformat()}{suffix[kind]}")
    return lines


def test_columnar_checkins_match_the_per_record_path():
    rng = np.random.default_rng(2222)
    divisors = [d for d in range(1, 25) if 24 % d == 0]
    for case in range(1128):    # each --utc-offset of -23..23 on 24 sets
        slots, fill = divisors[case % 8], ("ffill", "bfill")[case // 8 % 2]
        offset = case % 47 - 23
        lines = _random_checkins(rng)
        try:
            parsed, id_map = parse_checkins_looped(lines)
        except CheckinFormatError as want:
            with pytest.raises(CheckinFormatError) as got:
                records.parse_checkins(lines, utc_offset_hours=offset)
            assert (got.value.line_no, got.value.field_name, got.value.detail) == (
                want.line_no, want.field_name, want.detail), case
            continue
        checkins = records.parse_checkins(lines, utc_offset_hours=offset)
        got = records.discretize(checkins, slots, fill)
        want = discretize_looped(parsed, slots, fill, offset)
        for name in ("users", "days", "ids", "row", "slot", "loc"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, (case, name)
            assert np.array_equal(a, b), (case, name)
        assert got.ids.shape == (len(got), slots)
        coords = location_table(parsed, len(id_map))
        assert checkins.coords.dtype == coords.dtype and np.array_equal(checkins.coords, coords)
        assert checkins.id_map == id_map


def test_trajectory_matrix_names_the_first_ragged_row(tmp_path):
    # A table cannot be ragged, so the reader is where a ragged row is named.
    path = tmp_path / "t.txt"
    path.write_text("".join(f"u,2012-01-01,{' '.join(map(str, range(n)))}\n"
                            for n in (4, 4, 3, 5)))
    with pytest.raises(ValueError, match="line 3, field 'slots': 3 ids, expected 4"):
        records.read_trajectories(path, n_locations=5)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
    assert records.read_trajectories(path, n_locations=5).ids.shape == (2, 4)


def test_discretize_coarser_slots():
    parsed = records.parse_checkins([_checkin(ts="2012-04-03T13:00:00Z")])
    trajs = records.discretize(parsed, slots_per_day=4)
    assert trajs.ids.shape == (1, 4)
    assert observed(trajs, 0) == ((2, 0),)    # hour 13 lands in quarter 2


def test_filter_min_visits_threshold_is_inclusive():
    trajs = table(np.zeros((3, 24)), [[(i, 0) for i in range(count)] for count in (8, 9, 10)])
    kept = records.filter_min_visits(trajs)
    assert len(kept) == 2


def _dataset(n_trajs, n_locs=4):
    trajs = table(np.repeat(np.arange(n_trajs)[:, None] % n_locs, 24, axis=1))
    trajs.days = np.datetime64("2012-01-01") + np.arange(n_trajs) % 28
    return Dataset(trajs, np.zeros((n_locs, 2)))


def _assert_same_rows(got, want):
    assert got.users.tolist() == want.users.tolist()
    np.testing.assert_array_equal(got.days, want.days)
    np.testing.assert_array_equal(got.ids, want.ids)


def test_split_sizes_and_partition():
    ds = _dataset(103)
    train, valid, test = records.split(ds, (7, 1, 2), seed=0)
    assert len(valid) == 10 and len(test) == 20      # floor shares
    assert len(train) == 73                           # remainder joins train
    users = [user for part in (train, valid, test) for user in part.trajectories.users.tolist()]
    assert sorted(users) == sorted(ds.trajectories.users.tolist())


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("ratios", [(7, 1, 2), (1, 1, 1000), (1, 1000, 1)])
def test_split_never_writes_an_empty_part(n, ratios):
    ds = _dataset(n)
    parts = records.split(ds, ratios, seed=0)
    sizes = [len(part) for part in parts]
    assert min(sizes) >= 1 and sum(sizes) == n
    if ratios == (7, 1, 2):             # a floor share of 0 becomes 1
        valid, test = (max(1, n * r // 10) for r in ratios[1:])
        assert sizes == [n - valid - test, valid, test]
    users = [user for part in parts for user in part.trajectories.users.tolist()]
    assert sorted(users) == sorted(ds.trajectories.users.tolist())


def test_split_deterministic_and_seed_sensitive():
    ds = _dataset(40)
    a = records.split(ds, seed=5)[0]
    b = records.split(ds, seed=5)[0]
    c = records.split(ds, seed=6)[0]
    assert a.trajectories.users.tolist() == b.trajectories.users.tolist()
    assert a.trajectories.users.tolist() != c.trajectories.users.tolist()


def test_trajectory_roundtrip(tmp_path):
    ds = _dataset(7)
    path = tmp_path / "t.txt"
    records.write_trajectories(path, ds.trajectories)
    back = records.read_trajectories(path, n_locations=4)
    _assert_same_rows(back, ds.trajectories)


@pytest.mark.parametrize("ids", [
    np.zeros((0, 24), dtype=np.int64),           # an empty table
    np.array([[-3, 0, 12], [7, -3, -12]]),       # negative ids
    np.array([[5, 5, 5]]),                       # one distinct id
    np.array([[0, 99999], [1000, 7]]),
], ids=["empty", "negative", "one_id", "wide_range"])
def test_write_trajectories_writes_each_id_as_str(tmp_path, ids):
    traj = records.Trajectories(np.array([f"u{i}" for i in range(len(ids))], dtype=str),
                                np.full(len(ids), np.datetime64("2012-01-01", "D")), ids)
    path = tmp_path / "t.txt"
    records.write_trajectories(path, traj)
    assert path.read_text() == "".join(f"u{i},2012-01-01,{' '.join(map(str, row))}\n"
                                       for i, row in enumerate(ids.tolist()))


def test_write_trajectories_writes_in_row_blocks(tmp_path):
    # The lines of 60,000 rows of 24 slots take 5 MB; they are formatted and
    # written a block of rows at a time.
    ids = np.random.default_rng(0).integers(0, 100, (60000, 24))
    traj = records.generated_trajectories(ids)
    tracemalloc.start()
    try:
        records.write_trajectories(tmp_path / "t.txt", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert np.array_equal(records.read_trajectories(tmp_path / "t.txt", 100, 24).ids, ids)


def test_observed_roundtrip(tmp_path):
    traj = table(np.zeros((1, 24)), [((3, 1), (17, 0))])
    path = tmp_path / "obs.txt"
    records.write_observed(path, traj)
    stripped = table(traj.ids)
    records.attach_observed(stripped, path, n_locations=2)
    assert observed(stripped, 0) == ((3, 1), (17, 0))


def test_locations_roundtrip(tmp_path):
    table = np.array([[40.75, -74.0], [51.5, -0.13]])
    path = tmp_path / "loc.csv"
    records.write_locations(path, table)
    assert np.array_equal(records.read_locations(path), table)


def test_id_map_roundtrip(tmp_path):
    id_map = {"venue_9": 0, "venue_3": 1}
    path = tmp_path / "ids.csv"
    records.write_id_map(path, id_map)
    assert read_id_map(path) == id_map


@given(st.lists(st.integers(0, 50), min_size=1, max_size=48),
       st.dates(dt.date(1990, 1, 1), dt.date(2100, 1, 1)))
@settings(max_examples=50, deadline=None)
def test_trajectory_roundtrip_property(slots, day):
    traj = table([slots], users=["user-x"], day=day)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.txt")
        records.write_trajectories(path, traj)
        _assert_same_rows(records.read_trajectories(path, n_locations=51), traj)


def _observed_table():
    # Rows 1 and 3 have no pairs; row 2's pairs are out of slot order, as
    # records of one hour bucket can be.
    return table(np.arange(5 * 24).reshape(5, 24) % 7,
                 [((0, 1), (5, 2)), (), ((9, 3), (2, 4), (9, 5)), (), ((23, 6),)],
                 users=["a", "b", "c", "d", "e"])


def test_table_roundtrip_is_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    records.write_trajectories(first / "t.txt", _observed_table())
    records.write_observed(first / "obs.txt", _observed_table())
    back = records.read_trajectories(first / "t.txt", n_locations=7, slots=24)
    assert len(back.row) == 0
    records.attach_observed(back, first / "obs.txt", n_locations=7)
    records.write_trajectories(second / "t.txt", back)
    records.write_observed(second / "obs.txt", back)
    for name in ("t.txt", "obs.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert (first / "obs.txt").read_text().splitlines()[1] == "b,2012-01-01,"


def test_take_keeps_observed_order_after_split():
    rng = np.random.default_rng(5)
    pairs = [[(int(rng.integers(0, 24)), int(rng.integers(0, 7)))
              for _ in range(rng.integers(0, 8))] for _ in range(60)]
    trajs = table(rng.integers(0, 7, size=(60, 24)), pairs,
                  users=[f"u{i}" for i in range(60)])
    parts = records.split(Dataset(trajs, np.zeros((7, 2))), seed=3)
    seen = []
    for part in parts:
        taken = part.trajectories
        for i, user in enumerate(taken.users.tolist()):
            j = int(user[1:])
            np.testing.assert_array_equal(taken.ids[i], trajs.ids[j])
            assert observed(taken, i) == observed(trajs, j)
            seen.append(j)
        assert np.all(np.diff(taken.row) >= 0)
    assert sorted(seen) == list(range(60)) and seen != sorted(seen)


@pytest.mark.parametrize("text, value", [
    ("1", True), ("true", True), ("YES", True), ("0", False), ("False", False), ("no", False),
])
def test_bool_field(text, value):
    assert records._bool_field(3, "dwell", text) is value


@pytest.mark.parametrize("text", ["2", "", "on", "y"])
def test_bool_field_rejects(text):
    with pytest.raises(CheckinFormatError, match="line 3, field 'dwell': not a bool"):
        records._bool_field(3, "dwell", text)


def test_tuple_field():
    assert records._tuple_field(1, "channels", "sdg, ttg ,stg") == ("sdg", "ttg", "stg")
    assert records._tuple_field(1, "channels", "sdg") == ("sdg",)
    for text in ("", "sdg,", "sdg,,stg", " , "):
        with pytest.raises(CheckinFormatError, match="field 'channels': an empty item"):
            records._tuple_field(1, "channels", text)


# One-line corruptions: the file each hits, and the line it makes of
# (user, day, third field, T, N).
CORRUPTIONS = {
    "ragged": ("traj", lambda u, d, f, t, n: f"{u},{d},{f} 0"),
    "not_a_number": ("traj", lambda u, d, f, t, n: f"{u},{d},{f[:-1]}x"),
    "negative": ("traj", lambda u, d, f, t, n: f"{u},{d},-1 {f.split(' ', 1)[-1]}" if t > 1
                 else f"{u},{d},-1"),
    "too_large": ("traj", lambda u, d, f, t, n: f"{u},{d},{n} {f.split(' ', 1)[-1]}" if t > 1
                  else f"{u},{d},{n}"),
    "no_ids": ("traj", lambda u, d, f, t, n: f"{u},{d},"),
    "bad_day": (None, lambda u, d, f, t, n: f"{u},{d[:4]}{d[5:7]}{d[8:]},{f}"),
    "two_fields": (None, lambda u, d, f, t, n: f"{u},{d}"),
    "slot_of_t": ("obs", lambda u, d, f, t, n: f"{u},{d},{f} {t}:0"),
    "no_colon": ("obs", lambda u, d, f, t, n: f"{u},{d},0-0 {f}"),
    "two_colons": ("obs", lambda u, d, f, t, n: f"{u},{d},{f} 0:0:0"),
}


def _random_lines(rng):
    """Trajectory and observed lines of random shape, as (user, day, third
    field): users with spaces, uneven spacing, sidecar keys repeated and
    keys no trajectory has."""
    b, t, n = int(rng.integers(1, 61)), int(rng.integers(1, 31)), int(rng.integers(1, 20001))
    keys = [(f"user {i % 7}" if rng.random() < 0.5 else f"u{i}",
             f"2012-{rng.integers(1, 13):02d}-{rng.integers(1, 29):02d}") for i in range(b)]
    sep = " " if rng.random() < 0.7 else " \t "
    traj = [(user, day, sep.join(map(str, rng.integers(0, n, t)))) for user, day in keys]
    obs = [(*(keys[i] if i < b else ("nobody", "2013-01-01")),
            sep.join(f"{rng.integers(0, t)}:{rng.integers(0, n)}"
                     for _ in range(rng.integers(0, 6))))
           for i in rng.integers(0, b + 2, rng.integers(1, 2 * b + 2))]
    return traj, obs, t, n



@pytest.mark.parametrize("text, value", [("7", 7), (" +3 ", 3), ("-2", -2), ("0012", 12)])
def test_int_field(text, value):
    assert records._int_field(3, "k", text) == value


@pytest.mark.parametrize("text", ["", "1_0", "\u0663", "1.5", "1e3", "0x1f", "1 2"])
def test_int_field_takes_ascii_decimal_only(text):
    # Python's int() reads the second and third; the id and pair parse does not.
    with pytest.raises(CheckinFormatError, match="line 3, field 'k': not an integer"):
        records._int_field(3, "k", text)


@pytest.mark.parametrize("text, value", [("0.5", 0.5), (" -2.5e3\t", -2500.0), ("7", 7.0),
                                         (".5", 0.5), ("1E-3", 0.001)])
def test_float_field(text, value):
    assert records._float_field(3, "w", text) == value


@pytest.mark.parametrize("text, message", [
    ("1_0.5", "not a number"), ("\u0663", "not a number"), ("\u0661.5", "not a number"),
    ("4\u00a0", "not a number"), ("", "not a number"), ("0x1p3", "not a number"),
    ("nan", "not finite"), ("inf", "not finite"), ("-Infinity", "not finite"),
    ("1e400", "not finite"),
])
def test_float_field_takes_ascii_decimal_only(text, message):
    # Python's float() reads the first four; NumPy's reader does not.
    with pytest.raises(CheckinFormatError, match=f"line 3, field 'w': {message}"):
        records._float_field(3, "w", text)


def _loadtxt_with_float_fallback(loadtxt):
    """``loadtxt`` as NumPy reads an integer dtype while it keeps the float
    fallback of 1.23: a token that is no integer is read as a float and
    truncated, with a DeprecationWarning."""
    def fallback(texts, dtype=float, **kwargs):
        try:
            return loadtxt(texts, dtype=dtype, **kwargs)
        except ValueError:
            values = loadtxt(texts, dtype=np.float64, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return values.astype(dtype)
    return fallback


@pytest.mark.parametrize("token", ["1.5", "1e3"])
def test_a_float_token_is_rejected_where_numpy_would_truncate_it(tmp_path, monkeypatch, token):
    monkeypatch.setattr(np, "loadtxt", _loadtxt_with_float_fallback(np.loadtxt))
    traj, obs = tmp_path / "t.txt", tmp_path / "o.txt"
    traj.write_text(f"u,2012-01-01,0 1\nu,2012-01-01,{token} 1\n")
    obs.write_text(f"u0,2012-01-01,0:1 1:{token}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # Python's default for a library's warning
        assert np.loadtxt([token], dtype=np.int64).tolist() == int(float(token))
        with pytest.raises(CheckinFormatError, match="line 2, field 'slots': ids must be integers"):
            records.read_trajectories(traj, n_locations=2000)
        with pytest.raises(CheckinFormatError,
                           match=f"line 1, field 'pairs': not an integer: '{token}'"):
            records.attach_observed(table(np.zeros((1, 4))), obs, n_locations=2000)

def _read_both(traj_path, obs_path, n):
    """Each reader pair's table with its observed pairs, or its error."""
    results = []
    for read, attach in ((records.read_trajectories, records.attach_observed),
                         (read_trajectories_looped, attach_observed_looped)):
        try:
            results.append(attach(read(traj_path, n), obs_path, n))
        except CheckinFormatError as exc:
            results.append(exc)
    return results


def test_readers_match_the_per_line_readers(tmp_path):
    rng = np.random.default_rng(2121)
    paths = {"traj": tmp_path / "t.txt", "obs": tmp_path / "o.txt"}
    kinds = [None, *CORRUPTIONS]
    for case in range(300):
        traj, obs, t, n = _random_lines(rng)
        files = {"traj": [",".join(line) for line in traj], "obs": [",".join(line) for line in obs]}
        kind = kinds[case % len(kinds)]
        if kind is not None:
            target = CORRUPTIONS[kind][0] or rng.choice(["traj", "obs"])
            i = int(rng.integers(0, len(files[target])))
            files[target][i] = CORRUPTIONS[kind][1](*(traj if target == "traj" else obs)[i], t, n)
        for name, lines in files.items():
            blank = rng.integers(0, len(lines) + 1)
            paths[name].write_text("\n".join(lines[:blank] + ["", "  "] + lines[blank:]) + "\n")
        got, want = _read_both(paths["traj"], paths["obs"], n)
        if kind is not None:
            assert isinstance(want, CheckinFormatError), (case, kind)
            assert isinstance(got, CheckinFormatError), (case, kind)
            assert (got.line_no, got.field_name, got.detail) == (
                want.line_no, want.field_name, want.detail), (case, kind)
            continue
        assert got.users.tolist() == want.users.tolist()
        for name in ("days", "ids", "row", "slot", "loc"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (case, name)
            assert a.shape == b.shape, (case, name)


@pytest.mark.parametrize("third, later, reader", [
    ("0 x", "u,2012-13-01,0 1", "trajectories"),
    ("0 1 2", "u,2012-01-01,", "trajectories"),
    ("0:9", "u,2012-01-01", "observed"),
], ids=["bad_id_then_bad_day", "ragged_then_no_ids", "bad_pair_then_two_fields"])
def test_the_first_bad_line_is_named(tmp_path, third, later, reader):
    # Line 2's third field is bad and line 3 fails its own checks: line 2 is named.
    path = tmp_path / "f.txt"
    path.write_text(f"u,2012-01-01,{'0:1' if reader == 'observed' else '0 1'}\n"
                    f"u,2012-01-01,{third}\n{later}\n")
    with pytest.raises(CheckinFormatError) as err:
        if reader == "observed":
            records.attach_observed(table(np.zeros((1, 4))), path, n_locations=2)
        else:
            records.read_trajectories(path, n_locations=2)
    assert (err.value.line_no, err.value.field_name) == (2, "slots" if reader != "observed"
                                                         else "pairs")
