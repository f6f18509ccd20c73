"""Check-in parsing, hourly discretization, filtering, and dataset splits.

Check-ins are read into one columnar :class:`Checkins` table: user code,
dense location id, UTC and local epoch second per record, and each
location's coordinates.  :func:`discretize` buckets it with NumPy into a set
of user-days, one columnar :class:`Trajectories` table: user and day columns,
a (B, T) int64 id matrix, and the raw pre-fill observations as parallel
(row, slot, loc) arrays.  Every reader and writer of trajectory and observed
files, and every consumer downstream, works on that table or its id matrix.

File formats (all plain text, one record per line, UTF-8):

* check-in input:   ``user,location,lat,lon,timestamp`` with an ISO-8601
  timestamp ("Z" and numeric offsets accepted); an aware time is bucketed
  by its own local wall clock, and a naive one is read as UTC and shifted
  by ``--utc-offset`` hours to its wall clock;
* trajectory file:  ``user,day,loc_0 loc_1 ... loc_{T-1}`` where ``day`` is
  ``YYYY-MM-DD`` and the third field T whitespace-separated dense location ids;
* id-map file:      ``original_id,dense_id``;
* locations file:   ``dense_id,lat,lon`` (floats via repr, lossless);
* observed sidecar: ``user,day,slot:loc slot:loc ...`` carrying the raw
  pre-fill observations, one pair per input record of that user-day.

The trajectory and observed readers parse each file's third fields in one NumPy call.
"""

from __future__ import annotations

import datetime as dt
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

HOURS_PER_DAY = 24
_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_UNIX_EPOCH = dt.date(1970, 1, 1).toordinal()
_LOCAL_END = (dt.date.max.toordinal() + 1 - _UNIX_EPOCH) * 86400    # 10000-01-01
# Bytes of one (rows, T) int64 id block: write_trajectories formats and
# writes its rows in blocks of this size, so that its strings and lists
# stay those of one block whatever B is.
_BLOCK_BYTES = 1 << 19


class CheckinFormatError(ValueError):
    """A malformed input line; remembers the line number (None for a field
    that is missing altogether) and the field."""

    def __init__(self, line_no: int | None, field_name: str, message: str):
        where = "" if line_no is None else f"line {line_no}, "
        super().__init__(f"{where}field '{field_name}': {message}")
        self.line_no = line_no
        self.field_name = field_name
        self.detail = message


@dataclass(eq=False)
class Trajectories:
    """B user-days as one columnar table of T slots each.

    Row i is the user-day ``(users[i], days[i])`` with dense location ids
    ``ids[i]``.  The raw pre-fill observations are the parallel int64 arrays
    ``row``, ``slot`` and ``loc``, one entry per input record: rows ascend and
    each row's pairs keep their time order.  A table read back from a
    trajectory file has no pairs until :func:`attach_observed` adds them.
    """

    users: np.ndarray               # (B,) str
    days: np.ndarray                # (B,) datetime64[D]
    ids: np.ndarray                 # (B, T) int64
    row: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    slot: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    loc: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index) -> Trajectories:
        """The distinct rows ``index``, in that order; a stable sort keeps
        each row's observed pairs in their order."""
        index = np.asarray(index, dtype=np.int64)
        new_of_old = np.full(len(self), -1, dtype=np.int64)
        new_of_old[index] = np.arange(len(index))
        kept = new_of_old[self.row] >= 0
        row = new_of_old[self.row[kept]]
        order = np.argsort(row, kind="stable")
        return Trajectories(self.users[index], self.days[index], self.ids[index],
                            row[order], self.slot[kept][order], self.loc[kept][order])


def _day_column(days) -> np.ndarray:
    """A datetime64[D] array of ``dt.date`` values, by way of their ordinals:
    NumPy converts date objects one by one, about 20x slower."""
    return (np.array([day.toordinal() for day in days], dtype=np.int64)
            - _UNIX_EPOCH).astype("datetime64[D]")


def generated_trajectories(ids: np.ndarray) -> Trajectories:
    """Label a generated (B, T) id matrix as users gen00000, gen00001, ...,
    all on 2000-01-01."""
    return Trajectories(np.array([f"gen{i:05d}" for i in range(len(ids))]),
                        np.full(len(ids), np.datetime64("2000-01-01")), ids)


@dataclass
class Dataset:
    """A trajectory table plus the coordinate table it indexes into.

    ``locations`` is an (N, 2) float array of (lat, lon) rows indexed by the
    dense location id; every id of ``trajectories`` lies in [0, N).
    """

    trajectories: Trajectories
    locations: np.ndarray

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    def __len__(self) -> int:
        return len(self.trajectories)


def check_ids(ids, n_locations: int, min_slots: int = 2) -> np.ndarray:
    """``ids`` as an int64 (B, T) id matrix with B >= 1, T >= ``min_slots``
    and every id in [0, ``n_locations``); the one check of an in-memory id
    matrix.  Anything else, a float or bool matrix included, raises
    ValueError."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or not len(ids) or ids.shape[1] < min_slots:
        raise ValueError(f"need a (B >= 1, T >= {min_slots}) id matrix, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"location ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ids.min() < 0 or ids.max() >= n_locations:
        raise ValueError(f"location ids outside [0, {n_locations})")
    return ids


def _fields(lines, layout: str, delimiter: str = ",", start: int = 1, rest: bool = False):
    """``(line number, fields)`` of each non-blank line, numbered from
    ``start``.  ``layout`` names the fields comma-separated (say
    ``"id,lat,lon"``) whatever ``delimiter`` splits the line on; with
    ``rest`` the last field keeps the rest of the line.  A line that does
    not split into those fields raises :class:`CheckinFormatError`."""
    names = layout.split(",")
    maxsplit = len(names) - 1 if rest else -1
    for line_no, line in enumerate(lines, start=start):
        text = line.strip()
        if not text:
            continue
        parts = text.split(delimiter, maxsplit)
        if len(parts) != len(names):
            raise CheckinFormatError(line_no, "record", f"expected '{delimiter.join(names)}', "
                                     f"got {len(parts)} fields")
        yield line_no, parts


def _int_field(line_no: int, name: str, text: str, limit: int | None = None) -> int:
    """``text`` as an integer (ASCII decimal, optional sign, as
    :func:`_parse_ints` reads it), in [0, ``limit``) when a limit is given."""
    try:    # int() alone also takes 1_0 and non-ASCII digits
        value = int(text if text.isascii() and "_" not in text else "?")
    except ValueError:
        raise CheckinFormatError(line_no, name, f"not an integer: {text!r}") from None
    if limit is not None and not 0 <= value < limit:
        raise CheckinFormatError(line_no, name, f"{value} outside [0, {limit})")
    return value


def _float_field(line_no: int, name: str, text: str, bound: float | None = None) -> float:
    """``text`` as a finite ASCII float, within ±``bound`` when a bound is given."""
    try:    # float() alone also takes 1_0.5 and non-ASCII digits
        value = float(text if text.isascii() and "_" not in text else "?")
    except ValueError:
        raise CheckinFormatError(line_no, name, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckinFormatError(line_no, name, f"not finite: {text!r}")
    if bound is not None and abs(value) > bound:
        raise CheckinFormatError(line_no, name, f"{value} outside [-{bound}, {bound}]")
    return value


def _bool_field(line_no: int, name: str, text: str) -> bool:
    """``text`` as a bool: 1, true or yes, or 0, false or no, in any case."""
    lowered = text.lower()
    if lowered not in ("1", "true", "yes", "0", "false", "no"):
        raise CheckinFormatError(line_no, name, f"not a bool: {text!r}")
    return lowered in ("1", "true", "yes")


def _tuple_field(line_no: int, name: str, text: str) -> tuple:
    """``text`` as a tuple of its comma-separated items, stripped, none empty."""
    items = tuple(item.strip() for item in text.split(","))
    if not all(items):
        raise CheckinFormatError(line_no, name, f"an empty item in {text!r}")
    return items


@dataclass(eq=False)
class Checkins:
    """R check-ins as columns, in input order.

    ``user`` indexes ``names``, the users in order of first appearance.
    ``timestamp`` is the UTC epoch second (a naive time read as UTC), which
    orders a user-day's records; ``local`` is the epoch second of the wall
    clock that gives the record its day and slot.  ``coords`` holds each dense
    location id's (lat, lon) at its first record.
    """

    names: list
    user: np.ndarray                # (R,) int64
    location: np.ndarray            # (R,) int64
    timestamp: np.ndarray           # (R,) int64
    local: np.ndarray               # (R,) int64
    coords: np.ndarray              # (N, 2) float
    id_map: dict                    # original location token -> dense id


def parse_checkins(lines, delimiter: str = ",", utc_offset_hours: int = 0) -> Checkins:
    """Parse raw check-in lines into a :class:`Checkins` table.

    Location ids are re-indexed densely in order of first appearance.  An
    aware time keeps its own wall clock; a naive one is read as UTC and its
    wall clock is ``utc_offset_hours`` east of it.  Blank lines are skipped;
    any malformed field, or a wall clock after year 9999, raises
    :class:`CheckinFormatError` naming the line and field.
    """
    codes, id_map = {}, {}          # user, location token -> code in order of first appearance
    columns, coords = [], []
    for line_no, parts in _fields(lines, "user,location,lat,lon,timestamp", delimiter):
        user, loc_token, lat_text, lon_text, ts_text = (p.strip() for p in parts)
        if not user:
            raise CheckinFormatError(line_no, "user", "empty user id")
        if not loc_token:
            raise CheckinFormatError(line_no, "location", "empty location id")
        lat = _float_field(line_no, "lat", lat_text, 90.0)
        lon = _float_field(line_no, "lon", lon_text, 180.0)
        # Python 3.10 fromisoformat rejects a trailing Z, so normalize it first.
        raw = ts_text[:-1] + "+00:00" if ts_text.endswith(("Z", "z")) else ts_text
        try:
            moment = dt.datetime.fromisoformat(raw)
        except ValueError:
            raise CheckinFormatError(line_no, "timestamp", f"not ISO-8601: {ts_text!r}") from None
        offset = moment.utcoffset()
        if offset is None:
            moment, offset = (moment.replace(tzinfo=dt.timezone.utc),
                              dt.timedelta(hours=utc_offset_hours))
        epoch = int(moment.timestamp())
        if epoch < 0:
            raise CheckinFormatError(line_no, "timestamp", "before the epoch")
        local = epoch + int(offset.total_seconds())
        if local >= _LOCAL_END:
            raise CheckinFormatError(line_no, "timestamp", "local time after year 9999")
        if loc_token not in id_map:
            id_map[loc_token] = len(id_map)
            coords.append((lat, lon))
        columns.append((codes.setdefault(user, len(codes)), id_map[loc_token], epoch, local))
    user, location, timestamp, local = np.array(columns, dtype=np.int64).reshape(-1, 4).T
    return Checkins(list(codes), user, location, timestamp, local,
                    np.array(coords, dtype=float).reshape(-1, 2), id_map)


def discretize(checkins: Checkins, slots_per_day: int = HOURS_PER_DAY,
               fill: str = "ffill") -> Trajectories:
    """Bucket check-ins into per-user-day trajectories of ``slots_per_day`` slots.

    Each user-day with at least one record yields one row, in (user, day)
    order, on the record's local wall clock.  Within a slot the record with
    the latest timestamp wins (input order breaks exact ties).  Gaps are
    filled from the neighbouring observation: ``ffill`` repeats the previous
    slot and back-fills the leading gap from the first observation, ``bfill``
    mirrors that in reverse.  The raw (slot, location) pairs are kept as the
    table's observed pairs, one per record, in time order.
    """
    if HOURS_PER_DAY % slots_per_day != 0:
        raise ValueError(f"slots_per_day must divide {HOURS_PER_DAY}, got {slots_per_day}")
    if fill not in ("ffill", "bfill"):
        raise ValueError(f"unknown fill mode {fill!r}")
    by_name = sorted(range(len(checkins.names)), key=checkins.names.__getitem__)
    rank = np.argsort(by_name)          # each user's place in Python's string order
    day, second = np.divmod(checkins.local, 86400)
    low = day.min(initial=0)            # initial=0 lets an empty table through
    span = day.max(initial=0) - low + 1
    keys, row = np.unique(rank[checkins.user] * span + day - low, return_inverse=True)
    order = np.lexsort((checkins.timestamp, row))       # stable: input order breaks ties
    row, loc = row[order], checkins.location[order]
    slot = second[order] // 3600 * slots_per_day // HOURS_PER_DAY
    # The last record of each (row, slot) is the first of the reversed order.
    cells, first = np.unique((row * slots_per_day + slot)[::-1], return_index=True)
    ids = np.full(len(keys) * slots_per_day, -1, dtype=np.int64)
    ids[cells] = loc[::-1][first]
    return Trajectories(np.array(checkins.names, dtype=str)[by_name][keys // span],
                        (keys % span + low).astype("datetime64[D]"),
                        _fill_gaps(ids.reshape(len(keys), slots_per_day), fill), row, slot, loc)


def _fill_gaps(slots: np.ndarray, fill: str) -> np.ndarray:
    """Fill each -1 of every row from the latest observation before it (after
    it for bfill); the gap before a row's first observation takes that
    observation.  Every row holds one."""
    seen = slots if fill == "ffill" else slots[:, ::-1]
    first = np.argmax(seen >= 0, axis=1)[:, None]
    last = np.maximum.accumulate(np.where(seen >= 0, np.arange(seen.shape[1]), first), axis=1)
    filled = np.take_along_axis(seen, last, axis=1)
    return filled if fill == "ffill" else filled[:, ::-1]


def filter_min_visits(trajectories: Trajectories, min_daily: int = 9) -> Trajectories:
    """Keep user-days whose raw record count, the number of their observed
    pairs, reaches ``min_daily``."""
    counts = np.bincount(trajectories.row, minlength=len(trajectories))
    return trajectories.take(np.flatnonzero(counts >= min_daily))


def split(dataset: Dataset, ratios=(7, 1, 2), seed: int = 0):
    """Shuffle and partition into train/validation/test datasets.

    Part sizes are ``floor(n * ratio / sum)`` for validation and test,
    raised to 1 where that is 0 and capped so that train, which takes the
    remainder, keeps at least 1: no part is ever empty.  The shuffle is
    reproducible from ``seed``.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be 3 positive numbers, got {ratios}")
    n = len(dataset)
    if n < len(ratios):
        raise ValueError(f"cannot split {n} trajectories into {len(ratios)} parts")
    total = sum(ratios)
    n_valid = min(max(1, int(n * ratios[1] // total)), n - 2)
    n_test = min(max(1, int(n * ratios[2] // total)), n - 1 - n_valid)
    n_train = n - n_valid - n_test
    order = stream(seed, "split").permutation(n)
    parts = (order[:n_train], order[n_train:n_train + n_valid], order[n_train + n_valid:])
    return tuple(Dataset(dataset.trajectories.take(part), dataset.locations) for part in parts)


def _labels(trajectories: Trajectories, rows=slice(None)):
    """The ``user,day`` prefix of each of ``rows`` (default: every row)."""
    days = np.datetime_as_string(trajectories.days[rows], unit="D").tolist()
    return [f"{user},{day}" for user, day in zip(trajectories.users[rows].tolist(), days)]


def _user_day_lines(path, third: str):
    """``(line number, user, day, third field)`` of each non-blank
    ``user,day,<third>`` line of ``path``, each distinct day parsed once."""
    days = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, (user, day_text, rest) in _fields(fh, f"user,day,{third}"):
            if day_text not in days:    # the shape first: 3.11 also reads 20120101, 2012-W01-2
                try:
                    days[day_text] = dt.date.fromisoformat(day_text if _DAY.fullmatch(day_text) else "")
                except ValueError:
                    raise CheckinFormatError(line_no, "day",
                                             f"not YYYY-MM-DD: {day_text!r}") from None
            yield line_no, user, days[day_text], rest


def _read_user_days(path, third: str, parse):
    """Users, days, third fields and ``parse(line_nos, texts)`` of ``path``'s
    lines; one failing its own checks raises after the lines before it parse."""
    line_nos, users, days, texts = [], [], [], []
    try:
        for line_no, user, day, text in _user_day_lines(path, third):
            line_nos.append(line_no)
            users.append(user)
            days.append(day)
            texts.append(text)
    except CheckinFormatError:
        parse(line_nos, texts)
        raise
    return users, days, texts, parse(line_nos, texts)


def _parse_ints(texts, delimiter: str | None = None, dtype=np.int64, ndmin: int = 2):
    """Each text as a row of ``dtype`` (default an int64 matrix) by NumPy's C
    reader, integers ASCII decimal only; None if one fails or rows are ragged."""
    with warnings.catch_warnings():
        # NumPy 1.23 on may read 1.5 or 1e3 as a truncated float, only warning.
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            return np.loadtxt(texts, dtype=dtype, ndmin=ndmin, comments=None, delimiter=delimiter)
        except (ValueError, DeprecationWarning):
            return None


def write_trajectories(path, trajectories: Trajectories):
    # Each distinct id is formatted once: a token table over [min, max],
    # indexed by id - min.  The rows go out in blocks of _BLOCK_BYTES of ids.
    ids = trajectories.ids
    low, high = (int(ids.min()), int(ids.max())) if ids.size else (0, -1)
    tokens = np.array([str(i) for i in range(low, high + 1)], dtype=object)
    rows = max(1, _BLOCK_BYTES // (8 * max(1, ids.shape[1])))
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(ids), rows):
            block = slice(lo, lo + rows)
            fh.write("".join([f"{label},{' '.join(row)}\n" for label, row in
                              zip(_labels(trajectories, block), tokens[ids[block] - low].tolist())]))


def read_trajectories(path, n_locations: int, slots: int | None = None) -> Trajectories:
    """Read a trajectory file into a table without observed pairs.

    Every line holds the same number of ids (``slots`` when given, else the
    first line's count), each id lies in [0, ``n_locations``); anything else
    raises :class:`CheckinFormatError` naming the line and field.
    """
    def parse(line_nos, texts):
        nonlocal slots
        if not texts:
            return np.zeros((0, slots or 0), dtype=np.int64)
        ids = _parse_ints(texts) if all(texts) else None
        if (ids is not None and ids.shape[0] == len(texts) and slots in (None, ids.shape[1])
                and ids.min() >= 0 and ids.max() < n_locations):
            return ids
        for line_no, text in zip(line_nos, texts):
            row = _parse_ints([text]) if text else None
            if row is None:
                raise CheckinFormatError(line_no, "slots",
                                         "ids must be integers" if text else "no location ids")
            slots = row.shape[1] if slots is None else slots
            if row.shape[1] != slots:
                raise CheckinFormatError(line_no, "slots", f"{row.shape[1]} ids, expected {slots}")
            if row.min() < 0 or row.max() >= n_locations:
                raise CheckinFormatError(line_no, "slots", f"location id outside [0, {n_locations})")

    users, days, _, ids = _read_user_days(path, "slots", parse)
    return Trajectories(np.array(users, dtype=str), _day_column(days), ids)


def write_id_map(path, id_map):
    with open(path, "w", encoding="utf-8") as fh:
        for original, dense in sorted(id_map.items(), key=lambda kv: kv[1]):
            fh.write(f"{original},{dense}\n")


def write_locations(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (lat, lon) in enumerate(table):
            fh.write(f"{i},{float(lat)!r},{float(lon)!r}\n")


def read_locations(path) -> np.ndarray:
    """Read a locations file into an (N, 2) table indexed by dense id.

    Every one of the N lines holds a distinct integer id in [0, N), so the
    ids are 0..N-1 in any order, a lat in [-90, 90] and a lon in
    [-180, 180]; anything else raises :class:`CheckinFormatError` naming
    the line and field.
    """
    with open(path, encoding="utf-8") as fh:
        lines = list(_fields(fh, "id,lat,lon"))
    table = np.empty((len(lines), 2))
    first_line = {}
    for line_no, (id_text, lat_text, lon_text) in lines:
        idx = _int_field(line_no, "id", id_text, len(lines))
        if idx in first_line:
            raise CheckinFormatError(line_no, "id",
                                     f"duplicate id {idx} (first on line {first_line[idx]})")
        first_line[idx] = line_no
        table[idx] = (_float_field(line_no, "lat", lat_text, 90.0),
                      _float_field(line_no, "lon", lon_text, 180.0))
    return table


def write_observed(path, trajectories: Trajectories):
    tokens = [f"{slot}:{loc}" for slot, loc in
              zip(trajectories.slot.tolist(), trajectories.loc.tolist())]
    bounds = np.searchsorted(trajectories.row, np.arange(len(trajectories) + 1)).tolist()
    lines = [f"{label},{' '.join(tokens[start:stop])}\n"
             for label, start, stop in zip(_labels(trajectories), bounds, bounds[1:])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def attach_observed(trajectories: Trajectories, path, n_locations: int) -> Trajectories:
    """Fill the table's observed pairs from an observed sidecar file, in place.

    Every line holds a user, an ISO day and ``slot:loc`` integer pairs, each
    slot in [0, T), T the table's trajectory length, and each location in
    [0, ``n_locations``); anything else raises :class:`CheckinFormatError`
    naming the line and field.  A row takes the pairs of the last line with
    its user and day, and none if no line has them.
    """
    limits = (trajectories.ids.shape[1], n_locations)

    def parse(line_nos, texts):
        tokens = " ".join(texts).split()
        pairs = _parse_ints(tokens, ":") if tokens else np.zeros((0, 2), dtype=np.int64)
        if (pairs is not None and pairs.shape == (len(tokens), 2)
                and not ((pairs < 0) | (pairs >= limits)).any()):
            return pairs
        for line_no, text in zip(line_nos, texts):      # token by token, to name the line
            for slot_text, _, loc_text in (token.partition(":") for token in text.split()):
                _int_field(line_no, "pairs", slot_text, limits[0])
                _int_field(line_no, "pairs", loc_text, limits[1])

    users, days, texts, pairs = _read_user_days(path, "pairs", parse)
    # Each line's pair count, then a 0 for line -1, a row no line names.
    counts = np.array([text.count(":") for text in texts] + [0], dtype=np.int64)
    last = {key: j for j, key in enumerate(zip(users, days))}
    line = np.array([last.get(key, -1) for key in
                     zip(trajectories.users.tolist(), trajectories.days.tolist())], dtype=np.int64)
    count, start = counts[line], (np.cumsum(counts) - counts)[line]
    trajectories.row = np.repeat(np.arange(len(line)), count)
    index = np.arange(len(trajectories.row)) + np.repeat(start - np.cumsum(count) + count, count)
    trajectories.slot, trajectories.loc = pairs[index].T
    return trajectories
