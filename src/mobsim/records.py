"""Check-in parsing, hourly discretization, filtering, and dataset splits.

File formats (all plain text, one record per line, UTF-8):

* check-in input:   ``user,location,lat,lon,timestamp`` with an ISO-8601
  timestamp ("Z" and numeric offsets accepted, naive times read as UTC);
  an aware time is bucketed by its own local wall clock;
* trajectory file:  ``user,day,loc_0 loc_1 ... loc_{T-1}`` where ``day`` is an
  ISO date and the third field holds T space-separated dense location ids;
* id-map file:      ``original_id,dense_id``;
* locations file:   ``dense_id,lat,lon`` (floats via repr, lossless);
* observed sidecar: ``user,day,slot:loc slot:loc ...`` carrying the raw
  pre-fill observations, one pair per input record of that user-day.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .rng import stream

HOURS_PER_DAY = 24


class CheckinFormatError(ValueError):
    """A malformed check-in line; remembers the line number and field."""

    def __init__(self, line_no: int, field_name: str, message: str):
        super().__init__(f"line {line_no}, field '{field_name}': {message}")
        self.line_no = line_no
        self.field_name = field_name
        self.detail = message


@dataclass(frozen=True)
class VisitRecord:
    """One check-in with a dense location id and a UTC epoch timestamp."""

    user: str
    location: int
    lat: float
    lon: float
    timestamp: int
    utc_offset: int | None = None   # written offset in seconds east of UTC; None if naive


@dataclass
class Trajectory:
    """One user-day as a dense sequence of T location ids.

    ``observed`` keeps the raw (slot, location) pair of every input record of
    the user-day, in time order and before any gap filling.  It is empty for
    trajectories read back from a trajectory file.
    """

    user: str
    day: dt.date
    slots: np.ndarray
    observed: tuple = ()

    def __post_init__(self):
        self.slots = np.asarray(self.slots, dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.user == other.user
            and self.day == other.day
            and np.array_equal(self.slots, other.slots)
        )


@dataclass
class Dataset:
    """Trajectories plus the coordinate table they index into.

    ``locations`` is an (N, 2) float array of (lat, lon) rows indexed by the
    dense location id; every slot value of every trajectory lies in [0, N).
    """

    trajectories: list
    locations: np.ndarray
    slots_per_day: int = HOURS_PER_DAY

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    def __len__(self) -> int:
        return len(self.trajectories)


def _parse_timestamp(text: str):
    """UTC epoch seconds and the written offset (None for a naive time, read as UTC)."""
    # Python 3.10 fromisoformat rejects a trailing Z, so normalize it first.
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = dt.datetime.fromisoformat(raw)
    offset = parsed.utcoffset()
    if offset is None:
        parsed = parsed.replace(tzinfo=dt.timezone.utc)
    return int(parsed.timestamp()), None if offset is None else int(offset.total_seconds())


def parse_checkins(lines, delimiter: str = ","):
    """Parse raw check-in lines into records with dense location ids.

    Location ids are re-indexed densely in order of first appearance.
    Returns ``(records, id_map)`` where ``id_map`` maps the original location
    token to its dense id.  Blank lines are skipped; any malformed field
    raises :class:`CheckinFormatError` naming the line and field.
    """
    records = []
    id_map: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = text.split(delimiter)
        if len(parts) != 5:
            raise CheckinFormatError(line_no, "record", f"expected 5 fields, got {len(parts)}")
        user, loc_token, lat_text, lon_text, ts_text = (p.strip() for p in parts)
        if not user:
            raise CheckinFormatError(line_no, "user", "empty user id")
        if not loc_token:
            raise CheckinFormatError(line_no, "location", "empty location id")
        try:
            lat = float(lat_text)
        except ValueError:
            raise CheckinFormatError(line_no, "lat", f"not a number: {lat_text!r}") from None
        if not -90.0 <= lat <= 90.0:
            raise CheckinFormatError(line_no, "lat", f"latitude {lat} outside [-90, 90]")
        try:
            lon = float(lon_text)
        except ValueError:
            raise CheckinFormatError(line_no, "lon", f"not a number: {lon_text!r}") from None
        if not -180.0 <= lon <= 180.0:
            raise CheckinFormatError(line_no, "lon", f"longitude {lon} outside [-180, 180]")
        try:
            epoch, offset = _parse_timestamp(ts_text)
        except ValueError:
            raise CheckinFormatError(line_no, "timestamp", f"not ISO-8601: {ts_text!r}") from None
        if epoch < 0:
            raise CheckinFormatError(line_no, "timestamp", "before the epoch")
        if loc_token not in id_map:
            id_map[loc_token] = len(id_map)
        records.append(VisitRecord(user, id_map[loc_token], lat, lon, epoch, offset))
    return records, id_map


def location_table(records, n_locations: int) -> np.ndarray:
    """Coordinate table indexed by dense id; first occurrence of an id wins."""
    table = np.full((n_locations, 2), np.nan)
    for rec in records:
        if np.isnan(table[rec.location, 0]):
            table[rec.location] = (rec.lat, rec.lon)
    if np.isnan(table).any():
        missing = np.flatnonzero(np.isnan(table[:, 0]))
        raise ValueError(f"no coordinates for location ids {missing.tolist()}")
    return table


def discretize(records, slots_per_day: int = HOURS_PER_DAY, fill: str = "ffill",
               utc_offset_hours: int = 0):
    """Bucket records into per-user-day trajectories of ``slots_per_day`` slots.

    Each user-day with at least one record yields one trajectory.  Within an
    hour bucket the record with the latest timestamp wins (input order breaks
    exact ties).  Gaps are filled from the neighbouring observation: ``ffill``
    repeats the previous slot and back-fills the leading gap from the first
    observation, ``bfill`` mirrors that in reverse.  The raw (slot, location)
    pairs are kept on each trajectory, one per record.  Slots and days follow
    the record's own offset, or ``utc_offset_hours`` for a naive timestamp.
    """
    if HOURS_PER_DAY % slots_per_day != 0:
        raise ValueError(f"slots_per_day must divide {HOURS_PER_DAY}, got {slots_per_day}")
    if fill not in ("ffill", "bfill"):
        raise ValueError(f"unknown fill mode {fill!r}")
    by_day: dict[tuple, list] = {}
    for order, rec in enumerate(records):
        shift = utc_offset_hours * 3600 if rec.utc_offset is None else rec.utc_offset
        moment = dt.datetime.fromtimestamp(rec.timestamp + shift, tz=dt.timezone.utc)
        slot = moment.hour * slots_per_day // HOURS_PER_DAY
        key = (rec.user, moment.date())
        by_day.setdefault(key, []).append((rec.timestamp, order, slot, rec.location))
    trajectories = []
    for (user, day), entries in sorted(by_day.items()):
        entries.sort(key=lambda e: (e[0], e[1]))
        observed = tuple((slot, loc) for _, _, slot, loc in entries)
        slots = np.full(slots_per_day, -1, dtype=np.int64)
        for _, _, slot, loc in entries:
            slots[slot] = loc
        trajectories.append(Trajectory(user, day, _fill_gaps(slots, fill), observed))
    return trajectories


def _fill_gaps(slots: np.ndarray, fill: str) -> np.ndarray:
    """Fill each -1 from the latest observation before it (after it for bfill);
    the gap before the first observation takes that observation."""
    seen = slots if fill == "ffill" else slots[::-1]
    observed = np.flatnonzero(seen >= 0)
    last = np.maximum.accumulate(np.where(seen >= 0, np.arange(len(seen)), observed[0]))
    return seen[last] if fill == "ffill" else seen[last[::-1]]


def filter_min_visits(trajectories, min_daily: int = 9):
    """Keep user-days whose raw record count, the length of each trajectory's
    ``observed`` tuple, reaches ``min_daily``."""
    return [traj for traj in trajectories if len(traj.observed) >= min_daily]


def split(dataset: Dataset, ratios=(7, 1, 2), seed: int = 0):
    """Shuffle and partition into train/validation/test datasets.

    Part sizes are ``floor(n * ratio / sum)`` for validation and test; the
    remainder goes to train.  The shuffle is reproducible from ``seed``.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be 3 positive numbers, got {ratios}")
    n = len(dataset.trajectories)
    if n < len(ratios):
        raise ValueError(f"cannot split {n} trajectories into {len(ratios)} parts")
    total = sum(ratios)
    n_valid = int(n * ratios[1] // total)
    n_test = int(n * ratios[2] // total)
    n_train = n - n_valid - n_test
    order = stream(seed, "split").permutation(n)
    shuffled = [dataset.trajectories[i] for i in order]
    parts = (shuffled[:n_train], shuffled[n_train:n_train + n_valid], shuffled[n_train + n_valid:])
    return tuple(
        Dataset(part, dataset.locations, dataset.slots_per_day) for part in parts
    )


def trajectory_matrix(trajectories) -> np.ndarray:
    """Stack trajectories into a (B, T) int64 id matrix; ragged input raises
    ValueError naming the first trajectory whose length differs."""
    rows = [t.slots for t in trajectories]
    bad = next((i for i, row in enumerate(rows) if len(row) != len(rows[0])), None)
    if bad is not None:
        raise ValueError(f"trajectory {bad} holds {len(rows[bad])} ids, expected {len(rows[0])}")
    return np.stack(rows).astype(np.int64, copy=False)


def write_trajectories(path, trajectories):
    with open(path, "w", encoding="utf-8") as fh:
        for t in trajectories:
            fh.write(f"{t.user},{t.day.isoformat()},{' '.join(str(s) for s in t.slots)}\n")


def read_trajectories(path, n_locations: int | None = None, slots: int | None = None):
    """Read a trajectory file.

    Every line holds the same number of ids (``slots`` when given, else the
    first line's count), each id lies in [0, ``n_locations``) (any
    non-negative id when omitted); anything else raises
    :class:`CheckinFormatError` naming the line and field.
    """
    trajectories = []
    limit = np.inf if n_locations is None else n_locations
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise CheckinFormatError(line_no, "record", "expected 'user,day,slots'")
            user, day_text, slot_text = parts
            try:
                day = dt.date.fromisoformat(day_text)
            except ValueError:
                raise CheckinFormatError(line_no, "day", f"not YYYY-MM-DD: {day_text!r}") from None
            try:
                ids = [int(tok) for tok in slot_text.split()]
            except ValueError:
                raise CheckinFormatError(line_no, "slots", "ids must be integers") from None
            if not ids:
                raise CheckinFormatError(line_no, "slots", "no location ids")
            if slots is None:
                slots = len(ids)
            if len(ids) != slots:
                raise CheckinFormatError(line_no, "slots", f"{len(ids)} ids, expected {slots}")
            if min(ids) < 0 or max(ids) >= limit:
                raise CheckinFormatError(line_no, "slots", f"location id outside [0, {limit})")
            trajectories.append(Trajectory(user, day, np.array(ids, dtype=np.int64)))
    return trajectories


def write_id_map(path, id_map):
    with open(path, "w", encoding="utf-8") as fh:
        for original, dense in sorted(id_map.items(), key=lambda kv: kv[1]):
            fh.write(f"{original},{dense}\n")


def read_id_map(path):
    id_map = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                original, dense = line.rstrip("\n").split(",")
                id_map[original] = int(dense)
    return id_map


def write_locations(path, table):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (lat, lon) in enumerate(table):
            fh.write(f"{i},{float(lat)!r},{float(lon)!r}\n")


def read_locations(path) -> np.ndarray:
    """Read a locations file into an (N, 2) table indexed by dense id.

    Every line holds an integer id and a finite lat and lon, and the ids are
    0..N-1 in any order; anything else raises :class:`CheckinFormatError`
    naming the line and field.
    """
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 3:
                raise CheckinFormatError(line_no, "record",
                                         f"expected 'id,lat,lon', got {len(parts)} fields")
            try:
                idx = int(parts[0])
            except ValueError:
                raise CheckinFormatError(line_no, "id", f"not an integer: {parts[0]!r}") from None
            if idx in rows:
                raise CheckinFormatError(line_no, "id",
                                         f"duplicate id {idx} (first on line {rows[idx][0]})")
            coords = []
            for name, raw in zip(("lat", "lon"), parts[1:]):
                try:
                    value = float(raw)
                except ValueError:
                    raise CheckinFormatError(line_no, name, f"not a number: {raw!r}") from None
                if not np.isfinite(value):
                    raise CheckinFormatError(line_no, name, f"not finite: {raw!r}")
                coords.append(value)
            rows[idx] = (line_no, *coords)
    for idx, (line_no, _, _) in rows.items():
        if not 0 <= idx < len(rows):
            raise CheckinFormatError(line_no, "id", f"id {idx} outside [0, {len(rows)}): "
                                     "ids must be dense 0..N-1")
    return np.array([rows[idx][1:] for idx in range(len(rows))])


def write_observed(path, trajectories):
    with open(path, "w", encoding="utf-8") as fh:
        for t in trajectories:
            pairs = " ".join(f"{slot}:{loc}" for slot, loc in t.observed)
            fh.write(f"{t.user},{t.day.isoformat()},{pairs}\n")


def attach_observed(trajectories, path, n_locations: int | None = None,
                    slots: int | None = None):
    """Re-attach raw observations from an observed sidecar file, in place.

    Every line holds a user, an ISO day and ``slot:loc`` integer pairs, each
    slot in [0, ``slots``) and each location in [0, ``n_locations``) (any
    non-negative value when omitted); anything else raises
    :class:`CheckinFormatError` naming the line and field.
    """
    slot_limit = np.inf if slots is None else slots
    loc_limit = np.inf if n_locations is None else n_locations
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != 3:
                raise CheckinFormatError(line_no, "record", "expected 'user,day,pairs'")
            user, day_text, pair_text = parts
            try:
                day = dt.date.fromisoformat(day_text)
            except ValueError:
                raise CheckinFormatError(line_no, "day", f"not YYYY-MM-DD: {day_text!r}") from None
            pairs = []
            for token in pair_text.split():
                slot_text, _, loc_text = token.partition(":")
                try:
                    slot, loc = int(slot_text), int(loc_text)
                except ValueError:
                    raise CheckinFormatError(line_no, "pairs",
                                             f"not slot:loc: {token!r}") from None
                if not 0 <= slot < slot_limit:
                    raise CheckinFormatError(line_no, "pairs",
                                             f"slot {slot} outside [0, {slot_limit})")
                if not 0 <= loc < loc_limit:
                    raise CheckinFormatError(line_no, "pairs",
                                             f"location id {loc} outside [0, {loc_limit})")
                pairs.append((slot, loc))
            table[(user, day)] = tuple(pairs)
    for t in trajectories:
        t.observed = table.get((t.user, t.day), ())
    return trajectories
