"""Small trajectory tables built from plain rows, for tests."""

import numpy as np

from mobsim.records import Trajectories


def table(ids, pairs=None, users=None, day="2012-01-01"):
    """A table with id rows ``ids``, all on ``day``.  ``pairs[i]`` lists the
    observed (slot, loc) pairs of row i (none when omitted); users default to
    u0, u1, ..."""
    ids = np.asarray(ids, dtype=np.int64).reshape(len(ids), -1)
    pairs = pairs if pairs is not None else [()] * len(ids)
    users = users if users is not None else [f"u{i}" for i in range(len(ids))]
    found = [(i, slot, loc) for i, row in enumerate(pairs) for slot, loc in row]
    row, slot, loc = np.array(found, dtype=np.int64).reshape(-1, 3).T
    return Trajectories(np.array(users, dtype=str),
                        np.full(len(ids), np.datetime64(day, "D")), ids, row, slot, loc)


def observed(trajectories, i):
    """The observed (slot, loc) pairs of row ``i``, in table order."""
    mine = trajectories.row == i
    return tuple(zip(trajectories.slot[mine].tolist(), trajectories.loc[mine].tolist()))
