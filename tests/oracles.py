"""Independent oracles the unit tests check library code against.

Everything here is deliberately naive: straight-line implementations with no
shared code or conventions with the package, so agreement between the two
routes is meaningful.  The exception is the reference for an optimized path
(a fused op, a cached computation), which is the plain composition it
replaced, built from the package's own primitives.  The tape ops that only
those references and the gradient checks use are defined here: ``sub``,
``matmul``, ``narrow``, ``exp``, ``log``, ``tanh``, ``relu``, ``leakyrelu``,
``softmax``, ``tsum`` and the one-step ``gru_cell``.  So is the first-order Markov
baseline the tests fit to planted chains, and the per-value writers that
the token-table writers of ``synth`` and ``graphs`` replaced, and the
per-line trajectory and observed readers that the one-call NumPy parse of
``records`` replaced, and the per-record check-in reader, coordinate table
and bucketing that its columnar check-in table replaced.
"""

import bisect
import datetime as dt
from dataclasses import dataclass

import numpy as np

from mobsim.nn.core import _as_tensor, _result, _unbroadcast, softmax_values
from mobsim.records import (HOURS_PER_DAY, CheckinFormatError, Trajectories, _day_column,
                            _fields, _float_field, _int_field, _user_day_lines)
from mobsim.rng import categorical, stream


def transport_cost_greedy(pa, pb, positions):
    """Exact 1-D optimal transport cost via the north-west-corner rule.

    For cost |x - y| on the line the greedy left-to-right matching is optimal,
    so this is an independent ground truth for the CDF-difference formula.
    """
    a = np.asarray(pa, dtype=float).copy()
    b = np.asarray(pb, dtype=float).copy()
    x = np.asarray(positions, dtype=float)
    i = j = 0
    cost = 0.0
    while i < len(a) and j < len(b):
        mass = min(a[i], b[j])
        cost += mass * abs(x[i] - x[j])
        a[i] -= mass
        b[j] -= mass
        if a[i] <= 1e-15:
            i += 1
        if b[j] <= 1e-15:
            j += 1
    return cost


def transport_cost_linprog(pa, pb, positions):
    """The same transport problem solved as an explicit linear program."""
    from scipy.optimize import linprog

    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    x = np.asarray(positions, dtype=float)
    n = len(pa)
    cost = np.abs(x[:, None] - x[None, :]).ravel()
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n:(i + 1) * n] = 1.0          # row sums = pa
        a_eq[n + i, i::n] = 1.0                   # col sums = pb
    result = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([pa, pb]),
                     bounds=(0, None), method="highs")
    assert result.success, result.message
    return result.fun


def wasserstein_1d(a, b):
    """1-D earth mover's distance between slot distributions on the last axis.

    Both distributions live on the equispaced support (t + 0.5) / T, so the
    transport cost reduces to the mean absolute difference of the CDFs.  The
    result lies in [0, (T - 1) / T]; leading axes broadcast.  The reference
    for the scores of ``graphs.build_stg``.
    """
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.shape[-1] != pb.shape[-1]:
        raise ValueError(f"support sizes differ: {pa.shape} vs {pb.shape}")
    return np.abs(np.cumsum(pa, axis=-1) - np.cumsum(pb, axis=-1)).sum(axis=-1) / pa.shape[-1]


def jsd_naive(p, q):
    """Jensen-Shannon divergence written directly from its definition."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)

    def entropy(dist):
        total = 0.0
        for v in dist:
            if v > 0:
                total -= v * np.log(v)
        return total

    m = (p + q) / 2.0
    return entropy(m) - (entropy(p) + entropy(q)) / 2.0


def haversine_naive(lat1, lon1, lat2, lon2, radius=6371.0):
    """Great-circle distance from Vincenty's atan2 form for the sphere (not
    the half-angle form the package uses).  Unlike the law of cosines it
    keeps full precision at zero distance."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlon = np.radians(lon2 - lon1)
    across = np.cos(p2) * np.sin(dlon)
    along = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dlon)
    central = np.sin(p1) * np.sin(p2) + np.cos(p1) * np.cos(p2) * np.cos(dlon)
    return radius * np.arctan2(np.hypot(across, along), central)


def markov_counts(matrix, n):
    """First-order transition counts done with a plain double loop."""
    counts = np.zeros((n, n), dtype=np.int64)
    for row in matrix:
        for a, b in zip(row[:-1], row[1:]):
            counts[a, b] += 1
    return counts


class MarkovBaseline:
    """First-order Markov baseline fitted on a (B, T) training id matrix.

    Transition counts include self-transitions; rows of unseen locations
    fall back to uniform.  The first slot is drawn from the empirical
    distribution of training first slots.
    """

    def __init__(self, ids: np.ndarray, n_locations: int):
        counts = np.zeros((n_locations, n_locations), dtype=np.float64)
        np.add.at(counts, (ids[:, :-1], ids[:, 1:]), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        self.transitions = np.divide(counts, totals,
                                     out=np.full_like(counts, 1.0 / n_locations),
                                     where=totals > 0)
        first = np.bincount(ids[:, 0], minlength=n_locations).astype(np.float64)
        self.initial = first / first.sum()
        self.n_locations = n_locations
        self.slots_per_day = ids.shape[1]

    def generate(self, count: int, seed: int = 0) -> np.ndarray:
        """Sample a (count, T) id matrix; deterministic in (fitted model, count, seed)."""
        rng = stream(seed, "markov")
        length = self.slots_per_day
        cdf = np.cumsum(self.transitions, axis=1)
        states = np.empty((count, length), dtype=np.int64)
        states[:, 0] = categorical(np.cumsum(self.initial), rng.random(count))
        for t in range(1, length):
            states[:, t] = categorical(cdf[states[:, t - 1]], rng.random(count))
        return states


def sub(a, b):
    """``a - b`` as a tape op, with broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result(a.values - b.values, (a, b), backward)


def narrow(a, axis: int, start: int, length: int):
    """The ``length`` entries of ``a`` from ``start`` along ``axis``, as a
    tape op."""
    a = _as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        acc = np.zeros_like(a.values)
        acc[index] = g
        return (acc,)

    return _result(a.values[index], (a,), backward)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        return g @ b.values.T, a.values.T @ g

    return _result(a.values @ b.values, (a, b), backward)


def linear_composed(x, weight, bias):
    """``matmul`` then the broadcast ``add``, two tape nodes: the reference
    for the one-op ``nn.linear``."""
    from mobsim.nn import add

    return add(matmul(x, weight), bias)


def exp(a):
    a = _as_tensor(a)
    values = np.exp(a.values)
    return _result(values, (a,), lambda g: (g * values,))


def log(a):
    a = _as_tensor(a)
    return _result(np.log(a.values), (a,), lambda g: (g / a.values,))


def tanh(a):
    a = _as_tensor(a)
    values = np.tanh(a.values)
    return _result(values, (a,), lambda g: (g * (1.0 - values ** 2),))


def relu(a):
    a = _as_tensor(a)
    return _result(np.maximum(a.values, 0.0), (a,), lambda g: (g * (a.values > 0),))


def leakyrelu(a, slope=0.2):
    a = _as_tensor(a)

    def backward(g):
        return (g * np.where(a.values >= 0, 1.0, slope),)

    return _result(np.where(a.values >= 0, a.values, slope * a.values), (a,), backward)


def softmax(a):
    """Row-stable softmax over the last axis, as a tape op."""
    a = _as_tensor(a)
    values = softmax_values(a.values)

    def backward(g):
        return (values * (g - (g * values).sum(axis=-1, keepdims=True)),)

    return _result(values, (a,), backward)


def tsum(a, axis=None):
    """The sum over ``axis`` (all entries when None), as a tape op."""
    a = _as_tensor(a)

    def backward(g):
        expanded = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape).copy(),)

    return _result(a.values.sum(axis=axis), (a,), backward)


def gru_cell(x, z_prev, p):
    """One GRU step as a single tape op with an analytic backward: the
    per-step reference for ``nn.gru_unroll``.

    u = sigmoid(x Wu + z Uu + bu), r = sigmoid(x Wr + z Ur + br),
    candidate = tanh(x Wc + (r * z) Uc + bc),
    z_new = (1 - u) * z + u * candidate.
    """
    from mobsim.nn.core import sigmoid_values

    weights = p.tensors()
    wu, uu, bu, wr, ur, br, wc, uc, bc = (t.values for t in weights)
    xv, z = x.values, z_prev.values
    u = sigmoid_values(xv @ wu + z @ uu + bu)
    r = sigmoid_values(xv @ wr + z @ ur + br)
    rz = r * z
    c = np.tanh(xv @ wc + rz @ uc + bc)

    def backward(g):
        du = g * c - g * z
        dau = du * u * (1.0 - u)
        dac = g * u * (1.0 - c ** 2)
        drz = dac @ uc.T
        dar = drz * z * r * (1.0 - r)
        # Sums in the order the composed tape accumulated them, so one
        # cell's gradients match it bit for bit.
        return (dau @ wu.T + dac @ wc.T + dar @ wr.T,
                g * (1.0 - u) + dau @ uu.T + drz * r + dar @ ur.T,
                xv.T @ dau, z.T @ dau, dau.sum(axis=0),
                xv.T @ dar, z.T @ dar, dar.sum(axis=0),
                xv.T @ dac, rz.T @ dac, dac.sum(axis=0))

    return _result((1.0 - u) * z + u * c, (x, z_prev, *weights), backward)


def gru_cell_composed(x, z_prev, p):
    """One GRU step composed from elementary tape ops (about 20 nodes), the
    reference for the fused ``gru_cell``."""
    from mobsim.nn import add, mul, sigmoid

    u = sigmoid(add(add(matmul(x, p.w_update), matmul(z_prev, p.u_update)), p.b_update))
    r = sigmoid(add(add(matmul(x, p.w_reset), matmul(z_prev, p.u_reset)), p.b_reset))
    cand = tanh(add(add(matmul(x, p.w_cand), matmul(mul(r, z_prev), p.u_cand)), p.b_cand))
    return add(mul(sub(1.0, u), z_prev), mul(u, cand))


def teacher_forced_start(gen, table, prefix_ids):
    """The ``hidden`` and ``starts`` that start ``generator.complete_batch``
    from every column of a (B, w) prefix batch: the GRU state after its first
    w - 1 columns, from a teacher-forced pass (zeros when w is 1), and w for
    every row."""
    from mobsim import nn

    prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
    b, width = prefix_ids.shape
    if width == 1:
        return gen.zero_hidden(b), np.ones(b, dtype=np.int64)
    with nn.no_grad():
        return gen.unroll(table, prefix_ids[:, :-1]).values[-1], np.full(b, width)


def compute_rewards_replayed(gen, disc, batch_ids, n_rollouts, master_seed, tag):
    """Monte Carlo rewards with every completion replayed from slot 0: the
    generator re-runs each tiled prefix and the discriminator scores each
    whole completed sequence.  The reference for ``training.compute_rewards``,
    which starts both from cached prefix states."""
    from mobsim import nn
    from mobsim.generator import complete_batch, sample_streams

    batch_ids = np.asarray(batch_ids, dtype=np.int64)
    b, length = batch_ids.shape
    rewards = np.empty((b, length))
    with nn.no_grad():
        table = gen.embed_locations()
        for l in range(1, length):
            streams = sample_streams(master_seed, f"{tag}/l{l}")
            tiled = np.repeat(batch_ids[:, :l], n_rollouts, axis=0)
            completed = complete_batch(gen, table, tiled, length, [streams],
                                       *teacher_forced_start(gen, table, tiled))
            scores = disc.classify(completed).values.reshape(b, n_rollouts)
            rewards[:, l - 1] = scores.mean(axis=1)
        rewards[:, length - 1] = disc.classify(batch_ids).values
    return rewards


def complete_batch_full_explore(gen, table, prefix_ids, length, streams, hidden,
                                record=False):
    """The sampler with the exploration softmax and draw run on every row at
    every step, a fired dwell gate then overriding the draw, every row
    starting from all its prefix columns and its row of ``hidden``.  The
    reference for ``generator.complete_batch``, which draws only for the
    rows whose gate did not fire."""
    from mobsim import nn
    from mobsim.rng import categorical

    prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
    b, start = prefix_ids.shape
    out = np.empty((b, length), dtype=np.int64)
    out[:, :start] = prefix_ids
    fired = np.zeros((b, length - start), dtype=bool)
    with nn.no_grad():
        current = out[:, start - 1]
        for pos in range(start, length):
            hidden = nn.gru_cell(table.values[current], hidden, gen.gru)
            cdf = np.cumsum(softmax_values(gen.explore_logits(hidden).values), axis=-1)
            stay = np.zeros(b, dtype=bool)
            if gen.config.dwell and pos > 1:
                visits = (out[:, :pos] == current[:, None]).sum(axis=1)
                dwell_y = gen.stay_probs(hidden, visits).values
                stay = streams.dwell.random(b) < dwell_y
            drawn = categorical(cdf, streams.explore.random(b))
            chosen = np.where(stay, current, drawn)
            out[:, pos] = chosen
            fired[:, pos - start] = stay
            current = chosen
    if record:
        return out, fired
    return out


def sigmoid_masked(x):
    """The logistic function by boolean-mask indexing: 1/(1+e^-x) on x >= 0,
    e^x/(1+e^x) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    values = np.empty_like(x)
    pos = x >= 0
    values[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    values[~pos] = ez / (1.0 + ez)
    return values


def run_lengths(slots):
    """Lengths of maximal runs of identical consecutive values."""
    slots = np.asarray(slots)
    boundaries = np.flatnonzero(slots[1:] != slots[:-1]) + 1
    splits = np.concatenate([[0], boundaries, [len(slots)]])
    return np.diff(splits)


def evaluate_looped(real, generated, bins=100, top=100, include_zero_steps=True):
    """``metrics.evaluate`` with every family binned, counted and aligned by
    a loop over trajectories (id rows), one at a time: the reference for the
    (B, T) matrix families.  Only the JSD itself comes from the package."""
    from mobsim.graphs import haversine_km
    from mobsim.metrics import MetricReport, jsd

    def step_distances(trajectories):
        chunks = []
        for traj in trajectories:
            a = coords[traj[:-1]]
            b = coords[traj[1:]]
            chunks.append(haversine_km(a[:, 0], a[:, 1], b[:, 0], b[:, 1]))
        return np.concatenate(chunks)

    def gyration_radii(trajectories):
        radii = np.empty(len(trajectories))
        for i, traj in enumerate(trajectories):
            points = coords[traj]
            center = points.mean(axis=0)
            d = haversine_km(points[:, 0], points[:, 1], center[0], center[1])
            radii[i] = np.sqrt((d ** 2).mean())
        return radii

    def binned(real_values, gen_values):
        """Each side's masses over equal-width bins spanning the real values,
        a value placed by bisection and clamped into the edge bins."""
        if len(real_values) == 0:
            raise ValueError("no real values to bin")
        lo, hi = min(real_values), max(real_values)
        edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1).tolist()

        def masses(values):
            counts = [0] * bins
            for v in values:
                v = min(max(v, edges[0]), edges[-1])
                counts[min(bisect.bisect_right(edges, v) - 1, bins - 1)] += 1
            return np.array(counts) / max(len(values), 1)

        return masses(real_values), masses(gen_values)

    def duration_masses(trajectories):
        counts = np.zeros(slots_per_day)
        for traj in trajectories:
            for length in run_lengths(traj):
                counts[length - 1] += 1
        return counts / counts.sum()

    def daily_locations_masses(trajectories):
        counts = np.zeros(slots_per_day)
        for traj in trajectories:
            counts[len(set(traj.tolist())) - 1] += 1
        return counts / counts.sum()

    def top_visits(trajectories):
        """Visit counts of the top-``top`` visited ids, ties to the lower id."""
        visits = {}
        for traj in trajectories:
            for loc in traj.tolist():
                visits[loc] = visits.get(loc, 0) + 1
        ranked = sorted(visits, key=lambda loc: (-visits[loc], loc))[:top]
        return {loc: visits[loc] for loc in ranked}

    def global_rank_masses(real_trajs, gen_trajs):
        """Both sides' shares over the ids either one ranks, ascending."""
        real_top, gen_top = top_visits(real_trajs), top_visits(gen_trajs)
        union = sorted(set(real_top) | set(gen_top))
        return tuple(np.array([chosen.get(loc, 0) / sum(chosen.values()) for loc in union])
                     for chosen in (real_top, gen_top))

    def individual_rank_masses(trajectories):
        profiles = []
        width = 0
        for traj in trajectories:
            counts = np.sort(np.bincount(traj))[::-1]
            counts = counts[counts > 0][:top].astype(np.float64)
            profiles.append(counts / counts.sum())
            width = max(width, len(counts))
        stacked = np.zeros((len(profiles), width))
        for i, profile in enumerate(profiles):
            stacked[i, :len(profile)] = profile
        mean = stacked.mean(axis=0)
        return mean / mean.sum()

    def padded(p, q):
        """Both rank profiles right-padded with zeros to the longer one."""
        width = max(len(p), len(q))
        return tuple(np.concatenate([m, np.zeros(width - len(m))]) for m in (p, q))

    real_trajs = list(real.trajectories.ids)
    gen_trajs = list(generated)
    coords = real.locations
    slots_per_day = len(real_trajs[0])

    real_steps = step_distances(real_trajs).tolist()
    gen_steps = step_distances(gen_trajs).tolist()
    if not include_zero_steps:
        real_steps = [d for d in real_steps if d > 0]
        gen_steps = [d for d in gen_steps if d > 0]
    pairs = {
        "distance": binned(real_steps, gen_steps),
        "radius": binned(gyration_radii(real_trajs).tolist(), gyration_radii(gen_trajs).tolist()),
        "duration": (duration_masses(real_trajs), duration_masses(gen_trajs)),
        "daily_loc": (daily_locations_masses(real_trajs), daily_locations_masses(gen_trajs)),
        "g_rank": global_rank_masses(real_trajs, gen_trajs),
        "i_rank": padded(individual_rank_masses(real_trajs), individual_rank_masses(gen_trajs)),
    }
    return MetricReport({name: jsd(p, q) for name, (p, q) in pairs.items()}, pairs)


def fill_gaps_looped(slots, fill):
    """Gap filling by a walk over the slots, the reference for
    ``records._fill_gaps``."""
    filled = np.array(slots, dtype=np.int64)
    order = range(len(filled)) if fill == "ffill" else range(len(filled) - 1, -1, -1)
    last = -1
    for i in order:
        if filled[i] >= 0:
            last = filled[i]
        elif last >= 0:
            filled[i] = last
    # The gap before the first observation (after it for bfill) is still open.
    remaining = np.flatnonzero(filled < 0)
    if remaining.size:
        anchor = remaining[-1] + 1 if fill == "ffill" else remaining[0] - 1
        filled[remaining] = filled[anchor]
    return filled


def read_id_map(path):
    """The original-to-dense id mapping of an id-map file."""
    id_map = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                original, dense = line.rstrip("\n").split(",")
                id_map[original] = int(dense)
    return id_map


def read_kernel(path):
    """The transition kernel written by ``synth.write_kernel``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append([float(tok) for tok in line.strip().split(",")])
    return np.array(rows, dtype=np.float64)


def write_kernel_looped(path, kernel):
    """One repr per kernel entry: the reference for ``synth.write_kernel``."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in kernel:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def save_graph_looped(path, graph):
    """One line write per edge: the reference for ``graphs.save_graph``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.channel},{graph.mode},{graph.k}\n")
        for s, d, w in zip(graph.src, graph.dst, graph.weight):
            fh.write(f"{s},{d},{float(w)!r}\n")


def top_k_rows_lexsort(score, k, largest):
    """Per-row top-k columns by one lexsort per row, ties to the lower
    column: the reference for ``graphs._top_k_rows``."""
    ids = np.arange(score.shape[1])
    picks = np.empty((score.shape[0], k), dtype=np.int64)
    for i in range(score.shape[0]):
        key = -score[i] if largest else score[i]
        picks[i] = np.lexsort((ids, key))[:k]
    return picks


def visit_profiles_looped(trajectories, n_locations):
    """Visit profiles by a loop over the rows of a trajectory table: a row's
    observed pairs when it has any, its filled slots otherwise.  The
    reference for ``graphs.visit_profile_matrix``."""
    slots = trajectories.ids.shape[1]
    counts = np.zeros((n_locations, slots))
    for i, ids in enumerate(trajectories.ids):
        mine = trajectories.row == i
        if mine.any():
            for slot, loc in zip(trajectories.slot[mine], trajectories.loc[mine]):
                counts[loc, slot] += 1
        else:
            np.add.at(counts, (ids, np.arange(slots)), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.full_like(counts, 1.0 / slots),
                     where=totals > 0)


MASKED = -1e30


def attention_bias(graph):
    """Dense (N, N) additive attention bias of a location graph: log(weight)
    on a weighted edge (zero weights floored at 1e-30), 0 on a vanilla edge
    and on the diagonal (the uniformly added self-loop), and a large negative
    constant elsewhere, so that non-neighbours get exactly zero attention."""
    n = graph.n_locations
    bias = np.full((n, n), MASKED)
    if graph.mode == "weighted":
        bias[graph.src, graph.dst] = np.log(np.maximum(graph.weight, 1e-30))
    else:
        bias[graph.src, graph.dst] = 0.0
    np.fill_diagonal(bias, 0.0)
    return bias


def graph_attention_dense(h, bias, heads, keep=None):
    """Multi-head graph attention on a dense bias, composed from elementary
    tape ops: the reference for the edge-list ``nn.graph_attention``.
    ``keep`` optionally gives one (N, N) inverted-dropout scale per head,
    applied to that head's attention matrix."""
    from mobsim.nn import add, concat, constant, mul, reshape

    n = h.shape[0]
    bias_t = constant(bias)
    outputs = []
    for i, head in enumerate(heads):
        head_dim = head.weight.shape[1]
        wh = matmul(h, head.weight)
        src_score = matmul(wh, narrow(head.score, 0, 0, head_dim))
        dst_score = matmul(wh, narrow(head.score, 0, head_dim, head_dim))
        logits = add(leakyrelu(add(src_score, reshape(dst_score, (1, n)))), bias_t)
        alpha = softmax(logits)
        if keep is not None:
            alpha = mul(alpha, constant(keep[i]))
        outputs.append(relu(matmul(alpha, wh)))
    return outputs[0] if len(outputs) == 1 else concat(outputs, axis=1)


def read_trajectories_looped(path, n_locations: int, slots: int | None = None) -> Trajectories:
    """Read a trajectory file into a table without observed pairs.

    Every line holds the same number of ids (``slots`` when given, else the
    first line's count), each id lies in [0, ``n_locations``); anything else
    raises :class:`CheckinFormatError` naming the line and field.
    """
    users, days, rows = [], [], []
    for line_no, user, day, slot_text in _user_day_lines(path, "slots"):
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
        # One min/max per line, not a check per id: population files hold
        # hundreds of thousands of ids.
        if min(ids) < 0 or max(ids) >= n_locations:
            raise CheckinFormatError(line_no, "slots", f"location id outside [0, {n_locations})")
        users.append(user)
        days.append(day)
        rows.append(ids)
    return Trajectories(np.array(users, dtype=str), _day_column(days),
                        np.array(rows, dtype=np.int64).reshape(len(rows), slots or 0))


def attach_observed_looped(trajectories: Trajectories, path, n_locations: int) -> Trajectories:
    """Fill the table's observed pairs from an observed sidecar file, in place.

    Every line holds a user, an ISO day and ``slot:loc`` integer pairs, each
    slot in [0, T), T the table's trajectory length, and each location in
    [0, ``n_locations``); anything else raises :class:`CheckinFormatError`
    naming the line and field.  A row takes the pairs of the last line with
    its user and day, and none if no line has them.
    """
    slots = trajectories.ids.shape[1]
    table = {}
    for line_no, user, day, pair_text in _user_day_lines(path, "pairs"):
        table[(user, day)] = [
            (_int_field(line_no, "pairs", slot_text, slots),
             _int_field(line_no, "pairs", loc_text, n_locations))
            for slot_text, _, loc_text in (token.partition(":") for token in pair_text.split())]
    found = [(i, slot, loc)
             for i, key in enumerate(zip(trajectories.users.tolist(), trajectories.days.tolist()))
             for slot, loc in table.get(key, ())]
    trajectories.row, trajectories.slot, trajectories.loc = (
        np.array(found, dtype=np.int64).reshape(-1, 3).T)
    return trajectories


@dataclass(frozen=True)
class VisitRecord:
    """One check-in with a dense location id and a UTC epoch timestamp."""

    user: str
    location: int
    lat: float
    lon: float
    timestamp: int
    utc_offset: int | None = None   # written offset in seconds east of UTC; None if naive


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


def parse_checkins_looped(lines, delimiter: str = ","):
    """Parse raw check-in lines into records with dense location ids.

    Location ids are re-indexed densely in order of first appearance.
    Returns ``(records, id_map)`` where ``id_map`` maps the original location
    token to its dense id.  Blank lines are skipped; any malformed field
    raises :class:`CheckinFormatError` naming the line and field.
    """
    records = []
    id_map: dict[str, int] = {}
    for line_no, parts in _fields(lines, "user,location,lat,lon,timestamp", delimiter):
        user, loc_token, lat_text, lon_text, ts_text = (p.strip() for p in parts)
        if not user:
            raise CheckinFormatError(line_no, "user", "empty user id")
        if not loc_token:
            raise CheckinFormatError(line_no, "location", "empty location id")
        lat = _float_field(line_no, "lat", lat_text, 90.0)
        lon = _float_field(line_no, "lon", lon_text, 180.0)
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


def discretize_looped(records, slots_per_day: int = HOURS_PER_DAY, fill: str = "ffill",
                      utc_offset_hours: int = 0) -> Trajectories:
    """Bucket records into per-user-day trajectories of ``slots_per_day`` slots.

    Each user-day with at least one record yields one row, in (user, day)
    order.  Within an hour bucket the record with the latest timestamp wins
    (input order breaks exact ties).  Gaps are filled from the neighbouring
    observation: ``ffill`` repeats the previous slot and back-fills the
    leading gap from the first observation, ``bfill`` mirrors that in
    reverse.  The raw (slot, location) pairs are kept as the table's observed
    pairs, one per record.  Slots and days follow the record's own offset, or
    ``utc_offset_hours`` for a naive timestamp.
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
    keys = sorted(by_day)
    ids = np.full((len(keys), slots_per_day), -1, dtype=np.int64)
    pairs = []
    for i, key in enumerate(keys):
        entries = sorted(by_day[key], key=lambda e: (e[0], e[1]))
        for _, _, slot, loc in entries:
            ids[i, slot] = loc
            pairs.append((i, slot, loc))
        ids[i] = fill_gaps_looped(ids[i], fill)
    row, slot, loc = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
    return Trajectories(np.array([user for user, _ in keys], dtype=str),
                        _day_column(day for _, day in keys), ids, row, slot, loc)
