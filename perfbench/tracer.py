"""Per-layer spans and counts for one mobsim process, recorded from outside.

``Tracer.install()`` replaces the public functions and methods of every
mobsim layer module with timing wrappers.  A name is patched wherever a
module looks it up: ``training`` imports ``complete_batch`` into its own
namespace, ``generator`` calls ``nn.graph_attention`` through the ``nn``
package, so every mobsim module attribute bound to a wrapped function is
rebound.  Methods are patched on their class.  The program's source is not
touched.

Each call becomes a span with a parent (the innermost open span) and a
command (the ``cli`` command the pipeline is running).  Spans are aggregated
in memory as they close: busy time per name (outermost calls only, so
recursion is not counted twice) and self time per layer.  Counters attached
to a few names record the work a call did; the time spent counting is taken
out of every open span, so it shows as tracing overhead and not as a layer's
work.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Layer name -> module, in report order.
LAYERS = {
    "cli": "mobsim.cli",
    "synth": "mobsim.synth",
    "records": "mobsim.records",
    "graphs": "mobsim.graphs",
    "nn.attention": "mobsim.nn.attention",
    "nn.layers": "mobsim.nn.layers",
    "nn.core": "mobsim.nn.core",
    "nn.optim": "mobsim.nn.optim",
    "generator": "mobsim.generator",
    "discriminator": "mobsim.discriminator",
    "training": "mobsim.training",
    "metrics": "mobsim.metrics",
    "persist": "mobsim.persist",
}

# Names left unwrapped.  `cli.main` and the `cli.cmd_*` functions it
# dispatches to are the command root, timed by the pipeline itself; whatever
# they do outside a wrapped call is uncovered time.  The other two run once
# per trajectory inside a metrics loop, where a span would cost about as much
# as the work it measures; their time stays in the caller's self time.  The
# same holds for the tape's elementary ops: no module-level function of
# nn.core is wrapped, only its classes' methods (`Tensor.backward`,
# `ParamSet.*`).
UNWRAPPED = {"cli.main", "graphs.haversine_km", "metrics.run_lengths"}
COMMAND_ROOTS = "cli.cmd_"
METHODS_ONLY = {"nn.core"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tape_nodes(root) -> int:
    """Distinct tensors reachable through ``_parents``: the nodes one
    ``backward()`` call visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_graph_attention(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "h").shape[0]
    heads = len(_arg(args, kwargs, 2, "heads"))
    # One (N, N) float64 logit matrix per head; computed, not measured.
    counts["nn.attention.graph_attention.bytes_computed"] += n * n * heads * 8


def _count_gru_cell(counts, args, kwargs, result):
    counts["nn.layers.gru_cell.rows"] += _arg(args, kwargs, 0, "x").shape[0]


def _count_backward(counts, args, kwargs, result):
    # Walked once backward() has returned: it leaves ``_parents`` in place, so
    # the count equals a walk made before the call.
    counts["nn.core.tape_nodes"] += _tape_nodes(args[0])


def _count_complete_batch(counts, args, kwargs, result):
    batch, start = np.shape(_arg(args, kwargs, 2, "prefix_ids"))
    length = _arg(args, kwargs, 3, "length")
    counts["generator.complete_batch.rows_sampled"] += batch * (length - start)
    counts["generator.complete_batch.rows_replayed"] += batch * (start - 1)


def _count_classify(counts, args, kwargs, result):
    counts["discriminator.classify.rows"] += result.shape[0]


def _count_evaluate(counts, args, kwargs, result):
    real = _arg(args, kwargs, 0, "real")
    generated = _arg(args, kwargs, 1, "generated")
    generated = getattr(generated, "trajectories", generated)
    counts["metrics.trajectories_scored"] += len(real.trajectories) + len(generated)


def _count_read_rows(counts, args, kwargs, result):
    counts["records.rows"] += len(result)


def _count_write_rows(counts, args, kwargs, result):
    counts["records.rows"] += len(_arg(args, kwargs, 1, "trajectories"))


COUNTERS = {
    "nn.attention.graph_attention": _count_graph_attention,
    "nn.layers.gru_cell": _count_gru_cell,
    "nn.core.backward": _count_backward,
    "generator.complete_batch": _count_complete_batch,
    "discriminator.classify": _count_classify,
    "metrics.evaluate": _count_evaluate,
    "records.read_trajectories": _count_read_rows,
    "records.write_trajectories": _count_write_rows,
}


def _gc_totals():
    stats = gc.get_stats()
    return sum(s["collected"] for s in stats), sum(s["collections"] for s in stats)


def _public_callables(module, layer):
    """(span name, owner, attribute, function) for each public function and
    public method defined in ``module``."""
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            for method, fn in vars(value).items():
                if not method.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{method}", value, method, fn
        elif inspect.isfunction(value) and layer not in METHODS_ONLY:
            if not inspect.isgeneratorfunction(inspect.unwrap(value)):
                yield f"{layer}.{attr}", module, attr, value


class Tracer:
    def __init__(self):
        self.command = None
        self.busy = Counter()            # span name -> seconds inside outermost calls
        self.calls = defaultdict(Counter)   # command -> span name -> calls
        self.counts = defaultdict(Counter)  # command -> counter name -> count
        self.layer_self = Counter()      # layer -> seconds of self time
        self.commands = []               # per command: wall time and time inside spans
        self._stack = []                 # open spans: [start, child seconds]
        self._depth = Counter()          # span name -> open calls, shared by same-named methods

    def install(self):
        """Wrap every public layer function and method."""
        for module_name in LAYERS.values():
            importlib.import_module(module_name)
        mobsim_modules = [m for name, m in list(sys.modules.items())
                          if name == "mobsim" or name.startswith("mobsim.")]
        for layer, module_name in LAYERS.items():
            for name, owner, attr, fn in list(_public_callables(sys.modules[module_name], layer)):
                if name in UNWRAPPED or name.startswith(COMMAND_ROOTS):
                    continue
                traced = self._wrap(name, layer, fn)
                setattr(owner, attr, traced)
                if owner is sys.modules[module_name]:
                    for module in mobsim_modules:
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                setattr(module, key, traced)

    def _wrap(self, name, layer, fn):
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                self._close(name, layer, frame, end, depth[name] == 0)
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        return traced

    def _close(self, name, layer, frame, end, outermost):
        duration = end - frame[0]
        self_s = duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.layer_self[layer] += self_s
        self.calls[self.command][name] += 1
        if outermost:
            self.busy[name] += duration

    def _count(self, counter, args, kwargs, result):
        start = time.perf_counter()
        counter(self.counts[self.command], args, kwargs, result)
        spent = time.perf_counter() - start
        for frame in self._stack:
            frame[0] += spent

    @contextlib.contextmanager
    def span_command(self, command):
        """Root span of one CLI command; records its span coverage and the
        cyclic collector's work during it.  Coverage is the share of the
        command's wall time spent inside wrapped calls; the root's own time
        (argument parsing and the body of the ``cli.cmd_*`` function) is
        uncovered."""
        if self._stack:
            raise RuntimeError("a command span must be the outermost span")
        self.command = command
        collected, collections = _gc_totals()
        root = [time.perf_counter(), 0.0]
        self._stack.append(root)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            wall = end - root[0]
            after_collected, after_collections = _gc_totals()
            self.counts[command]["nn.core.gc_collected"] += after_collected - collected
            self.counts[command]["nn.core.gc_collections"] += after_collections - collections
            self.commands.append({"command": command, "wall_s": wall, "covered_s": root[1]})
            self.command = None

    def summary(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "busy": dict(self.busy),
            "calls": {c: dict(v) for c, v in self.calls.items()},
            "counts": {c: dict(v) for c, v in self.counts.items()},
            "layer_self": dict(self.layer_self),
            "commands": self.commands,
        }
