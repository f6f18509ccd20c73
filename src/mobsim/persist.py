"""Saving and restoring the trained generator, the one model a run keeps.

A model is a parameter checkpoint (see :mod:`mobsim.nn.checkpoint`) plus a
``.meta`` sidecar of key=value lines: ``kind=generator``, one per field of
its config dataclass, the trajectory length it was trained on and the
training-split seed distribution needed to start new trajectories.
Floats are written with repr and round-trip exactly, bools as 0/1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .generator import ConfigError, Generator, GeneratorConfig
from .nn import load_checkpoint, save_checkpoint
from .records import (CheckinFormatError, _bool_field, _fields, _float_field, _int_field,
                      _tuple_field)

# The reader of a config dataclass field's text, by the field's annotation:
# one for flags, ``--config`` lines and meta lines alike.
READERS = {"int": _int_field, "float": _float_field, "bool": _bool_field,
           "tuple": _tuple_field, "str": lambda line_no, name, text: text}


def _write_meta(path, fields: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in fields.items():
            items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
            text = ",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                            else str(int(v)) if isinstance(v, bool) else str(v) for v in items)
            fh.write(f"{key}={text}\n")


class CheckpointError(ValueError):
    """A checkpoint file that is truncated or does not fit the model."""


class Meta(dict):
    """The ``key -> value`` strings of a key=value file, with each key's
    line number in ``lines``."""

    def __init__(self):
        super().__init__()
        self.lines = {}

    def field(self, key: str, check=None, *limit):
        """The value of a required ``key``, passed through ``check`` (a
        records field check such as ``_int_field``) when one is given.  A
        missing key or a bad value raises :class:`CheckinFormatError`."""
        if key not in self:
            raise CheckinFormatError(None, key, "missing")
        return self[key] if check is None else check(self.lines[key], key, self[key], *limit)


def read_meta(path) -> Meta:
    """The fields of a file of ``key=value`` lines, such as a ``.meta``
    sidecar or a ``--config`` file; a value keeps any further ``=``.  Blank
    lines and ``#`` comments are skipped; any other line without ``=``
    raises :class:`CheckinFormatError` naming the line."""
    meta = Meta()
    with open(path, encoding="utf-8") as fh:
        uncommented = ("" if line.lstrip().startswith("#") else line for line in fh)
        for line_no, (key, value) in _fields(uncommented, "key,value", "=", rest=True):
            meta[key.strip()] = value.strip()
            meta.lines[key.strip()] = line_no
    return meta


def read_model_meta(path) -> Meta:
    """The fields of a generator's ``.meta`` sidecar; ``kind`` must be ``generator``."""
    meta = read_meta(path)
    if meta.field("kind") != "generator":
        raise CheckinFormatError(meta.lines["kind"], "kind",
                                 f"expected 'generator', got {meta['kind']!r}")
    return meta


def _distribution(line_no: int, name: str, text: str, size: int) -> np.ndarray:
    """``text`` as ``size`` comma-separated finite, non-negative floats that
    sum to 1 within 1e-9."""
    dist = np.array([_float_field(line_no, name, value) for value in text.split(",")])
    if len(dist) != size or (dist < 0).any() or abs(dist.sum() - 1.0) > 1e-9:
        raise CheckinFormatError(line_no, name, f"{len(dist)} entries summing to "
                                 f"{float(dist.sum())!r}; expected {size} non-negative "
                                 "ones summing to 1")
    return dist


def save_generator(prefix, gen: Generator, seed_dist: np.ndarray, slots: int):
    """Write ``<prefix>.ckpt`` and ``<prefix>.meta``; ``slots`` is the
    trajectory length the generator was trained on."""
    save_checkpoint(f"{prefix}.ckpt", gen.params)
    _write_meta(f"{prefix}.meta", {"kind": "generator", **dataclasses.asdict(gen.config),
                                   "slots": slots, "seed_distribution": seed_dist})


def load_generator(prefix, graphs: dict, meta: Meta):
    """Rebuild a generator from ``<prefix>.ckpt`` and ``meta``, the fields of
    ``<prefix>.meta`` as :func:`read_model_meta` reads them; ``graphs`` must
    contain the channels the meta names.  Returns ``(generator,
    seed_distribution)``.  Every meta field is required: a missing or
    malformed one, one that builds no model with ``graphs``, or a width that
    the checkpoint's tensors do not have raises :class:`CheckinFormatError`
    naming it, and a checkpoint that does not fit raises
    :class:`CheckpointError`.  The widths are checked before the generator
    is built, so a meta cannot make it allocate more than the file holds.
    """
    path = f"{prefix}.ckpt"
    try:
        params = load_checkpoint(path)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    try:
        config = GeneratorConfig(**{f.name: meta.field(f.name, READERS[f.type])
                                    for f in dataclasses.fields(GeneratorConfig)})
        seed_dist = meta.field("seed_distribution", _distribution, config.n_locations)
        # (field, tensor, axis): the meta field that sizes that axis of the tensor.
        for field, name, axis in (("embed_dim", "embed", 1), ("hidden_dim", "explore/weight", 0)):
            if name not in params.names():
                raise CheckpointError(f"{path}: no tensor {name!r}")
            size = getattr(config, field)
            if params[name].shape[axis:axis + 1] != (size,):
                raise ConfigError(field, f"{field}={size} but tensor {name!r} of {path} "
                                  f"has shape {params[name].shape}")
        gen = Generator(config, graphs)
    except ConfigError as exc:
        raise CheckinFormatError(meta.lines[exc.field], exc.field, str(exc)) from None
    try:
        gen.params.load_values(params)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return gen, seed_dist
