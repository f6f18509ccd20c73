"""Saving and restoring trained models.

A model is a parameter checkpoint (see :mod:`mobsim.nn.checkpoint`) plus a
``.meta`` sidecar of key=value lines carrying the architecture config and,
for the generator, the trajectory length it was trained on and the
training-split seed distribution needed to start new trajectories.  Floats
are written with repr and round-trip exactly.
"""

from __future__ import annotations

import numpy as np

from .discriminator import Discriminator, DiscriminatorConfig
from .generator import Generator, GeneratorConfig
from .nn import load_checkpoint, save_checkpoint


def _write_meta(path, fields: dict):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in fields.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                text = ",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                                else str(v) for v in value)
            elif isinstance(value, (float, np.floating)):
                text = repr(float(value))
            else:
                text = str(value)
            fh.write(f"{key}={text}\n")


def read_meta(path) -> dict:
    """The key=value fields of a ``.meta`` file, values as strings."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                fields[key] = value
    return fields


def save_generator(prefix, gen: Generator, seed_dist: np.ndarray, slots: int):
    """Write ``<prefix>.ckpt`` and ``<prefix>.meta``; ``slots`` is the
    trajectory length the generator was trained on."""
    save_checkpoint(f"{prefix}.ckpt", gen.params)
    c = gen.config
    _write_meta(f"{prefix}.meta", {
        "kind": "generator",
        "n_locations": c.n_locations,
        "embed_dim": c.embed_dim,
        "hidden_dim": c.hidden_dim,
        "layers": c.layers,
        "heads": c.heads,
        "channels": list(c.channels),
        "dropout": c.dropout,
        "beta": c.beta,
        "dwell": int(c.dwell),
        "attn_slope": c.attn_slope,
        "slots": slots,
        "seed_distribution": seed_dist,
    })


def load_generator(prefix, graphs: dict):
    """Rebuild a generator from ``<prefix>.ckpt`` / ``<prefix>.meta``.

    ``graphs`` must contain the channels named in the meta file.  Returns
    ``(generator, seed_distribution)``.
    """
    meta = read_meta(f"{prefix}.meta")
    if meta.get("kind") != "generator":
        raise ValueError(f"{prefix}.meta does not describe a generator")
    config = GeneratorConfig(
        n_locations=int(meta["n_locations"]),
        embed_dim=int(meta["embed_dim"]),
        hidden_dim=int(meta["hidden_dim"]),
        layers=int(meta["layers"]),
        heads=int(meta["heads"]),
        channels=tuple(meta["channels"].split(",")),
        dropout=float(meta["dropout"]),
        beta=float(meta["beta"]),
        dwell=bool(int(meta["dwell"])),
        attn_slope=float(meta["attn_slope"]),
    )
    gen = Generator(config, graphs)
    gen.params.load_values(load_checkpoint(f"{prefix}.ckpt"))
    seed_dist = np.array([float(v) for v in meta["seed_distribution"].split(",")])
    return gen, seed_dist


def save_discriminator(prefix, disc: Discriminator):
    save_checkpoint(f"{prefix}.ckpt", disc.params)
    c = disc.config
    _write_meta(f"{prefix}.meta", {
        "kind": "discriminator",
        "n_locations": c.n_locations,
        "embed_dim": c.embed_dim,
        "hidden_dim": c.hidden_dim,
    })


def load_discriminator(prefix) -> Discriminator:
    meta = read_meta(f"{prefix}.meta")
    if meta.get("kind") != "discriminator":
        raise ValueError(f"{prefix}.meta does not describe a discriminator")
    config = DiscriminatorConfig(
        n_locations=int(meta["n_locations"]),
        embed_dim=int(meta["embed_dim"]),
        hidden_dim=int(meta["hidden_dim"]),
    )
    disc = Discriminator(config)
    disc.params.load_values(load_checkpoint(f"{prefix}.ckpt"))
    return disc
