"""Seed discipline: one master seed, one named stream per operation.

Every random draw in the package comes from a PCG64 generator seeded with
``child_seed(master, label)``, where the label names the consuming
operation (e.g. ``"sim.points"``, ``"split"``, ``"train.mlp"``). Streams
are derived by hashing, so adding a new stage never shifts the draws of an
existing one, and two stages can never interleave reads from the same
stream.

Labels currently in use:

    sim.coefficients   noise coefficients of the simulated data
    sim.points         uniform sample points
    sim.labels         class-label draws
    split              train/test shuffling
    train.mlp          weight init + minibatch shuffling
    shap.background    background subsampling for kernel explanations
    shap.kernel        coalition sampling
"""

from __future__ import annotations  # the annotations name numpy.random; only a draw loads it

import hashlib

import numpy as np


def child_seed(master: int, label: str) -> int:
    """Derive a 64-bit seed for a named stream from the master seed."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def generator(master: int, label: str) -> np.random.Generator:
    """A fresh PCG64 generator for the stream named ``label``."""
    return np.random.Generator(np.random.PCG64(child_seed(master, label)))
