"""Reproducible named random streams.

Large simulations need *stream separation*: the churn generator, the
topology generator, and the protocol's randomized choices must each draw
from an independent stream so that changing one component (e.g. adding a
draw in the failure detector) does not perturb every other component's
sequence.  This is the standard variance-reduction / reproducibility idiom
from parallel discrete-event simulation.

:class:`RandomStreams` derives one :class:`numpy.random.Generator` per
*name* from a master seed using ``numpy.random.SeedSequence.spawn``-style
keying: the child seed is ``SeedSequence((master, hash(name)))``, so the
mapping name → stream is stable across runs and across machines.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional

import numpy as np


def _stable_key(name: str) -> int:
    """A platform-stable 32-bit key for a stream name (``hash()`` is salted
    per-process, so it cannot be used)."""
    return zlib.crc32(name.encode("utf-8"))


def _spawn(master_seed: int, name_key: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence((master_seed, name_key, index))
    return np.random.Generator(np.random.PCG64(seq))


class SubStream:
    """An indexed sub-stream whose generator is spawned at its first draw.

    A sub-stream is a pure function of the master seed, the name and the
    index, so deferring the spawn changes no draw; a holder that never
    draws never pays for a generator (≈ 0.8 KB with its bit generator and
    seed sequence).  Attribute reads other than the four slots below go
    to the generator, so a :class:`SubStream` stands wherever a
    ``Generator`` is drawn from.
    """

    __slots__ = ("_master_seed", "_name_key", "_index", "_generator")

    def __init__(self, master_seed: int, name_key: int, index: int):
        self._master_seed = master_seed
        self._name_key = name_key
        self._index = index
        self._generator: Optional[np.random.Generator] = None

    def __getattr__(self, attr: str) -> Any:
        generator = self._generator
        if generator is None:
            generator = self._generator = _spawn(
                self._master_seed, self._name_key, self._index
            )
        return getattr(generator, attr)


class RandomStreams:
    """A factory of independent, named, reproducible random generators."""

    def __init__(self, master_seed: int = 0):
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (its state advances as it is used).
        """
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence((self.master_seed, _stable_key(name)))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *freshly re-seeded* generator for ``name`` (state reset
        to the beginning of the stream)."""
        seq = np.random.SeedSequence((self.master_seed, _stable_key(name)))
        gen = np.random.Generator(np.random.PCG64(seq))
        self._streams[name] = gen
        return gen

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """An indexed sub-stream (e.g. one per node) under ``name``."""
        return _spawn(self.master_seed, _stable_key(name), int(index))

    def substream(self, name: str, index: int) -> "SubStream":
        """``spawn(name, index)``, deferred to the first draw."""
        return SubStream(self.master_seed, _stable_key(name), int(index))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(master_seed={self.master_seed}, streams={sorted(self._streams)})"
