"""Deterministic random-number management.

The paper's simulations are stochastic in three places: the Nature Agent's
pairwise-comparison draws, the mutation draws, and (for mixed strategies or
noisy play) the per-round move draws.  To make runs reproducible — and to
make the serial and parallel executions produce *bit-identical* population
trajectories — every consumer of randomness gets its own named stream
derived from a single root seed via :class:`numpy.random.SeedSequence`.

Streams are addressed by a hierarchical key such as ``("nature",)`` or
``("rank", 7, "games")``.  The same key always yields the same stream for a
given root seed, regardless of creation order, because the key is hashed
into ``spawn_key`` material rather than relying on sequential ``spawn()``
calls.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["StreamFactory", "stream_for", "derive_seed"]

_U32_MASK = 0xFFFFFFFF


def _key_words(key: Iterable[object]) -> tuple[int, ...]:
    """Hash a hierarchical key into a tuple of uint32 words.

    The textual form of each component feeds a BLAKE2 digest, so distinct
    keys get independent entropy and the mapping is stable across runs and
    Python versions (no reliance on ``hash()``).
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in key:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")  # separator so ("ab",) != ("a","b")
    raw = digest.digest()
    return tuple(
        int.from_bytes(raw[i : i + 4], "little") & _U32_MASK for i in range(0, len(raw), 4)
    )


def derive_seed(root_seed: int, *key: object) -> np.random.SeedSequence:
    """Return the :class:`~numpy.random.SeedSequence` for ``key`` under ``root_seed``."""
    return np.random.SeedSequence(entropy=root_seed, spawn_key=_key_words(key))


def stream_for(root_seed: int, *key: object) -> np.random.Generator:
    """Return a PCG64 generator for the named stream ``key`` under ``root_seed``."""
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, *key)))


class StreamFactory:
    """Factory of named, independent random streams under one root seed.

    Parameters
    ----------
    root_seed:
        Integer seed controlling the entire simulation.

    Examples
    --------
    >>> f = StreamFactory(42)
    >>> nature = f.stream("nature")
    >>> games0 = f.stream("rank", 0, "games")
    >>> bool((StreamFactory(42).stream("nature").integers(0, 1 << 30, 8)
    ...       == StreamFactory(42).stream("nature").integers(0, 1 << 30, 8)).all())
    True
    """

    __slots__ = ("root_seed", "_cache")

    def __init__(self, root_seed: int) -> None:
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = int(root_seed)
        self._cache: dict[tuple[object, ...], np.random.Generator] = {}

    def stream(self, *key: object) -> np.random.Generator:
        """Return the generator for ``key``, creating and caching it on first use.

        Repeated calls with the same key return the *same* generator object,
        so consumers share position in the stream — which is what you want
        when e.g. the Nature Agent draws repeatedly across generations.
        """
        gen = self._cache.get(key)
        if gen is None:
            gen = stream_for(self.root_seed, *key)
            self._cache[key] = gen
        return gen

    def fresh(self, *key: object) -> np.random.Generator:
        """Return a brand-new generator for ``key``, rewound to the stream start."""
        return stream_for(self.root_seed, *key)

    def __repr__(self) -> str:
        return f"StreamFactory(root_seed={self.root_seed}, cached={len(self._cache)})"
