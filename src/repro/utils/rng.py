"""Reproducible random-number stream management.

Discrete-event models are only debuggable when every stochastic component
draws from its own named stream derived deterministically from a single
master seed.  ``RandomStreams`` provides that: the same master seed always
yields the same per-component generators, regardless of the order in which
components are created.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams", "RawDraws", "spawn_rng", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses SHA-256 so that similar names ("src0", "src1") map to unrelated
    seeds, unlike simple additive schemes.  This is also the primitive
    behind :meth:`RandomStreams.fork`: forked namespaces hash under a
    ``"fork:"`` prefix, so a fork's streams can never collide with the
    parent's plain :meth:`RandomStreams.get` streams — the property
    :mod:`repro.parallel` relies on when deriving per-replica seeds.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


#: Backwards-compatible private alias (pre-1.3 internal name).
_seed_for = derive_seed


def spawn_rng(master_seed: int, name: str) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for stream ``name``."""
    return np.random.default_rng(_seed_for(master_seed, name))


_RAW_CHUNK = 1024
_TWO_TO_MINUS_53 = 2.0 ** -53


class RawDraws:
    """Scalar draws read straight off a generator's raw 64-bit stream.

    ``below(n)`` returns what ``int(rng.integers(0, n))`` would return
    and ``random()`` what ``rng.random()`` would, value for value and in
    the same order, but without numpy's per-call argument handling,
    which costs more than the draw itself in a tight Python loop.
    ``below`` is numpy's buffered Lemire algorithm on the 32-bit halves
    of the raw words, starting from the generator's pending half;
    ``random`` is ``(word >> 11) * 2**-53``.  Both hold for the PCG64
    generators that :func:`spawn_rng` hands out.

    Raw words are fetched ``_RAW_CHUNK`` at a time, so the generator
    ends up to one chunk past the last value drawn.  Use this only in
    a loop that owns ``rng`` and never draws from it again.

    Examples
    --------
    >>> import numpy as np
    >>> draws = RawDraws(np.random.default_rng(5))
    >>> twin = np.random.default_rng(5)
    >>> [draws.below(20), draws.random()] == [int(twin.integers(0, 20)),
    ...                                       twin.random()]
    True
    """

    __slots__ = ("_raw", "_words", "_pos", "_half")

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        state = bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                f"RawDraws needs a PCG64 generator, got "
                f"{state['bit_generator']}"
            )
        self._raw = bit_generator.random_raw
        self._words: list[int] = []
        self._pos = 0
        # numpy's pending upper half of a word whose lower half an
        # earlier 32-bit draw already used.
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        pos = self._pos
        words = self._words
        if pos == len(words):
            words = self._words = self._raw(_RAW_CHUNK).tolist()
            pos = 0
        self._pos = pos + 1
        return words[pos]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def below(self, n: int) -> int:
        """``int(rng.integers(0, n))`` for ``1 <= n < 2**32``."""
        if not 1 <= n < 1 << 32:
            raise ValueError(f"n must satisfy 1 <= n < 2**32, got {n}")
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def random(self) -> float:
        """``rng.random()``: a float64 uniform on ``[0, 1)``."""
        return (self._word() >> 11) * _TWO_TO_MINUS_53



class RandomStreams:
    """A factory of named, independent random streams.

    Parameters
    ----------
    master_seed:
        Seed from which every named stream is derived.  Two
        ``RandomStreams`` objects with the same master seed hand out
        identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> a = streams.get("arrivals")
    >>> b = streams.get("service")
    >>> a is streams.get("arrivals")
    True
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for stream ``name``."""
        if name not in self._streams:
            self._streams[name] = spawn_rng(self.master_seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """Return a child ``RandomStreams`` namespaced under ``name``.

        Useful when a subsystem wants to manage its own streams without
        risking name collisions with its parent.
        """
        return RandomStreams(_seed_for(self.master_seed, f"fork:{name}"))

    def __repr__(self) -> str:
        return (
            f"RandomStreams(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
