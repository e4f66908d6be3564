"""Bit-packed storage for pure strategy tables.

A pure memory-*n* strategy is a table of ``4**n`` moves, each 0 (C) or 1
(D).  For memory-six that is 4,096 moves; stored one-byte-per-move it costs
4 KiB, bit-packed it costs 512 bytes — an 8x saving that matters because
every rank keeps the strategy of *every* SSet in the population (the paper's
per-node memory budget is what capped it at memory-six on Blue Gene/L's
512 MB nodes).  The packed form is also what travels over the (virtual) MPI
wire on strategy updates and mutations.

Packing uses little-endian bit order: table entry ``i`` lives in bit
``i % 64`` of 64-bit word ``i // 64``, so packed words compare equal iff the
tables are equal, and word-wise XOR + popcount gives Hamming distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import StrategyError

__all__ = [
    "words_needed",
    "pack_table",
    "unpack_table",
    "get_move",
    "set_move",
    "count_defections",
    "hamming",
    "random_packed",
    "packed_nbytes",
    "to_hex",
    "from_hex",
    "PackedMatrix",
]


def words_needed(n_states: int) -> int:
    """Number of 64-bit words needed to hold ``n_states`` one-bit moves."""
    if n_states <= 0:
        raise StrategyError(f"n_states must be positive, got {n_states}")
    return (n_states + 63) // 64


def packed_nbytes(n_states: int) -> int:
    """Bytes used by the packed representation of an ``n_states`` table."""
    return 8 * words_needed(n_states)


def pack_table(table: np.ndarray) -> np.ndarray:
    """Pack a 0/1 move table into a little-endian uint64 word array.

    Parameters
    ----------
    table:
        1-D array of 0/1 values (any integer or bool dtype).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of length ``words_needed(len(table))``; bits beyond
        ``len(table)`` are zero.
    """
    arr = np.asarray(table)
    if arr.ndim != 1:
        raise StrategyError(f"strategy table must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise StrategyError("strategy table must be non-empty")
    as_u8 = arr.astype(np.uint8, copy=False)
    if not np.all((as_u8 == 0) | (as_u8 == 1)) or (
        np.issubdtype(arr.dtype, np.floating) and not np.array_equal(arr, as_u8)
    ):
        raise StrategyError("pure strategy table entries must all be 0 or 1")
    nwords = words_needed(arr.size)
    packed_bytes = np.packbits(as_u8, bitorder="little")
    padded = np.zeros(8 * nwords, dtype=np.uint8)
    padded[: packed_bytes.size] = packed_bytes
    return padded.view("<u8").copy()


def unpack_table(words: np.ndarray, n_states: int) -> np.ndarray:
    """Inverse of :func:`pack_table`: recover the uint8 0/1 move table."""
    w = np.ascontiguousarray(words, dtype=np.uint64)
    if w.ndim != 1:
        raise StrategyError(f"packed words must be 1-D, got shape {w.shape}")
    if w.size != words_needed(n_states):
        raise StrategyError(
            f"packed length {w.size} does not match n_states={n_states}"
            f" (expected {words_needed(n_states)} words)"
        )
    bits = np.unpackbits(w.view(np.uint8), bitorder="little")
    return bits[:n_states].copy()


def get_move(words: np.ndarray, state: int) -> int:
    """Read the move for ``state`` from a packed table."""
    return int((int(words[state >> 6]) >> (state & 63)) & 1)


def set_move(words: np.ndarray, state: int, move: int) -> None:
    """Write ``move`` (0/1) for ``state`` into a packed table, in place."""
    if move not in (0, 1):
        raise StrategyError(f"move must be 0 or 1, got {move}")
    word = int(words[state >> 6])
    bit = 1 << (state & 63)
    words[state >> 6] = np.uint64((word | bit) if move else (word & ~bit))


def count_defections(words: np.ndarray, n_states: int) -> int:
    """Number of states whose prescribed move is D (bit set)."""
    w = np.asarray(words, dtype=np.uint64)
    bits = np.unpackbits(w.view(np.uint8), bitorder="little")[:n_states]
    return int(bits.sum())


def hamming(a: np.ndarray, b: np.ndarray, n_states: int) -> int:
    """Hamming distance between two packed tables of the same state count."""
    wa = np.asarray(a, dtype=np.uint64)
    wb = np.asarray(b, dtype=np.uint64)
    if wa.shape != wb.shape:
        raise StrategyError(f"packed shapes differ: {wa.shape} vs {wb.shape}")
    x = np.bitwise_xor(wa, wb)
    bits = np.unpackbits(x.view(np.uint8), bitorder="little")[:n_states]
    return int(bits.sum())


def random_packed(n_states: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random packed pure strategy over ``n_states`` states.

    Bits beyond ``n_states`` are cleared so equal strategies always compare
    equal word-for-word.
    """
    nwords = words_needed(n_states)
    words = rng.integers(0, np.iinfo(np.uint64).max, size=nwords, dtype=np.uint64, endpoint=True)
    excess = 64 * nwords - n_states
    if excess:
        words[-1] &= np.uint64((1 << (64 - excess)) - 1)
    return words


def to_hex(words: np.ndarray) -> str:
    """Render a packed table as a hex string (word 0 first, LSB-first bits)."""
    return "".join(f"{int(w):016x}" for w in np.asarray(words, dtype=np.uint64))


def from_hex(text: str) -> np.ndarray:
    """Parse the output of :func:`to_hex` back into a packed word array."""
    if len(text) % 16 != 0 or not text:
        raise StrategyError(f"hex strategy text length must be a multiple of 16, got {len(text)}")
    vals = [int(text[i : i + 16], 16) for i in range(0, len(text), 16)]
    return np.array(vals, dtype=np.uint64)


@dataclass(frozen=True)
class PackedMatrix:
    """A whole pure strategy matrix at rest: one bit per move, 1/8 the bytes.

    What a finished run's result holds instead of the uint8 matrix (256 KiB
    at 64 memory-six SSets), so a caller that keeps many results — a sweep,
    the service, the benchmark's oracle check — keeps 32 KiB of each.
    """

    bits: np.ndarray
    shape: tuple[int, ...]

    @classmethod
    def pack(cls, matrix: np.ndarray) -> "PackedMatrix":
        """Pack a 0/1 uint8 matrix of any shape."""
        return cls(np.packbits(matrix, bitorder="little"), matrix.shape)

    def unpack(self) -> np.ndarray:
        """The uint8 matrix :meth:`pack` was given (a fresh array)."""
        flat = np.unpackbits(self.bits, count=math.prod(self.shape), bitorder="little")
        return flat.reshape(self.shape)
