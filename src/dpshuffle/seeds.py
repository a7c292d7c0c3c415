"""Deterministic derivation of random generators from a single root seed.

Every random draw in the library comes from a generator derived here: the
root seed plus a short path of labels and indices is hashed into entropy
for an independent stream.  Two consequences matter for the rest of the
code:

* reruns with the same root seed reproduce every draw bit for bit, and
* streams are independent of scheduling, so work can be reordered or
  parallelised without changing results.

``derive_rng`` defines each stream.  A shuffle needs one generator per
stage and attribute group, so ``_permutations`` derives all of a
shuffle's stage generators in one batch: it hashes every path, runs
numpy's ``SeedSequence`` mixing and PCG64 seeding over all of them at
once, and steps one reused generator through the resulting states.  Each
is equal, draw for draw, to ``derive_rng``'s for the same path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from typing import Iterable, Iterator, Sequence

import numpy as np

PathPart = int | str

# numpy's SeedSequence hash constants (pool of four uint32 words) and
# PCG64's 128-bit LCG multiplier, for deriving many generators at once.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _canonical_payload(root: int, path: tuple[PathPart, ...]) -> bytes:
    for part in path:
        if not isinstance(part, (int, str)) or isinstance(part, bool):
            raise TypeError(f"seed path parts must be int or str, got {part!r}")
    if not isinstance(root, int) or isinstance(root, bool):
        raise TypeError(f"root seed must be an int, got {root!r}")
    return json.dumps([root, *path], separators=(",", ":")).encode("utf-8")


def _digest(root: int, path: tuple[PathPart, ...]) -> bytes:
    return hashlib.sha256(_canonical_payload(root, path)).digest()


def _entropy_words(digest: bytes) -> np.ndarray:
    """The uint32 words ``SeedSequence(int.from_bytes(digest, "big"))`` uses.

    numpy splits an int entropy into 32-bit words, least significant
    first, and drops the high-order zero words (keeping one word for 0).
    Handing it those words directly gives the same pool without the
    slow split of a 256-bit int.
    """
    words = struct.unpack(">8I", digest)[::-1]
    size = len(words)
    while size > 1 and not words[size - 1]:
        size -= 1
    return np.array(words[:size], dtype=np.uint32)


def derive_entropy(root: int, *path: PathPart) -> int:
    """Hash (root, *path) into a 256-bit integer."""
    return int.from_bytes(_digest(root, path), "big")


def derive_seed(root: int, *path: PathPart) -> int:
    """Derive a compact 64-bit child seed, suitable as a new root."""
    return derive_entropy(root, *path) >> 192


def derive_rng(root: int, *path: PathPart) -> np.random.Generator:
    """Return an independent generator for the stream named by ``path``."""
    entropy = _entropy_words(_digest(root, path))
    return np.random.default_rng(np.random.SeedSequence(entropy))


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` successive SeedSequence hash constants from ``init``.

    Built once per process for each argument triple; the array is shared,
    so it is read-only.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    out = np.array(consts, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _pools(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row[:length]).pool`` for every row of ``words``.

    ``words`` is an ``(m, 8)`` uint32 array, least significant word
    first; a row's length is its highest non-zero word plus one (one for
    an all-zero row), which is how numpy trims an int entropy.  Returns
    the ``(m, 4)`` uint32 pools, mixed exactly as numpy mixes one.
    """
    width = words.shape[1]
    nonzero = words != 0
    lengths = np.where(
        nonzero.any(axis=1), width - np.argmax(nonzero[:, ::-1], axis=1), 1
    )
    # numpy's k-th hashmix call xors with consts[k] and multiplies by
    # consts[k + 1]: 4 calls fill the pool, 12 mix it, and each word past
    # the pool takes 4 more.
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * width)
    calls = 0

    def hashmix(value: np.ndarray, count: int) -> np.ndarray:
        """``count`` successive hashmix calls, one per column of the result."""
        nonlocal calls
        xor = consts[calls : calls + count]
        mult = consts[calls + 1 : calls + count + 1]
        calls += count
        value = (value ^ xor) * mult
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    with np.errstate(over="ignore"):
        # A row shorter than the pool has zeros past its length, and
        # numpy fills the rest of the pool with hashmix(0): the same.
        pool = hashmix(words[:, :_POOL_SIZE], _POOL_SIZE)
        for src in range(_POOL_SIZE):
            dst = [i for i in range(_POOL_SIZE) if i != src]
            pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], len(dst)))
        # Words past the pool are mixed in only where a row has them.
        for src in range(_POOL_SIZE, width):
            mixed = mix(pool, hashmix(words[:, src, None], _POOL_SIZE))
            pool = np.where((lengths > src)[:, None], mixed, pool)
    return pool


def _generate_states(pools: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of the SeedSequences with ``pools``."""
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    with np.errstate(over="ignore"):
        # Eight uint32 words, cycling through the pool twice.
        words = (np.tile(pools, 2) ^ consts[:-1]) * consts[1:]
        words ^= words >> np.uint32(16)
    # numpy reads each pair of words as one little-endian uint64.
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_states(
    root: int, prefix: tuple[PathPart, ...], suffixes: Iterable[Sequence[int]]
) -> Iterator[dict]:
    """``derive_rng(root, *prefix, *suffix).bit_generator.state`` per suffix.

    Every path is hashed up front and seeded in one vectorized pass; the
    suffix parts must be ints, so each payload is the one
    ``_canonical_payload`` builds.
    """
    head = _canonical_payload(root, prefix)[:-1]
    digests = b"".join(
        hashlib.sha256(
            head + (b",%d" * len(suffix)) % tuple(suffix) + b"]"
        ).digest()
        for suffix in suffixes
    )
    words = np.frombuffer(digests, ">u4").reshape(-1, 8)[:, ::-1]
    for s_high, s_low, i_high, i_low in _generate_states(_pools(words)).tolist():
        # PCG64's srandom: inc from the second pair, then two LCG steps.
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        state = ((inc + (s_high << 64 | s_low)) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def _permutations(
    root: int,
    prefix: tuple[PathPart, ...],
    suffixes: Iterable[Sequence[int]],
    sizes: Iterable[int],
) -> Iterator[np.ndarray]:
    """``derive_rng(root, *prefix, *suffix).permutation(size)`` per pair.

    The generators are derived in one batch (see ``_pcg64_states``) and
    the permutations drawn lazily, one at a time, through one reused
    generator, so they are never all held together.
    """
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for state, size in zip(_pcg64_states(root, prefix, suffixes), sizes):
        bit_generator.state = state
        yield generator.permutation(size)
