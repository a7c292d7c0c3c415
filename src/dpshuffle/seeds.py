"""Deterministic derivation of random generators from a single root seed.

Every random draw in the library comes from a generator derived here: the
root seed plus a short path of labels and indices is hashed into entropy
for an independent stream.  Two consequences matter for the rest of the
code:

* reruns with the same root seed reproduce every draw bit for bit, and
* streams are independent of scheduling, so work can be reordered or
  parallelised without changing results.

``derive_rng`` defines each stream.  A shuffle draws one permutation per
stage and shuffler, so it seeds them all in one pass: ``_pcg64_seeds``
runs numpy's ``SeedSequence`` mixing and PCG64's seeding over every
path's digest at once, in uint64 arithmetic.  ``_permutation_rows`` then
draws the permutations, each equal, draw for draw, to
``derive_rng(path).permutation(size)``:

* many short ones (at least 8 streams per permutation entry, at most
  100 entries each) go through a vectorized kernel that steps every stream
  at once.  It mirrors numpy's internals: PCG64 is O'Neill's XSL-RR
  output of a 128-bit LCG, and ``Generator.shuffle`` is Fisher-Yates,
  each j drawn by masked rejection on 32-bit draws, which are an
  output's low half and then its buffered high half;
* few or long ones are shuffled by one numpy generator, reset to each
  stream's seeded state.

Tests pin both ways against ``derive_rng`` on every numpy version CI
installs.
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
_MASK64 = (1 << 64) - 1
# The same as uint64 array operands, for 128-bit arithmetic in halves.
_PCG64_MULT_U64 = (np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64))
_MASK32_U64 = np.uint64(_MASK32)
_U64_1, _U64_32, _U64_58, _U64_63, _U64_64 = map(np.uint64, (1, 32, 58, 63, 64))

# LCG states each stream steps side by side (see _raw_outputs).
_LANES = 4
# The kernel draws m permutations of one size when m >= 8 x size and
# size <= 100; the per-stream loop draws the rest.  Kernel time over loop
# time, blocks as below, best of repeated runs on a shared 2-core VM:
#   size   2: m = 16 1.25-1.5,   m = 32 0.69-0.77
#   size  10: m = 40 1.36,       m = 80 0.75-0.85,  m = 160 0.36-0.61
#   size  21: m = 84 1.29,       m = 168 0.73-0.75, m = 1344 0.30
#   size  64: m = 512 0.82-0.89, m = 4096 0.60
#   size 100: m = 800 0.91-0.93, m = 6400 0.65,     m = 20000 0.78
#   size 128: 1.00-1.09 at m = 1024 to 25600;       size 250: 1.7
# The loop costs about 5 us per stream plus 10 ns per entry; the kernel
# about 0.2 ms per block plus 60-90 ns per entry, so long rows lose.
_KERNEL_MIN_STREAMS_PER_ENTRY = 8
_KERNEL_MAX_SIZE = 100
# Kernel blocks: at most this many streams, and about this many
# permutation entries, so temporaries stay a few MB at any shape.
_KERNEL_BLOCK_STREAMS = 4096
_KERNEL_BLOCK_ENTRIES = 1 << 17


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


def _path_digests(
    root: int, prefix: tuple[PathPart, ...], suffixes: Iterable[Sequence[int]]
) -> bytes:
    """The sha256 digests of ``(root, *prefix, *suffix)`` per suffix, joined.

    The suffix parts must be ints, so each payload is the one
    ``_canonical_payload`` builds.
    """
    head = _canonical_payload(root, prefix)[:-1]
    return b"".join(
        hashlib.sha256(
            head + (b",%d" * len(suffix)) % tuple(suffix) + b"]"
        ).digest()
        for suffix in suffixes
    )


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` mod 2^128, on uint64 (high, low) halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` mod 2^128, on uint64 (high, low) halves.

    uint64 products wrap, so only the high half of ``a_lo * b_lo`` needs
    the 32-bit pieces; no partial sum below overflows 64 bits.
    """
    a0, a1 = a_lo & _MASK32_U64, a_lo >> _U64_32
    b0, b1 = b_lo & _MASK32_U64, b_lo >> _U64_32
    low_mid = a1 * b0 + ((a0 * b0) >> _U64_32)
    high_mid = a0 * b1 + (low_mid & _MASK32_U64)
    hi = a1 * b1 + (low_mid >> _U64_32) + (high_mid >> _U64_32)
    return hi + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _pcg64_seeds(digests: bytes) -> np.ndarray:
    """PCG64's seeded ``(state, inc)`` for each 32-byte digest.

    ``derive_rng`` on a path with digest d gives the generator whose
    ``bit_generator.state`` holds these: row k is ``[state >> 64, state
    & (2^64 - 1), inc >> 64, inc & (2^64 - 1)]`` as uint64, shape (m, 4).
    All paths are mixed and seeded in one vectorized pass.
    """
    words = np.frombuffer(digests, ">u4").reshape(-1, 8)[:, ::-1]
    seed_hi, seed_lo, seq_hi, seq_lo = _generate_states(_pools(words)).T
    # PCG64's srandom: inc from the second pair, then two LCG steps from
    # a zero state, adding the first pair after the first step.
    inc_hi = (seq_hi << _U64_1) | (seq_lo >> _U64_63)
    inc_lo = (seq_lo << _U64_1) | _U64_1
    state = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    state = _add128(*_mul128(*state, *_PCG64_MULT_U64), inc_hi, inc_lo)
    return np.stack([*state, inc_hi, inc_lo], axis=1)


def _state_dict(seed: Sequence[int]) -> dict:
    """``bit_generator.state`` of a PCG64 seeded as one ``_pcg64_seeds`` row."""
    state_hi, state_lo, inc_hi, inc_lo = seed
    return {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


@functools.cache
def _jump_table() -> np.ndarray:
    """PCG64's k-step jumps for k = 1.._LANES, built once per process.

    k steps of the LCG take a state s to ``M^k s + (sum of M^j, j < k)
    inc``; row k - 1 holds ``[M^k >> 64, M^k low, sum >> 64, sum low]``
    as uint64.  The array is shared, so it is read-only.
    """
    mult, add, rows = 1, 0, []
    for _ in range(_LANES):
        mult = mult * _PCG64_MULT & _MASK128
        add = (add * _PCG64_MULT + 1) & _MASK128
        rows.append((mult >> 64, mult & _MASK64, add >> 64, add & _MASK64))
    table = np.array(rows, dtype=np.uint64)
    table.flags.writeable = False
    return table


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of a state: the xor of its halves, rotated right
    by its top six bits."""
    xored, rot = hi ^ lo, hi >> _U64_58
    return (xored >> rot) | (xored << ((_U64_64 - rot) & _U64_63))


def _raw_outputs(seeds: np.ndarray) -> Iterator[np.ndarray]:
    """PCG64's raw 64-bit outputs of each seeded stream, ``_LANES`` at a
    time: the k-th array yielded, shape (_LANES, m), holds every stream's
    outputs ``k _LANES`` to ``(k + 1) _LANES - 1``.

    Lane j holds the state after j + 1 LCG steps, and one jump of
    ``_LANES`` steps moves every lane on.
    """
    table = _jump_table()
    state_hi, state_lo, inc_hi, inc_lo = seeds.T
    hi, lo = _add128(
        *_mul128(state_hi, state_lo, table[:, 0, None], table[:, 1, None]),
        *_mul128(inc_hi, inc_lo, table[:, 2, None], table[:, 3, None]),
    )
    yield _xsl_rr(hi, lo)
    jump_add = _mul128(inc_hi, inc_lo, table[-1, 2], table[-1, 3])
    while True:
        hi, lo = _add128(*_mul128(hi, lo, table[-1, 0], table[-1, 1]), *jump_add)
        yield _xsl_rr(hi, lo)


def _kernel_rows(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, a C-contiguous (m, size) array, with each stream's
    ``permutation(size)``.

    numpy's ``Generator.shuffle`` swaps x[i] with x[j] for i = size - 1
    down to 1, drawing j by ``random_interval(i)``: 32-bit draws masked
    to the smallest all-ones mask >= i until one is <= i.  PCG64's
    ``next_uint32`` returns a raw output's low half, then buffers its
    high half for the next call.  Which draws are taken depends only on
    the draws, so every stream's j's are found first, one draw at a time
    across all streams, with more raw outputs made while any stream
    still needs one; then the swaps are made one i at a time across all
    streams.
    """
    m, size = out.shape
    # masks[i] is random_interval's mask for i; masks[-1] = 0 for done
    # streams, whose draws are then never <= -1.
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(size)] + [0])
    todo = np.full(m, size - 1)  # the i each stream draws for next
    # js[i, s] ends as stream s's j for i: a rejected draw is written and
    # then overwritten.  Row 0, and row size (-1) for done streams, take
    # the draws no i uses.
    js = np.empty((size + 1, m), dtype=np.int64)
    js_flat, cols = js.reshape(-1), np.arange(m)
    draws = np.empty((2 * _LANES, m), dtype=np.uint64)
    for raw in _raw_outputs(seeds):
        np.bitwise_and(raw, _MASK32_U64, out=draws[0::2])
        np.right_shift(raw, _U64_32, out=draws[1::2])
        for draw in draws.view(np.int64):
            value = draw & masks[todo]
            js_flat[todo * m + cols] = value
            todo -= value <= todo
        if todo.max() <= 0:
            break
    out[:] = np.arange(size)
    flat = out.reshape(-1)
    targets = js[1:size] + cols * size
    for i in range(size - 1, 0, -1):
        moved = flat[targets[i - 1]]
        flat[targets[i - 1]] = out[:, i]
        out[:, i] = moved


def _loop_rows(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (m, size) by shuffling each row in place with one
    reused generator set to each stream's seeded state."""
    out[:] = np.arange(out.shape[1])
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for row, seed in zip(out, seeds.tolist()):
        bit_generator.state = _state_dict(seed)
        generator.shuffle(row)


def _permutation_rows(seeds: np.ndarray, size: int) -> np.ndarray:
    """Row k: ``permutation(size)`` of the stream seeded as ``seeds[k]``.

    Many short permutations go through ``_kernel_rows`` in blocks of
    bounded memory; few or long ones through ``_loop_rows``.
    """
    out = np.empty((len(seeds), size), dtype=np.intp)
    if size > _KERNEL_MAX_SIZE or len(seeds) < _KERNEL_MIN_STREAMS_PER_ENTRY * size:
        _loop_rows(seeds, out)
        return out
    block = min(_KERNEL_BLOCK_STREAMS, _KERNEL_BLOCK_ENTRIES // max(size, 1))
    for start in range(0, len(seeds), block):
        _kernel_rows(seeds[start : start + block], out[start : start + block])
    return out


def _permutations(
    root: int,
    prefix: tuple[PathPart, ...],
    suffixes: Iterable[Sequence[int]],
    size: int,
) -> np.ndarray:
    """Row k: ``derive_rng(root, *prefix, *suffixes[k]).permutation(size)``."""
    return _permutation_rows(_pcg64_seeds(_path_digests(root, prefix, suffixes)), size)
