"""Deterministic derivation of random generators from a single root seed.

Every random draw in the library comes from a generator derived here: the
root seed plus a short path of labels and indices is hashed into entropy
for an independent stream.  Two consequences matter for the rest of the
code:

* reruns with the same root seed reproduce every draw bit for bit, and
* streams are independent of scheduling, so work can be reordered or
  parallelised without changing results.

``derive_rng`` defines each stream.  A shuffle reads one stream,
``derive_rng(plan.seed, "shuffle", mode)``, for all of its permutations
(see ``shuffler``).

The hashed payload is the compact JSON array ``[root,...path]``: each
int written by ``int.__repr__`` and each string by json's ASCII string
encoder, joined by commas.  Those are the bytes
``json.dumps([root, *path], separators=(",", ":"))`` writes, built
without setting up a JSON encoder per stream.
"""

from __future__ import annotations

import hashlib
import struct
from json.encoder import encode_basestring_ascii

import numpy as np

PathPart = int | str


def _canonical_payload(root: int, path: tuple[PathPart, ...]) -> bytes:
    parts = []
    for part in path:
        if isinstance(part, str):
            parts.append(encode_basestring_ascii(part))
        elif isinstance(part, int) and not isinstance(part, bool):
            parts.append(int.__repr__(part))
        else:
            raise TypeError(f"seed path parts must be int or str, got {part!r}")
    if not isinstance(root, int) or isinstance(root, bool):
        raise TypeError(f"root seed must be an int, got {root!r}")
    return f"[{','.join([int.__repr__(root), *parts])}]".encode("ascii")


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
