import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpshuffle.seeds import (
    _canonical_payload,
    _entropy_words,
    derive_entropy,
    derive_rng,
    derive_seed,
)


def test_same_path_reproduces_stream():
    a = derive_rng(7, "perm", 3, 1).random(16)
    b = derive_rng(7, "perm", 3, 1).random(16)
    assert np.array_equal(a, b)


def test_distinct_paths_diverge():
    base = derive_rng(7, "perm", 3, 1).random(8)
    for path in [("perm", 3, 2), ("perm", 4, 1), ("assign", 3, 1), ("perm", "3", 1)]:
        assert not np.array_equal(base, derive_rng(7, *path).random(8))


def test_distinct_roots_diverge():
    assert not np.array_equal(
        derive_rng(1, "x").random(8), derive_rng(2, "x").random(8)
    )


def test_derive_seed_is_deterministic_and_compact():
    s1 = derive_seed(42, "attempt", 0)
    s2 = derive_seed(42, "attempt", 0)
    assert s1 == s2
    assert 0 <= s1 < 2**64
    assert s1 != derive_seed(42, "attempt", 1)


def test_streams_do_not_depend_on_call_order():
    first_then_second = (
        derive_rng(5, "a").random(4),
        derive_rng(5, "b").random(4),
    )
    second_then_first = (
        derive_rng(5, "b").random(4),
        derive_rng(5, "a").random(4),
    )
    assert np.array_equal(first_then_second[0], second_then_first[1])
    assert np.array_equal(first_then_second[1], second_then_first[0])


@pytest.mark.parametrize("bad", [1.5, None, ("nested",), True])
def test_non_canonical_path_parts_rejected(bad):
    with pytest.raises(TypeError):
        derive_rng(1, bad)


def test_bool_root_rejected():
    with pytest.raises(TypeError):
        derive_rng(True, "x")


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class Label(str):
    pass


# Ints of any sign and size and an IntEnum; strings with quotes,
# backslashes, control and non-ASCII characters, lone surrogates, and a
# str subclass.
INTS = st.integers() | st.integers(min_value=2**64) | st.sampled_from(Level)
TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
STRINGS = (
    TEXT
    | TEXT.map(Label)
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u6f22\U0001f642", "\ud800", Label('a"b')])
)


@settings(max_examples=300, deadline=None)
@given(root=INTS, path=st.lists(INTS | STRINGS, max_size=5))
def test_payload_is_the_compact_json_array(root, path):
    expected = json.dumps([root, *path], separators=(",", ":")).encode("utf-8")
    assert _canonical_payload(root, tuple(path)) == expected


@pytest.mark.parametrize(
    "root, path, message",
    [
        (1, ("x", True), "seed path parts must be int or str, got True"),
        (1, (2.0,), "seed path parts must be int or str, got 2.0"),
        (1.5, ("x",), "root seed must be an int, got 1.5"),
        (False, (), "root seed must be an int, got False"),
        # The parts are checked before the root.
        (True, (0.5,), "seed path parts must be int or str, got 0.5"),
    ],
)
def test_payload_type_errors(root, path, message):
    with pytest.raises(TypeError) as info:
        _canonical_payload(root, path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "entropy",
    [
        0,
        1,
        2**32,  # lowest word zero
        2**192 - 2**32,  # top two words and lowest word zero
        2**224 + 2**64,  # top word zero, lowest word zero
        2**255 + 2**32,  # no high zero word, lowest word zero
        2**256 - 1,
        0x0123456789ABCDEF << 96,
    ],
)
def test_entropy_words_match_numpy_int_split(entropy):
    words = _entropy_words(entropy.to_bytes(32, "big"))
    assert words.dtype == np.uint32
    from_int = np.random.SeedSequence(entropy)
    from_words = np.random.SeedSequence(words)
    assert np.array_equal(from_int.pool, from_words.pool)
    assert np.array_equal(from_int.generate_state(8), from_words.generate_state(8))


def test_derive_rng_draws_equal_the_int_seeded_stream():
    paths = [
        (root, label, a, b)
        for root in (0, 1, 2**40 + 3)
        for label in ("perm", "assign")
        for a in range(20)
        for b in range(25)
    ]
    assert len(paths) == 3000
    for root, *path in paths:
        reference = np.random.default_rng(
            np.random.SeedSequence(derive_entropy(root, *path))
        )
        assert np.array_equal(
            derive_rng(root, *path).integers(0, 2**63, 4),
            reference.integers(0, 2**63, 4),
        )
