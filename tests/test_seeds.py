import numpy as np
import pytest

from dpshuffle.seeds import (
    _entropy_words,
    _generate_states,
    _pcg64_states,
    _permutations,
    _pools,
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


def test_batch_pools_and_states_match_seed_sequence():
    """Rows of every length 1..8 mixed in one batch, as sha256 digests
    with high zero words would give (they cannot be hashed on demand)."""
    rng = np.random.default_rng(11)
    words = rng.integers(1, 2**32, size=(400, 8), dtype=np.uint32)
    zero_high = np.arange(400) % 8
    for row, zeros in enumerate(zero_high):
        words[row, 8 - zeros :] = 0
    words[::5, 0] = 0  # a zero lowest word is still entropy
    words[3] = 0  # all zero: numpy keeps one word
    pools = _pools(words)
    states = _generate_states(pools)
    assert pools.dtype == np.uint32 and states.dtype == np.uint64
    for row in range(len(words)):
        length = 1 if row == 3 else 8 - int(zero_high[row])
        reference = np.random.SeedSequence(words[row, :length])
        assert np.array_equal(pools[row], reference.pool)
        assert np.array_equal(states[row], reference.generate_state(4, np.uint64))


@pytest.mark.parametrize(
    "prefix",
    [("perm", "CIS"), ("assign",), (), ('q"uo\\te', "naïve ∑", 3)],
)
def test_batch_states_equal_derive_rng(prefix):
    suffixes = [(a,) for a in range(1000)]
    suffixes += [(a, b) for a in range(0, 1500, 3) for b in (0, 1, 2**40)]
    suffixes += [(-1, 0), (0, -(2**70)), (2**64, 5)]
    for root in (0, 2**40 + 3):
        states = list(_pcg64_states(root, prefix, suffixes))
        assert states == [
            derive_rng(root, *prefix, *suffix).bit_generator.state
            for suffix in suffixes
        ]


@pytest.mark.parametrize("stages", [1, 5, 60])  # 3, 15 and 180 paths
def test_batch_permutations_equal_derive_rng(stages):
    suffixes = [
        (stage, shuffler) for stage in range(stages) for shuffler in range(3)
    ]
    sizes = [(7 * i) % 23 + 1 for i in range(len(suffixes))]
    perms = _permutations(5, ("perm", "IS"), suffixes, sizes)
    for (stage, shuffler), size, perm in zip(suffixes, sizes, perms, strict=True):
        reference = derive_rng(5, "perm", "IS", stage, shuffler).permutation(size)
        assert np.array_equal(perm, reference)
