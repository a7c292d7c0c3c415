import numpy as np
import pytest

from dpshuffle.seeds import derive_rng, derive_seed


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
