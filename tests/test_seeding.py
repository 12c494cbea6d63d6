"""`random_bits` against its definition: one `choice("01")` per bit.

The bulk draw reproduces CPython's rejection sampling word for word, so it
is checked on every interpreter the tests run on.
"""

import random

import pytest

from dirtysim.seeding import derive_seed, random_bits


def one_choice_per_bit(n, seed):
    rng = random.Random(derive_seed("bits", seed))
    return "".join(rng.choice("01") for _ in range(n))


@pytest.mark.parametrize("seed", [0, 1, 3, 2024, "sweep"])
def test_random_bits_is_one_choice_per_bit(seed):
    for n in [*range(71), 512, 4097, 65536]:
        assert random_bits(n, seed) == one_choice_per_bit(n, seed)
