"""Every reachable period of a channel whose cache draws nothing, through `Steps.next`.

Under LRU or Tree-PLRU with no jitter and no slip, a period is an encode,
at most one noise access and a decode, in that order, and what it does is
fixed by the target set's state when it starts.  `Steps` stores every
state relabelled so that its next decode chases replacement set 0, so a
period start is a state and every decode is action 0.  A breadth-first
search over those starts, from the state after the prime and through
`Steps.next` alone, takes every step that any message and any noise draw
can take, so what holds on its edges holds for every run, not only at
sampled seeds:

- A defended channel carries nothing: under write-through or way
  partitioning, every decode totals 110 cycles (10 clean misses), whatever
  was sent and whatever the noise did.
- Noise disturbs an undefended channel in one way only: from any start, the
  one (sent symbol, noise action) pair that flips a binary d=1 decode is a
  sent 0 followed by a noise write, and no pair flips a multibit 0/3/5/8
  decode.

The cuts are `test_walk.exact_cuts`, midway between the levels' exact totals.
"""

import pytest

from dirtysim.channel import BinaryEncoding, ChannelConfig, MultiBitEncoding, Steps
from dirtysim.cli import DEFENSES

from test_walk import exact_cuts


def closure(defense, policy, encoding, noise_rate=0.0):
    """(steps, reachable period starts, {(symbol, noise or None): {(decoded bits, total)}})."""
    cfg = ChannelConfig(message="0" * encoding.bits_per_symbol, encoding=encoding,
                        policy=policy, geometry=DEFENSES[defense], noise_rate=noise_rate,
                        noise_write_prob=0.5)
    steps = Steps(cfg, exact_cuts(cfg))
    symbols = [encoding.bits_for_level_index(i) for i in range(len(encoding.levels))]
    noises = (None, "noise-read", "noise-write") if noise_rate else (None,)
    starts = {steps.start}
    todo = list(starts)
    decodes = {}
    while todo:
        state = todo.pop()
        for symbol in symbols:
            for noise in noises:
                after = steps.next(state, symbol)[-1]
                if noise:
                    after = steps.next(after, noise)[-1]
                _, _, _, total, bits, _, end = steps.next(after, 0)
                decodes.setdefault((symbol, noise), set()).add((bits, total))
                if end not in starts:
                    starts.add(end)
                    todo.append(end)
    return steps, starts, decodes


def flips(decodes):
    """The (symbol, noise) pairs after which some start decodes another symbol."""
    return {pair for pair, seen in decodes.items() if any(bits != pair[0] for bits, _ in seen)}


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
@pytest.mark.parametrize("defense, encoding, noise_rate, starts", [
    ("write-through", BinaryEncoding(1), 0.0, {"lru": 5, "tree-plru": 5}),
    ("write-through", BinaryEncoding(1), 0.5, {"lru": 9, "tree-plru": 9}),
    ("write-through", MultiBitEncoding(), 0.0, {"lru": 5, "tree-plru": 5}),
    ("write-through", MultiBitEncoding(), 0.5, {"lru": 9, "tree-plru": 9}),
    ("partition", BinaryEncoding(1), 0.0, {"lru": 5, "tree-plru": 5}),
    ("partition", MultiBitEncoding(), 0.0, {"lru": 37, "tree-plru": 39}),
], ids=["write-through-binary", "write-through-binary-noise", "write-through-multibit",
        "write-through-multibit-noise", "partition-binary", "partition-multibit"])
def test_a_defended_channel_decodes_every_symbol_as_level_0(defense, policy, encoding,
                                                            noise_rate, starts):
    _, reached, decodes = closure(defense, policy, encoding, noise_rate)
    assert len(reached) == starts[policy]
    symbols = {encoding.bits_for_level_index(i) for i in range(len(encoding.levels))}
    assert {symbol for symbol, _ in decodes} == symbols
    zero = encoding.bits_for_level_index(0)
    assert all(seen == {(zero, 110)} for seen in decodes.values())


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
@pytest.mark.parametrize("encoding, noise_rate, states, steps, flipped", [
    (BinaryEncoding(1), 0.0, 18, 36, set()),
    (BinaryEncoding(1), 0.5, 54, 108, {("0", "noise-write")}),
    (MultiBitEncoding(), 0.0, 35, 71, set()),
    (MultiBitEncoding(), 0.5, 105, 211, set()),
], ids=["binary", "binary-noise", "multibit", "multibit-noise"])
def test_the_one_noise_that_flips_an_undefended_decode(policy, encoding, noise_rate, states,
                                                      steps, flipped):
    table, reached, decodes = closure("none", policy, encoding, noise_rate)
    assert len(reached) == 9
    assert (len(table.states), len(table.table)) == (states, steps)
    assert flips(decodes) == flipped
