"""Every reachable period of a channel whose cache draws nothing, through `Steps.next`.

Under LRU or Tree-PLRU with no jitter and no slip, a period is an encode,
at most one noise access and a decode, in that order, and what it does is
fixed by the set's state when it starts.  Every action leaves the set in
the walk's frame, and an unpartitioned state is stored in its policy's
normal form, so a period start is a state and every decode is the one
action "decode".  A breadth-first search over those starts, from the state
after the prime and through `Steps.next` alone, takes every step that any
message and any noise draw can take, so what holds on its edges holds for
every run, not only at sampled seeds:

- A defended channel carries nothing: under write-through or way
  partitioning, every decode totals 110 cycles (10 clean misses), whatever
  was sent and whatever the noise did.
- Noise disturbs an undefended channel in one way only: from any start, the
  one (sent symbol, noise action) pair that flips a binary d=1 decode is a
  sent 0 followed by a noise write, and no pair flips a multibit 0/3/5/8
  decode.
- The channel is stealthy, the paper's claim: on every step of every
  closure, defended or not and with noise, a decode is 10 loads that all
  miss and no store, whatever was sent, and an encode is no load and one
  store per dirty line of its level.  The sender's stores never hit but
  under way partitioning, where its lines stay resident in its own ways.
- LRU and Tree-PLRU run alike once the preamble has run: walked in
  lockstep from the state after `PREAMBLE`, the two policies' tables take
  equal steps, trace fields and count deltas, in every period of every
  closure.  Every stream but the partitioned sender's is misses, on which
  both policies evict in fill order.  Without a partition, the two tables
  meet in one pair of period starts, and both hold the same lines with the
  same dirty bits in the order a stream of misses evicts them.  From the
  prime itself this fails under a partition: there the sender's stores hit
  its own lines, and the two policies keep different ones.
- The probe law holds on a grid of geometries and encodings: for W = 2, 4,
  8 and 16, replacement sets of W to W+4 lines, binary d = 1..W and
  multibit 0/3/5/8 where it fits, both policies take equal steps after the
  preamble from one pair of period starts that holds the same lines, and
  every decode of level d totals
  rset_size*miss_clean + d*(miss_dirty - miss_clean) and reads the symbol
  that was sent.

The cuts are `test_walk.exact_cuts`, midway between the levels' exact totals.
"""

import pytest

from dirtysim.cache import CacheGeometry
from dirtysim.channel import PREAMBLE, BinaryEncoding, ChannelConfig, MultiBitEncoding, Steps
from dirtysim.cli import DEFENSES
from dirtysim.measurement import RECEIVER, SENDER
from dirtysim.policy import make_policy

from test_walk import exact_cuts


def table(defense, policy, encoding, noise_rate=0.0, **fields):
    """The `Steps` of a channel under `defense`, with no steps taken yet.

    `fields` are further config fields; a `geometry` among them replaces
    the defense's.
    """
    cfg = ChannelConfig(**{"message": "0" * encoding.bits_per_symbol, "encoding": encoding,
                           "policy": policy, "geometry": DEFENSES[defense],
                           "noise_rate": noise_rate, "noise_write_prob": 0.5, **fields})
    return Steps(cfg, exact_cuts(cfg))


def periods(encoding, noise_rate):
    """Every (sent symbol, noise action or None) a period can take."""
    symbols = [encoding.bits_for_level_index(i) for i in range(len(encoding.levels))]
    noises = (None, "noise-read", "noise-write") if noise_rate else (None,)
    return [(symbol, noise) for symbol in symbols for noise in noises]


def period(steps, state, symbol, noise=None):
    """(each step's fields and count delta, the end state) of one period from `state`."""
    taken = []
    for action in (symbol, noise, "decode"):
        if action:
            *fields, state = steps.next(state, action)
            taken.append(tuple(fields))
    return taken, state


def closure(defense, policy, encoding, noise_rate=0.0):
    """(steps, reachable period starts, {(symbol, noise or None): {(decoded bits, total)}})."""
    steps = table(defense, policy, encoding, noise_rate)
    starts = {steps.start}
    todo = list(starts)
    decodes = {}
    while todo:
        state = todo.pop()
        for symbol, noise in periods(encoding, noise_rate):
            taken, end = period(steps, state, symbol, noise)
            _, _, _, total, bits, _ = taken[-1]
            decodes.setdefault((symbol, noise), set()).add((bits, total))
            if end not in starts:
                starts.add(end)
                todo.append(end)
    return steps, starts, decodes


def lockstep(tables, starts, symbol, noise=None):
    """Each table's period from its start: ([steps taken, per table], (end states))."""
    runs = [period(steps, state, symbol, noise) for steps, state in zip(tables, starts)]
    return [taken for taken, _ in runs], tuple(end for _, end in runs)


def paired_closure(tables, encoding, noise_rate=0.0):
    """Walk lru's and tree-plru's `tables` in lockstep from the state after `PREAMBLE`.

    Returns (every pair of period starts reached, [(start pair, symbol, noise
    or None, [steps taken, per table])] of the preamble and of every period
    from each pair).
    """
    k = encoding.bits_per_symbol
    pair = tuple(steps.start for steps in tables)
    walked = []
    for i in range(0, len(PREAMBLE), k):
        symbol = PREAMBLE[i:i + k]
        taken, end = lockstep(tables, pair, symbol)
        walked.append((pair, symbol, None, taken))
        pair = end
    paired = {pair}
    todo = [pair]
    while todo:
        pair = todo.pop()
        for symbol, noise in periods(encoding, noise_rate):
            taken, end = lockstep(tables, pair, symbol, noise)
            walked.append((pair, symbol, noise, taken))
            if end not in paired:
                paired.add(end)
                todo.append(end)
    return paired, walked


def eviction_order(steps, state):
    """A stored state's (tags, dirty bits), listed in the order a stream of misses evicts its ways.

    LRU's normal form lists its ways in that order already.  Tree-PLRU's
    lists them in its tree's order under metadata 0, and its misses evict
    ways 0, 4, 2, 6, 1, 5, 3, 7 from there (at W = 8).
    """
    tags, dirty, meta = steps.states[state]
    policy = make_policy(steps.cfg.policy, len(tags))
    ways = range(len(tags))
    meta = list(meta) if isinstance(meta, tuple) else meta  # LRU's list, updated in place
    order = []
    for _ in ways:
        way = policy.select_victim(meta, ways)
        order.append(way)
        meta = policy.on_access(meta, way)
    return tuple(tags[way] for way in order), tuple(dirty[way] for way in order)


def meet_once(tables, paired):
    """Assert that lru's and tree-plru's `tables` meet in one pair of starts, holding one set."""
    assert len(paired) == 1
    (pair,) = paired
    lru, plru = (eviction_order(steps, state) for steps, state in zip(tables, pair))
    assert lru == plru, pair


def flips(decodes):
    """The (symbol, noise) pairs after which some start decodes another symbol."""
    return {pair for pair, seen in decodes.items() if any(bits != pair[0] for bits, _ in seen)}


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
@pytest.mark.parametrize("defense, encoding, noise_rate, starts", [
    ("write-through", BinaryEncoding(1), 0.0, {"lru": 2, "tree-plru": 2}),
    ("write-through", BinaryEncoding(1), 0.5, {"lru": 2, "tree-plru": 2}),
    ("write-through", MultiBitEncoding(), 0.0, {"lru": 2, "tree-plru": 2}),
    ("write-through", MultiBitEncoding(), 0.5, {"lru": 2, "tree-plru": 2}),
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
    (BinaryEncoding(1), 0.0, 4, 8, set()),
    (BinaryEncoding(1), 0.5, 12, 24, {("0", "noise-write")}),
    (MultiBitEncoding(), 0.0, 7, 15, set()),
    (MultiBitEncoding(), 0.5, 21, 43, set()),
], ids=["binary", "binary-noise", "multibit", "multibit-noise"])
def test_the_one_noise_that_flips_an_undefended_decode(policy, encoding, noise_rate, states,
                                                      steps, flipped):
    walked, reached, decodes = closure("none", policy, encoding, noise_rate)
    assert len(reached) == 2
    assert (len(walked.states), len(walked.table)) == (states, steps)
    assert flips(decodes) == flipped


# Every closure: both policies (binary and multibit; no defense, write-through
# and partitioning; with and without noise) run each.
CLOSURES = pytest.mark.parametrize("defense, encoding, noise_rate", [
    ("none", BinaryEncoding(1), 0.0), ("none", BinaryEncoding(1), 0.5),
    ("none", MultiBitEncoding(), 0.0), ("none", MultiBitEncoding(), 0.5),
    ("write-through", BinaryEncoding(1), 0.0), ("write-through", BinaryEncoding(1), 0.5),
    ("write-through", MultiBitEncoding(), 0.0), ("write-through", MultiBitEncoding(), 0.5),
    # A partition gives the noise actor no ways.
    ("partition", BinaryEncoding(1), 0.0), ("partition", MultiBitEncoding(), 0.0),
], ids=["binary", "binary-noise", "multibit", "multibit-noise",
        "write-through-binary", "write-through-binary-noise", "write-through-multibit",
        "write-through-multibit-noise", "partition-binary", "partition-multibit"])


@pytest.mark.parametrize("policy", ["lru", "tree-plru"])
@CLOSURES
def test_every_step_is_stealthy(defense, policy, encoding, noise_rate):
    steps, _, _ = closure(defense, policy, encoding, noise_rate)
    sender_hits = 0
    for actor, _, level, _, _, delta, _ in steps.table.values():
        # (loads, stores, hits) from a count delta: loads 2k, stores 2k+1, hits k=0.
        counts = sum(delta[0::2]), sum(delta[1::2]), delta[0] + delta[1]
        if actor == RECEIVER:
            assert counts == (steps.cfg.rset_size, 0, 0)
        elif actor == SENDER:
            assert counts[:2] == (0, level)
            sender_hits += counts[2]
    assert (sender_hits > 0) == (defense == "partition")


# Pairs of period starts that lru's and tree-plru's tables reach in lockstep
# after the preamble, per closure (by `CLOSURES` id).
PAIRED_STARTS = {"binary": 1, "binary-noise": 1, "multibit": 1, "multibit-noise": 1,
                 "write-through-binary": 1, "write-through-binary-noise": 1,
                 "write-through-multibit": 1, "write-through-multibit-noise": 1,
                 "partition-binary": 2, "partition-multibit": 32}


@CLOSURES
def test_lru_and_tree_plru_take_equal_steps_once_the_preamble_has_run(defense, encoding,
                                                                    noise_rate, request):
    tables = [table(defense, policy, encoding, noise_rate) for policy in ("lru", "tree-plru")]
    paired, walked = paired_closure(tables, encoding, noise_rate)
    for pair, symbol, noise, (lru, plru) in walked:
        assert lru == plru, (pair, symbol, noise)
    assert len(paired) == PAIRED_STARTS[request.node.callspec.id]
    if defense != "partition":  # a partitioned state is stored as it is, not normalized
        meet_once(tables, paired)


# The probe law's grid: W = 2-16, replacement sets of W to W+4 lines (a
# smaller set cannot replace the whole set), binary d = 1..W and multibit
# 0/3/5/8 where W >= 8; undefended, without noise.
GRID = [(ways, rset_size, encoding)
        for ways in (2, 4, 8, 16) for rset_size in range(ways, ways + 5)
        for encoding in [*map(BinaryEncoding, range(1, ways + 1)),
                         *([MultiBitEncoding()] if ways >= 8 else [])]]


def test_on_the_grid_both_policies_decode_every_symbol_by_the_probe_law():
    assert len(GRID) == 160
    paired_starts = 0
    for ways, rset_size, encoding in GRID:
        tables = [table("none", policy, encoding, geometry=CacheGeometry(ways),
                        rset_size=rset_size) for policy in ("lru", "tree-plru")]
        lat = tables[0].cfg.latency
        paired, walked = paired_closure(tables, encoding)
        meet_once(tables, paired)
        paired_starts += len(paired)
        for pair, symbol, _, (lru, plru) in walked:
            case = (ways, rset_size, encoding.levels, pair, symbol)
            assert lru == plru, case
            *_, (actor, _, _, total, bits, _) = lru
            level = encoding.level_for_bits(symbol)
            assert actor == RECEIVER, case
            assert (total, bits) == (rset_size * lat.miss_clean
                                     + level * (lat.miss_dirty - lat.miss_clean), symbol), case
    assert paired_starts == 160


def test_from_the_prime_a_partitioned_sender_parts_lru_from_tree_plru():
    # The limit of the test above: its start must come after the preamble.
    # From the prime, "10" stores 5 sender lines in the sender's 4 ways, and
    # the level-3 encode of the next "01" finds a different 3 of them
    # resident under each policy.  Every run sends the preamble first, so no
    # output shows this.
    tables = [table("partition", policy, MultiBitEncoding()) for policy in ("lru", "tree-plru")]
    _, pair = lockstep(tables, tuple(steps.start for steps in tables), "10")
    (lru, plru), _ = lockstep(tables, pair, "01")
    # Count deltas: a load and a store count per outcome kind; stores are the
    # odd offsets, hits offset 1 and dirty evictions offset 7.
    assert lru[0] == (SENDER, "encode", 3, 66, "", (0, 0, 0, 0, 0, 0, 0, 3, 0, 0))
    assert plru[0] == (SENDER, "encode", 3, 48, "", (0, 1, 0, 0, 0, 0, 0, 2, 0, 0))
    assert lru[1] == plru[1]  # both decodes still read level 0
