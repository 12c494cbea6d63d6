"""Independent reference implementations used to check the library.

Kept deliberately different in structure from the package code: the edit
distances are a memoized recursion and a Wagner-Fischer DP table instead of
bit vectors, and the tree-PLRU model walks an integer bitmask instead of a
list of node bits.
"""

from functools import lru_cache

WAYS = 8


def brute_levenshtein(a, b):
    """Plain recursive edit distance with memoization."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(go(i + 1, j + 1) + (a[i] != b[j]),
                   go(i + 1, j) + 1,
                   go(i, j + 1) + 1)

    return go(0, 0)


def wagner_fischer(a, b):
    """Row-by-row Wagner-Fischer table, quadratic but flat in stack depth."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1,              # delete from a
                               current[j - 1] + 1,           # insert into a
                               previous[j - 1] + (ca != cb)))  # substitute
        previous = current
    return previous[-1]


def plru_victim(state, ways=WAYS):
    """Follow the pointed-to child from the root; bit 0 means left."""
    node = 1
    while node < ways:
        node = 2 * node + ((state >> (node - 1)) & 1)
    return node - ways


def plru_touch(state, way, ways=WAYS):
    """Set every bit on the way's root path to point away from it."""
    node = way + ways
    while node > 1:
        parent = node >> 1
        if node % 2 == 0:
            state |= 1 << (parent - 1)
        else:
            state &= ~(1 << (parent - 1))
        node = parent
    return state


def plru_eviction_fraction(n, ways=WAYS):
    """Exact probe-eviction fraction over every initial tree state.

    Models a full set: insert the probe line at the tree-selected victim,
    then n fresh insertions, each touching its way.  Returns the fraction of
    the 2**(ways-1) initial states in which the probe line was evicted.
    """
    states = 1 << (ways - 1)
    evicted = 0
    for state in range(states):
        occupants = [None] * ways
        victim = plru_victim(state, ways)
        occupants[victim] = "probe"
        state_now = plru_touch(state, victim, ways)
        for j in range(n):
            victim = plru_victim(state_now, ways)
            occupants[victim] = j
            state_now = plru_touch(state_now, victim, ways)
        if "probe" not in occupants:
            evicted += 1
    return evicted / states
