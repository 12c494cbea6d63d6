# How many fresh lines does it take to push a just-written line out of a set?
#
# A sender that dirties one line in a target set relies on the receiver's
# replacement set actually evicting it.  This script measures that eviction
# probability for the three modeled policies as the replacement set grows.

from dirtysim import eviction_distance_experiment

TRIALS = 10_000
SEED = 7

print("Eviction probability of a freshly written line in an 8-way set")
print("(replacement set of N distinct fresh lines, %d trials per cell)" % TRIALS)
print()
# One run per policy gives its whole curve: evicted_within[n - 1] is the
# fraction of trials whose probe line was out within n insertions.
curves = [eviction_distance_experiment(policy, 12, TRIALS, seed=SEED).evicted_within
          for policy in ("lru", "tree-plru", "random")]
print("   N   true-LRU   tree-PLRU   random")
for n in range(6, 13):
    lru, plru, rand = (curve[n - 1] for curve in curves)
    print("  %2d    %6.1f%%     %6.1f%%   %6.1f%%" % (n, 100 * lru, 100 * plru, 100 * rand))

print("""
Reading the table:
  * True LRU flips from 0% to 100% exactly at N = 8: the written line is the
    newest of eight, so eight fresh insertions are necessary and sufficient.
  * Tree-PLRU does the same: an insert-touch stream visits every way once
    per eight steps, so N = 8 already guarantees eviction from any tree
    state, and N = 9 adds one step of slack.
  * Random replacement only converges geometrically (1 - (7/8)**N), which is
    why the protocol leans on larger replacement sets there.
""")
