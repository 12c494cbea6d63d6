# Does the channel survive a cache that evicts at random?
#
# With random replacement the receiver cannot guarantee an eviction, but it
# does not need to: with d dirty lines in the set and L replacement accesses,
# the chance that at least one dirty line is displaced is 1 - ((W-d)/W)**L.
# Monte Carlo through the policy machinery should track that closed form.

from dirtysim import analytic_dirty_eviction_probability, dirty_eviction_experiment

TRIALS = 10_000
SEED = 42
WAYS = 8

print("P(at least one dirty line evicted), 8-way set, random replacement")
print()
header = "        " + "".join("   L=%-5d" % l for l in range(8, 14))
print(header)
gaps = []
# One run with every d and L=13 gives the whole table: curves[d][l - 1] is
# the fraction of trials with a dirty victim within l draws.
curves = dirty_eviction_experiment((1, 2, 3), 13, TRIALS, seed=SEED).curves
for d, curve in curves.items():
    mc_row = [curve[l - 1] for l in range(8, 14)]
    exact_row = [analytic_dirty_eviction_probability(WAYS, d, l) for l in range(8, 14)]
    print("  d=%d mc " % d + "".join("  %6.1f%%" % (100 * v) for v in mc_row))
    print("     exact" + "".join("  %6.1f%%" % (100 * v) for v in exact_row))
    print("     gap  " + "".join("  %+6.3f " % (m - e) for m, e in zip(mc_row, exact_row)))
    gaps += [abs(curve[l - 1] - analytic_dirty_eviction_probability(WAYS, d, l))
             for l in (8, 10, 13)]
print()
print("largest |mc - exact| over the grid: %.4f" % max(gaps))
print()
print("d=3 with L >= 12 keeps the per-symbol eviction probability above 99%,")
print("which is the regime where the channel stays usable on random-")
print("replacement parts; picking d and L is a bandwidth/robustness knob.")
