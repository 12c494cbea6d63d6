# The receiver's whole signal: replacement latency grows with dirty lines.
#
# Each dirty line in the target set forces one write-back during replacement,
# adding (dirty-evict - clean-evict) cycles to the summed pointer-chase time.
# This script samples the distribution per dirty count, with and without
# per-access jitter, and writes CSV suitable for CDF plotting.

import os
import statistics
from collections import Counter

from dirtysim import LatencyModel, latency_cdf

TRIALS = 200
SEED = 11
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "demos", "out")
os.makedirs(OUT, exist_ok=True)

print("Noiseless totals (replacement set of 10, true LRU):")
for d, samples in latency_cdf(range(9), trials=3, seed=SEED):
    assert len(set(samples)) == 1
    print("  d=%d  ->  %d cycles" % (d, samples[0]))

print()
print("With +-2 cycles of per-access jitter (%d trials per d):" % TRIALS)
table = latency_cdf(range(9), trials=TRIALS, seed=SEED, latency=LatencyModel(jitter=2))
print("   d   mean    p5     p95")
for d, samples in table:
    cuts = statistics.quantiles(samples, n=20, method="inclusive")
    print("  %2d  %6.1f  %5d  %5d" % (d, statistics.fmean(samples), cuts[0], cuts[-1]))

csv_path = os.path.join(OUT, "latency_cdf.csv")
with open(csv_path, "w") as fh:
    fh.write("d,trial,total_cycles\n")
    for d, samples in table:
        for trial, total in enumerate(samples):
            fh.write("%d,%d,%d\n" % (d, trial, total))
print()
print("CDF samples written to", os.path.relpath(csv_path, ROOT))

# a crude terminal CDF: one row per d, buckets of 5 cycles
lo = min(min(s) for _, s in table)
hi = max(max(s) for _, s in table)
print()
print("ASCII density (each column = 5 cycles, %d..%d):" % (lo, hi))
for d, samples in table:
    hist = Counter((s - lo) // 5 for s in samples)
    line = "".join(" .:-=+*#"[min(7, int(hist[k] / TRIALS * 24))]
                   for k in range((hi - lo) // 5 + 1))
    print("  d=%d |%s|" % (d, line))

print()
print("Adjacent bands sit 11 cycles apart; the steps stay distinguishable")
print("as long as the summed jitter does not close that gap, which is what")
print("lets one threshold per level pair decode symbols reliably.")
