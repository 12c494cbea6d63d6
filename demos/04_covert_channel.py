# End to end: leak a message through dirty bits in one cache set.
#
# The sender dirties d lines per period to encode a symbol; the receiver
# times a 10-line replacement of the same set and thresholds the total.
# Everything below is deterministic given the seed.

from dirtysim import (BinaryEncoding, ChannelConfig, MultiBitEncoding,
                      calibrate_thresholds, random_bits, run_channel)

SEED = 2718
message = random_bits(128, SEED)

cfg = ChannelConfig(encoding=BinaryEncoding(1), period=5500, message=message, seed=SEED)
thresholds = calibrate_thresholds(cfg)
print("calibrated binary threshold:", thresholds.cuts)

report = run_channel(cfg, thresholds=thresholds)
print("binary d=1 @ %d cycles/symbol -> %.1f Kbps, BER %.4f" %
      (cfg.period, report.rate_kbps, report.ber))
print("first receiver samples (cycle, total, bit):")
for entry in report.latency_trace[:8]:
    print("   ", entry)

print()
print("multi-bit encoding doubles the rate by using levels 0/3/5/8:")
mcfg = ChannelConfig(encoding=MultiBitEncoding((0, 3, 5, 8)), period=1000,
                     message=random_bits(256, SEED), seed=SEED)
mreport = run_channel(mcfg)
print("multibit @ %d cycles/symbol -> %.1f Kbps, BER %.4f" %
      (mcfg.period, mreport.rate_kbps, mreport.ber))

print()
print("noise robustness:")
clean = cfg._replace(noise_rate=1.0, noise_write_prob=0.0)
print("  one clean read into the set every period -> BER %.4f" % run_channel(clean).ber)
dirty = cfg._replace(noise_rate=0.2, noise_write_prob=1.0)
print("  dirty writes at rate 0.2 per period     -> BER %.4f" % run_channel(dirty).ber)
print()
print("Clean noise is harmless: under LRU the sender's dirty line is the")
print("newest resident, so a clean noise line only displaces another clean")
print("line and the latency sum is unchanged.  A dirty noise line, however,")
print("is indistinguishable from the sender signaling, so 0-symbols flip.")
