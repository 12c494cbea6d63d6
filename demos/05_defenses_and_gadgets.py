# Two endings: defenses that kill the channel, and the side-channel gadgets.

from dirtysim import (CacheGeometry, ChannelConfig, WritePolicy, random_bits,
                      run_channel, run_gadget_attack)

SEED = 99
message = random_bits(256, SEED)

print("== defenses ==")
baseline = ChannelConfig(message=message, seed=SEED)
print("baseline BER:             %.4f" % run_channel(baseline).ber)

wt = baseline._replace(geometry=CacheGeometry(
    write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE))
report = run_channel(wt)
print("write-through decode set: %s (channel dead: stores never dirty a line)"
      % sorted(set(report.raw_received_bits)))

part = baseline._replace(geometry=CacheGeometry(partition={
    "sender": frozenset(range(4)), "receiver": frozenset(range(4, 8))}))
report = run_channel(part)
print("way-partition decode set: %s (receiver can only evict its own ways)"
      % sorted(set(report.raw_received_bits)))

print()
print("== side-channel gadgets ==")
print("victim code, variant a: if secret -> modify line0 else -> access line1")
print("victim code, variant b: if secret -> access line0 else -> access line1")
print()
for variant, scenario, note in [
    ("a", "set-state-dirty", "prime clean, detect the dirty line the store left"),
    ("b", "prime-with-dirty", "prime dirty, detect the line the load displaced"),
    ("a", "victim-timing", "time the victim call itself"),
    ("b", "victim-timing", "time the victim call itself"),
]:
    line = f"variant {variant}, {scenario:17s}"
    for secret in (0, 1):
        result = run_gadget_attack(variant, scenario, secret)
        assert result.inferred == secret
    print(f"  {line} secret recovered for both values  ({note})")

result = run_gadget_attack("a", "set-state-dirty", 1)
print()
print("set-state-dirty even works with both victim lines in the SAME set")
print("(probe total %d vs threshold %.1f) -- a pure presence channel like"
      % (result.latencies["probe_total_cycles"], result.latencies["threshold"]))
print("prime-and-probe cannot distinguish that case.")
