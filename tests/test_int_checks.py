"""Every count and seed an entry point takes is checked by `seeding.check_int`.

A float, a bool or a value below the bound fails with a ValueError that names
the field, before anything is simulated.  Unchecked, a float count raised
TypeError from inside `range`, a bool count ran and was reported, and a seed
of 1.0 or True replayed a different curve from seed 1 (seeds are hashed as
text).
"""

import os
import re
import subprocess
import sys

import pytest

from dirtysim import channel, measurement, policy, seeding
from dirtysim.analysis import rate_kbps, sweep_ber_vs_rate
from dirtysim.channel import ChannelConfig, Thresholds
from dirtysim.measurement import latency_cdf
from dirtysim.policy import (analytic_dirty_eviction_probability,
                             dirty_eviction_experiment,
                             eviction_distance_experiment)
from dirtysim.seeding import random_bits

# Per entry point, the names whose calls mean something was simulated.
SPIES = {
    "evict-prob": [(policy, "derive_seed")],
    "dirty-evict": [(policy, "derive_seed")],
    "sweep": [(channel, "_simulate"), (channel, "calibrate_thresholds")],
    "latency-cdf": [(measurement, "Cache")],
    "random-bits": [(seeding, "derive_seed")],
    "gadget": [(channel, "Cache"), (channel, "probe_totals")],
}


def evict(n=8, trials=10, seed=0, ways=8, name="tree-plru"):
    return eviction_distance_experiment(name, n, trials, seed, ways)


def dirty(ds=(2,), l=4, trials=10, seed=0, ways=8):
    return dirty_eviction_experiment(ds, l, trials, seed, ways)


def gadget(secret):
    return channel.run_gadget_attack("a", "set-state-dirty", secret)


def sweep(trials):
    return sweep_ber_vs_rate(ChannelConfig(message="01"), (5500,), trials=trials)


# (entry point, call of the bad value, field, a float to try, lower bound or None).
ENTRIES = [
    ("evict-prob", lambda v: evict(n=v), "n", 2.5, 1),
    ("evict-prob", lambda v: evict(trials=v), "trials", 2.5, 1),
    ("evict-prob", lambda v: evict(4, 200, v, name="random"), "seed", 1.0, None),
    ("evict-prob", lambda v: evict(ways=v, name="lru"), "ways", 8.0, 1),
    ("dirty-evict", lambda v: dirty(ds=[0, v, 3]), "d", 1.5, None),
    ("dirty-evict", lambda v: dirty(l=v), "l", 2.5, 1),
    ("dirty-evict", lambda v: dirty(trials=v), "trials", 2.5, 1),
    ("dirty-evict", lambda v: dirty(seed=v), "seed", 1.0, None),
    ("dirty-evict", lambda v: dirty(ways=v), "ways", 8.0, 1),
    ("closed-form", lambda v: analytic_dirty_eviction_probability(v, 2, 4), "ways", 8.0, 1),
    ("closed-form", lambda v: analytic_dirty_eviction_probability(8, v, 4), "d", 1.5, None),
    ("closed-form", lambda v: analytic_dirty_eviction_probability(8, 2, v), "l", 2.5, 0),
    ("sweep", sweep, "trials", 1.5, 1),
    ("latency-cdf", lambda v: latency_cdf([0], 2, v), "seed", 1.0, None),
    ("random-bits", lambda v: random_bits(v, 1), "n", 2.5, 0),
    ("rate-kbps", lambda v: rate_kbps(v, 1), "period", 2.5, 1),
    ("config", lambda v: ChannelConfig(message="01", slip=v), "slip", 2.5, 0),
    ("gadget", gadget, "secret", 1.0, 0),
]


def bad_cases():
    for entry, call, field, fraction, least in ENTRIES:
        bad = [(fraction, f"an int, not {fraction!r}"), (True, "an int, not True")]
        if least is not None:
            bad.append((least - 1, f">= {least}"))
        for value, tail in bad:
            yield pytest.param(entry, call, value, f"^{field} must be {re.escape(tail)}$",
                               id=f"{entry}-{field}={value!r}")
    # A dirty-line count keeps its own wording, in the middle of the list too.
    yield pytest.param("dirty-evict", lambda v: dirty(ds=[0, v, 3]), 9,
                       r"^d=9 outside 0\.\.8$", id="dirty-evict-d=9")
    yield pytest.param("closed-form", lambda v: analytic_dirty_eviction_probability(8, v, 4),
                       -1, r"^d=-1 outside 0\.\.8$", id="closed-form-d=-1")
    # A secret is one bit: an int above 1 keeps the gadget's own wording.
    yield pytest.param("gadget", gadget, 2, r"^secret must be 0 or 1$", id="gadget-secret=2")


def spy(monkeypatch, entry):
    """Count the calls of what `entry` simulates with; return the list they append to."""
    calls = []
    for module, name in SPIES.get(entry, ()):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, **kw: calls.append(a) or _real(*a, **kw))
    return calls


@pytest.mark.parametrize("entry, call, value, message", bad_cases())
def test_a_bad_count_or_seed_fails_naming_its_field_before_simulating(
        monkeypatch, entry, call, value, message):
    calls = spy(monkeypatch, entry)
    with pytest.raises(ValueError, match=message):
        call(value)
    assert calls == []


@pytest.mark.parametrize("entry, call", [
    ("evict-prob", lambda: evict(4, 2, 1, name="random")),
    ("dirty-evict", lambda: dirty(ds=[0, 1, 3], trials=2)),
    ("sweep", lambda: sweep(1)),
    ("latency-cdf", lambda: latency_cdf([0], 2, 1)),
    ("random-bits", lambda: random_bits(3, 1)),
    ("gadget", lambda: gadget(1)),
])
def test_the_spies_see_a_valid_call_simulate(monkeypatch, entry, call):
    # Without this, a spy on a name the code no longer calls would pass the test above.
    calls = spy(monkeypatch, entry)
    call()
    assert calls


def test_calibration_spread_is_the_population_deviation():
    # [100, 104] has population deviation 2 (sample deviation 2.83), so a
    # separation of 5 clears the required 2 * 2 = 4 and 3 does not.
    assert Thresholds.from_totals([(0, [100, 104]), (1, [107, 107])]).cuts == (104.5,)
    with pytest.raises(channel.CalibrationError,
                       match=r"^levels 0 and 1 overlap: mean separation 3\.00 < required 4\.00$"):
        Thresholds.from_totals([(0, [100, 104]), (1, [105, 105])])


def test_importing_the_cli_loads_no_statistics_module():
    # Calibration computes its means and deviations from integer sums, so the
    # package does not import `statistics` (which pulls in fractions and decimal).
    code = ("import sys, dirtysim.cli; "
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
    # Nor `typing`: the records are `collections.namedtuple`s and dataclasses.
    # A `.pth` file that `site` runs may import `typing` itself, so this
    # child skips `site` and finds the package through PYTHONPATH alone.
    src = os.path.dirname(os.path.dirname(os.path.abspath(seeding.__file__)))
    code = "import sys, dirtysim.cli; print('typing' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"
