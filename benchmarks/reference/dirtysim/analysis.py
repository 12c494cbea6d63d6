"""Error metrics and rate arithmetic for decoded bit streams.

Edit distance uses the classic Wagner-Fischer dynamic program with unit
costs, which charges flips, insertions and losses alike.  Bit error rate is
edit distance divided by the sent length, so figures stay comparable across
message sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_FREQUENCY_HZ = 2.2e9
DEFAULT_PERIODS = (800, 1000, 1600, 2200, 5500, 11000)
DEFAULT_ALIGN_WINDOW = 32


class PreambleLockError(ValueError):
    """No offset brings the stream close enough to the preamble."""


def edit_distance(a, b) -> int:
    """Levenshtein distance between two strings or sequences, unit costs."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1,        # delete from a
                               current[j - 1] + 1,     # insert into a
                               previous[j - 1] + cost))  # substitute
        previous = current
    return previous[-1]


def align_by_preamble(stream, preamble, window: int = DEFAULT_ALIGN_WINDOW) -> int:
    """Offset in [0, window] where the stream best matches the preamble.

    Ties break toward the smallest offset.  Raises PreambleLockError when the
    best distance exceeds a quarter of the preamble length.
    """
    if window < len(preamble):
        raise ValueError("window must cover at least one preamble length")
    best_offset = 0
    best_distance = None
    plen = len(preamble)
    for offset in range(0, window + 1):
        distance = edit_distance(preamble, stream[offset:offset + plen])
        if best_distance is None or distance < best_distance:
            best_offset, best_distance = offset, distance
    if best_distance > plen // 4:
        raise PreambleLockError(
            f"best preamble distance {best_distance} exceeds lock limit {plen // 4}")
    return best_offset


@dataclass(frozen=True)
class ErrorReport:
    edit_distance: int
    ber: float
    alignment_offset: int = 0
    clamped: bool = False


def bit_error_rate(sent, received, alignment_offset: int = 0) -> ErrorReport:
    """Edit distance over sent length; clamps to 1.0 if the received stream balloons."""
    if not sent:
        raise ValueError("sent stream must be non-empty")
    distance = edit_distance(sent, received)
    ber = distance / len(sent)
    clamped = ber > 1.0
    if clamped:
        ber = 1.0
    return ErrorReport(distance, ber, alignment_offset, clamped)


def rate_kbps(t_period: int, bits_per_symbol: int,
              f_hz: float = DEFAULT_FREQUENCY_HZ) -> float:
    """Transmission rate in Kbps for one symbol every t_period cycles."""
    if t_period <= 0:
        raise ValueError("t_period must be positive")
    return bits_per_symbol * f_hz / t_period / 1000.0


@dataclass(frozen=True)
class SweepRow:
    period_cycles: int
    rate_kbps: float
    encoding: str
    d_label: str
    trials: int
    mean_ber: float


def sweep_ber_vs_rate(cfg_template, periods=DEFAULT_PERIODS, trials: int = 3):
    """Mean BER per period, re-running the channel `trials` times each.

    Trial seeds are derived without the period so noise/slip draws are shared
    across periods (common random numbers), which keeps the BER-vs-rate trend
    monotone instead of drowning it in sampling noise.
    """
    from . import channel  # deferred: channel builds reports out of this module
    from .seeding import derive_seed

    if not periods:
        raise ValueError("periods must be non-empty")
    calibration = channel.calibrate_thresholds(cfg_template)
    rows = []
    for period in periods:
        bers = []
        for trial in range(trials):
            cfg = cfg_template.with_updates(
                t_s=period, t_r=period, phase_offset=None,
                seed=derive_seed(cfg_template.seed, "sweep", trial))
            report = channel.run_channel(cfg, thresholds=calibration)
            bers.append(report.ber)
        rows.append(SweepRow(period,
                             rate_kbps(period, cfg_template.encoding.bits_per_symbol),
                             cfg_template.encoding.name,
                             cfg_template.encoding.d_label,
                             trials,
                             sum(bers) / len(bers)))
    return rows
