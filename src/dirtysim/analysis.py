"""Error metrics and rate arithmetic for decoded bit streams.

Edit distance is the unit-cost Levenshtein distance, which charges flips,
insertions and losses alike.  It is computed with Myers' bit-vector
algorithm (G. Myers, "A fast bit-vector algorithm for approximate string
matching based on dynamic programming", JACM 46(3), 1999) in Hyyrö's form
for global distance (H. Hyyrö, "A bit-vector algorithm for computing
Levenshtein and Damerau edit distances", Nordic J. Computing 10(1), 2003).
One DP column is packed into Python ints used as bit vectors of any width,
so a pair costs O(n) big-int operations of m bits instead of n*m cell
updates.  The common prefix and suffix are stripped first, which is exact
for unit costs: equal streams cost one comparison, and only the stretch
from the first to the last difference reaches the bit-vector pass.  Bit
error rate is edit distance divided by the sent length, so
figures stay comparable across message sizes.
"""

from __future__ import annotations

from collections import namedtuple

from .seeding import check_int

FREQUENCY_HZ = 2.2e9  # core clock that turns cycles into seconds
DEFAULT_PERIODS = (800, 1000, 1600, 2200, 5500, 11000)
ALIGN_WINDOW = 32


class PreambleLockError(ValueError):
    """No offset brings the stream close enough to the preamble."""


def edit_distance(a, b) -> int:
    """Levenshtein distance between two strings or sequences, unit costs.

    Symbols must be hashable: each symbol of the shorter input maps to the
    bitmask of its positions.
    """
    # A common prefix or suffix adds nothing to the distance (module docstring).
    if a == b:
        return 0
    n = min(len(a), len(b))
    lo = 0
    while lo < n and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and a[-1 - hi] == b[-1 - hi]:
        hi += 1
    a, b = a[lo:len(a) - hi], b[lo:len(b) - hi]
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq = {}
    for i, symbol in enumerate(b):
        peq[symbol] = peq.get(symbol, 0) | (1 << i)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    # pv/mv: rows whose vertical delta is +1/-1; ph/mh: the same, horizontally.
    # Complements are XORs with `mask`, so no int goes negative; bits that
    # spill above row m-1 never reach `high` and are cut off from pv.
    pv, mv, score = mask, 0, m  # column 0: every vertical delta is +1
    for symbol in a:
        eq = peq.get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1  # row 0 grows by one per column
        pv = ((mh << 1) | ((xv | ph) ^ mask)) & mask
        mv = ph & xv
    return score


def align_by_preamble(stream, preamble) -> int:
    """Offset in [0, ALIGN_WINDOW] where the stream best matches the preamble.

    Ties break toward the smallest offset, so the scan stops at the first
    exact match: no distance is below 0, and no later offset can replace it.
    Raises PreambleLockError when the best distance exceeds a quarter of the
    preamble length.
    """
    best_offset = 0
    best_distance = None
    plen = len(preamble)
    for offset in range(ALIGN_WINDOW + 1):
        distance = edit_distance(preamble, stream[offset:offset + plen])
        if best_distance is None or distance < best_distance:
            best_offset, best_distance = offset, distance
            if not distance:
                break
    if best_distance > plen // 4:
        raise PreambleLockError(
            f"best preamble distance {best_distance} exceeds lock limit {plen // 4}")
    return best_offset


ErrorReport = namedtuple("ErrorReport", "edit_distance ber clamped")


def bit_error_rate(sent, received) -> ErrorReport:
    """Edit distance over sent length; clamps to 1.0 if the received stream balloons."""
    if not sent:
        raise ValueError("sent stream must be non-empty")
    distance = edit_distance(sent, received)
    ber = distance / len(sent)
    clamped = ber > 1.0
    if clamped:
        ber = 1.0
    return ErrorReport(distance, ber, clamped)


def rate_kbps(period: int, bits_per_symbol: int) -> float:
    """Transmission rate in Kbps for one symbol every `period` cycles."""
    check_int("period", period, 1)
    return bits_per_symbol * FREQUENCY_HZ / period / 1000.0


SweepRow = namedtuple("SweepRow", "period_cycles rate_kbps encoding d_label trials mean_ber")


def sweep_ber_vs_rate(cfg_template, periods=DEFAULT_PERIODS, trials: int = 3):
    """Mean BER per period, re-running the channel `trials` times each.

    Trial seeds are derived without the period so noise/slip draws are shared
    across periods (common random numbers), which keeps the BER-vs-rate trend
    monotone instead of drowning it in sampling noise.  Every period's config
    is built, and so checked, once, before anything is calibrated or
    simulated.  The trials are one `channel._period_bers` call, which builds
    one table of steps for all of them and simulates each trial's distinct
    event orders once.
    """
    from . import channel  # deferred: channel builds reports out of this module

    if not periods:
        raise ValueError("periods must be non-empty")
    check_int("trials", trials, 1)
    for period in periods:
        cfg_template._replace(period=period)  # checks the period
    calibration = channel.calibrate_thresholds(cfg_template)
    trial_bers = channel._period_bers(cfg_template, periods, calibration, trials)
    return [SweepRow(period,
                     rate_kbps(period, cfg_template.encoding.bits_per_symbol),
                     cfg_template.encoding.name,
                     cfg_template.encoding.d_label,
                     trials,
                     sum(bers) / trials)
            for period, bers in zip(periods, zip(*trial_bers))]
