"""Experiment runner: every capability behind a reproducible subcommand.

Each command takes an explicit seed (flag, config file, or DIRTYSIM_SEED) and
returns its CSV or JSON texts, whose bytes depend only on the configuration;
`gadget` is deterministic and ignores the seed.  `main` writes the texts,
checking every path after the first before any write (the first write checks
its own), so no command leaves part of its output behind.  JSON and the
trace CSV are rendered a `%` template per row (`_json`).  A config file
stands for flags placed before the command line's, which win: a key `k` with
value `v` is read as `--k=v`, a JSON list as its comma-joined text, and a
JSON null is skipped.  It may set only options of its command other than
--config, and each value meets its flag's type and choices exactly as on the
command line.  A config file that cannot be read, or an output path that
cannot be written, is a configuration error.  A run-channel whose probes hit
resident lines says so on stderr.  No option names a cache set: a `Cache` is
one set, so the channel, its calibration and latency-cdf each run in one, and
the trace CSV's `set` column is always 0.
Exit codes: 0 success, 2 configuration error, 3 threshold calibration failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import analysis, channel, measurement, policy
from .cache import CacheGeometry, LatencyModel, WritePolicy
from .seeding import check_int, random_bits

WAYS = CacheGeometry().associativity
DEFENSES = {  # --defense name -> the geometry the channel runs on
    "none": CacheGeometry(),
    "write-through": CacheGeometry(write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE),
    "partition": CacheGeometry(partition={channel.SENDER: range(WAYS // 2),
                                          channel.RECEIVER: range(WAYS // 2, WAYS)}),
}


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            values[key.replace("-", "_")] = json.loads(value)
        except json.JSONDecodeError:
            values[key.replace("-", "_")] = value
    return values


def _require_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DIRTYSIM_SEED")
    if env is None:
        raise ValueError("an explicit --seed is required (or set DIRTYSIM_SEED)")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"DIRTYSIM_SEED={env!r} is not an integer") from None


def _check_writable(*paths):
    """Raise OSError if a path cannot be opened for writing; create no file."""
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header, rows):
    """A table: the header line, then each of `rows`, a line already joined."""
    return "\n".join((header, *rows)) + "\n"


def _json(obj):
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"` for dicts with `str` keys, lists,
    tuples, `str`, `int`, `float`, `bool` and `None`.  json's indent encoder is pure Python, so
    rows of one length whose columns hold only exact `int`s or `str`s take a `%` template."""
    return _render(obj, "\n") + "\n"


def _render(obj, newline):
    """`obj` as `_json`'s text, each of its inner lines led by `newline`."""
    inner, quote = newline + "  ", json.encoder.encode_basestring_ascii
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{quote(key)}: {_render(value, inner)}" for key, value in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", None
        if set(map(type, obj)) <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]:
            columns = list(zip(*obj))
            kinds = [set(map(type, column)) for column in columns]  # exact: a bool is no int
            if all(kind in ({int}, {str}) for kind in kinds):
                template = "[" + ",".join([inner + "  %s"] * len(kinds)) + inner + "]"
                columns = [map(quote, c) if k == {str} else c for c, k in zip(columns, kinds)]
                items = list(map(template.__mod__, zip(*columns)))
        if items is None:
            items = [_render(item, inner) for item in obj]
    else:
        return json.dumps(obj)  # json's own text for NaN, -0.0, true and strings
    opening, closing = brackets
    return opening + inner + ("," + inner).join(items) + newline + closing if items else brackets


def _encoding(args):
    if args.encoding == "multibit":
        if args.d_one is not None:
            raise ValueError("--d-one applies only to --encoding binary")
        if args.levels is None:
            return channel.MultiBitEncoding()
        return channel.MultiBitEncoding(_int_list(args.levels, "levels"))
    if args.levels is not None:
        raise ValueError("--levels applies only to --encoding multibit")
    if args.d_one is None:
        return channel.BinaryEncoding()
    return channel.BinaryEncoding(args.d_one)


def _channel_config(args, seed, period):
    """The channel the options describe, at `period`."""
    message = args.message
    if message is None:
        check_int("message_bits", args.message_bits, 1)
        message = random_bits(args.message_bits, seed)
    return channel.ChannelConfig(
        encoding=_encoding(args),
        period=period,
        rset_size=args.rset_size,
        message=message,
        noise_rate=args.noise_rate,
        noise_write_prob=args.noise_write_prob,
        seed=seed,
        slip=args.slip,
        geometry=DEFENSES[args.defense],
        policy=args.policy,
        latency=LatencyModel(jitter=args.jitter),
    )


def _int_list(text, name, low=0):
    """Integers from text split at commas, spaces or '|'."""
    try:
        values = [int(v) for v in text.replace(",", " ").replace("|", " ").split()]
    except ValueError:  # an item that is no integer fails like an empty list
        values = []
    if not values or min(values) < low:
        raise ValueError(f"{name} must be a non-empty list of integers >= {low}")
    return values


# -- commands ----------------------------------------------------------------

def cmd_evict_prob(args):
    seed = _require_seed(args)
    ns = _int_list(args.n, "n", low=1)
    curve = policy.eviction_distance_experiment(args.policy, max(ns), args.trials,
                                                seed).evicted_within
    return {args.out: _csv("policy,N,trials,fraction",
                           (f"{args.policy},{n},{args.trials},{curve[n - 1]:.4f}"
                            for n in ns))}


def cmd_dirty_evict(args):
    seed = _require_seed(args)
    ds = _int_list(args.d, "d")
    ls = _int_list(args.l, "l", low=1)
    curves = policy.dirty_eviction_experiment(ds, max(ls), args.trials, seed).curves
    return {args.out: _csv("d,L,trials,mc_fraction,analytic_p", (
        f"{d},{l},{args.trials},{curves[d][l - 1]:.4f},"
        f"{policy.analytic_dirty_eviction_probability(WAYS, d, l):.4f}"
        for d in sorted(ds) for l in sorted(ls)))}


def cmd_latency_cdf(args):
    seed = _require_seed(args)
    table = measurement.latency_cdf(
        _int_list(args.d_values, "d-values"), args.trials, seed, policy=args.policy,
        latency=LatencyModel(jitter=args.jitter), rset_size=args.rset_size)
    return {args.out: _csv("d,trial,total_cycles",
                           (f"{d},{trial},{total}" for d, samples in table
                            for trial, total in enumerate(samples)))}


def cmd_run_channel(args):
    seed = _require_seed(args)
    report = channel.run_channel(_channel_config(args, seed, args.period))
    latency_trace = report.latency_trace
    # The receiver's accesses are the prime, all fills, and the probes, so
    # any hit is a probe that found its line resident.
    hits = report.counters[measurement.RECEIVER]["l1_hits"]
    if hits:
        print(f"warning: {hits} probe accesses hit resident lines "
              f"in {len(latency_trace)} decodes", file=sys.stderr)
    outputs = {}
    if args.trace:
        # A `TraceEvent`'s fields are the columns in order, but for `set`.
        outputs[args.trace] = _csv(
            "cycle,actor,action,set,d,latency,decoded_bit,truth_bit",
            map("%s,%s,%s,0,%s,%s,%s,%s".__mod__, report.events))
    fields = report._asdict()
    del fields["events"]
    outputs[args.out] = _json({**fields, "latency_trace": latency_trace})
    return outputs


def cmd_sweep(args):
    seed = _require_seed(args)
    periods = _int_list(args.periods, "periods")
    cfg = _channel_config(args, seed, periods[0])  # each run sets its own period
    rows = analysis.sweep_ber_vs_rate(cfg, periods, args.trials)
    return {args.out: _csv("period_cycles,rate_kbps,encoding,d,trials,mean_ber", (
        f"{row.period_cycles},{row.rate_kbps:.3f},{row.encoding},"
        f"{row.d_label},{row.trials},{row.mean_ber:.4f}" for row in rows))}


def cmd_gadget(args):
    result = channel.run_gadget_attack(args.variant, args.scenario, args.secret)
    return {args.out: _json(result._asdict())}


# -- parser ------------------------------------------------------------------

def _add_common(sub, trials=None):
    """Options of every command; `trials` is the default of its --trials, if any."""
    sub.add_argument("--seed", type=int)
    if trials is not None:
        sub.add_argument("--trials", type=int, default=trials)
    sub.add_argument("--out")
    sub.add_argument("--config")


def _add_cache_options(sub):
    sub.add_argument("--policy", choices=policy.POLICIES, default="lru")
    sub.add_argument("--jitter", type=int, default=0)
    sub.add_argument("--rset-size", type=int, default=measurement.DEFAULT_RSET_SIZE)


def _add_channel_options(sub):
    _add_cache_options(sub)
    sub.add_argument("--encoding", choices=("binary", "multibit"), default="binary")
    sub.add_argument("--d-one", type=int)
    sub.add_argument("--levels")
    sub.add_argument("--message")
    sub.add_argument("--message-bits", type=int, default=128)
    sub.add_argument("--noise-rate", type=float, default=0.0)
    sub.add_argument("--noise-write-prob", type=float, default=0.0)
    sub.add_argument("--defense", choices=DEFENSES, default="none")
    sub.add_argument("--slip", type=int, default=0)


@functools.cache  # built once: nothing changes it, so every call shares it
def build_parser():
    # Flags are spelled in full: an abbreviation could read --period as --periods.
    parser = argparse.ArgumentParser(
        prog="dirtysim", allow_abbrev=False,
        description="Write-back cache covert-channel simulator and experiment runner")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return commands.add_parser(name, help=summary, allow_abbrev=False)

    p = command("evict-prob", "eviction probability vs replacement-set size")
    _add_common(p, trials=10000)
    p.add_argument("--policy", choices=policy.POLICIES, default="lru")
    p.add_argument("--n", default="8,9,10", help="replacement-set sizes, e.g. '8,9,10'")

    p = command("dirty-evict", "dirty-line eviction under random replacement")
    _add_common(p, trials=10000)
    p.add_argument("--d", default="2,3", help="dirty-line counts, e.g. '2,3'")
    p.add_argument("--l", default="8,9,10,11,12,13",
                   help="replacement-set sizes, e.g. '8,9,10,11,12,13'")

    p = command("latency-cdf", "replacement-latency samples per dirty count")
    _add_common(p, trials=1000)
    p.add_argument("--d-values", default=",".join(map(str, range(WAYS + 1))))
    _add_cache_options(p)

    p = command("run-channel", "run the covert channel once")
    _add_common(p)
    _add_channel_options(p)
    p.add_argument("--period", type=int, default=5500)
    p.add_argument("--trace", help="also write a CSV event trace here")

    p = command("sweep", "mean BER across transmission periods")
    _add_common(p, trials=3)
    _add_channel_options(p)
    p.add_argument("--periods", default=",".join(map(str, analysis.DEFAULT_PERIODS)))

    p = command("gadget", "secret recovery through the three side-channel "
                "scenarios (LRU only; deterministic, ignores --seed)")
    _add_common(p)
    p.add_argument("--variant", choices=channel.VARIANTS, default="a")
    p.add_argument("--scenario", default="set-state-dirty",
                   help="set-state-dirty | prime-with-dirty | victim-timing (or 1|2|3)")
    p.add_argument("--secret", type=int, choices=(0, 1), default=1)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            flags = []
            for key, value in _load_config(args.config).items():
                if key in ("command", "config") or not hasattr(args, key):
                    raise ValueError(f"unknown config key {key!r} for {args.command}")
                if isinstance(value, list):
                    value = ",".join(map(str, value))
                if value is not None:  # a JSON null leaves the option unset
                    flags.append(f"--{key.replace('_', '-')}={value}")
            # The file's flags go first, so the command line's win.
            args = build_parser().parse_args([argv[0], *flags, *argv[1:]])
        # Found by name on each call, so a wrapper set on this module is what runs.
        outputs = globals()["cmd_" + args.command.replace("-", "_")](args)
        # Every path but the first before any write, so one that cannot be
        # written leaves no output behind; the first write checks its own.
        _check_writable(*list(outputs)[1:])
        for path, text in outputs.items():
            _emit(text, path)
        return 0
    except channel.CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
