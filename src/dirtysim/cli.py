"""Experiment runner: every capability behind a reproducible subcommand.

Each command takes an explicit seed (flag, config file, or DIRTYSIM_SEED) and
emits CSV or JSON whose bytes depend only on the configuration.  A config
file may set only the options of its command.  Exit codes: 0 success,
2 configuration error, 3 threshold calibration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import analysis, channel, measurement, policy
from .cache import CacheGeometry, LatencyModel, WritePolicy
from .seeding import random_bits

DEFENSE_CHOICES = ("none", "write-through", "partition")


class ConfigError(ValueError):
    pass


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
            raise ConfigError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            values[key.replace("-", "_")] = json.loads(value)
        except json.JSONDecodeError:
            values[key.replace("-", "_")] = value
    return values


def _merge(args):
    """Config-file values fill any option the command line left at None."""
    if args.config:
        for key, value in _load_config(args.config).items():
            if key in ("command", "func") or not hasattr(args, key):
                raise ConfigError(f"unknown config key {key!r} for {args.command}")
            if getattr(args, key) is None:
                setattr(args, key, value)
    return args


def _require_seed(args):
    if args.seed is None:
        env = os.environ.get("DIRTYSIM_SEED")
        if env is not None:
            try:
                args.seed = int(env)
            except ValueError:
                raise ConfigError(f"DIRTYSIM_SEED={env!r} is not an integer") from None
    if args.seed is None:
        raise ConfigError("an explicit --seed is required (or set DIRTYSIM_SEED)")
    return int(args.seed)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _geometry(defense):
    defense = defense or "none"
    if defense == "none":
        return CacheGeometry()
    if defense == "write-through":
        return CacheGeometry(write_policy=WritePolicy.WRITE_THROUGH_NO_ALLOCATE)
    if defense == "partition":
        half = CacheGeometry().associativity // 2
        return CacheGeometry(partition={
            channel.SENDER: frozenset(range(half)),
            channel.RECEIVER: frozenset(range(half, 2 * half)),
        })
    raise ConfigError(f"unknown defense {defense!r}")


def _int_or(value, default):
    """An option as an int; `default` only when it was not given (0 is kept)."""
    return int(default if value is None else value)


def _latency(jitter):
    return LatencyModel(jitter=int(jitter or 0))


def _encoding(args):
    name = (args.encoding or "binary").lower()
    if name == "binary":
        return channel.BinaryEncoding(_int_or(args.d_one, 1))
    if name == "multibit":
        return channel.MultiBitEncoding(_int_list(args.levels, (0, 3, 5, 8), "levels"))
    raise ConfigError(f"unknown encoding {name!r}")


def _channel_config(args, seed):
    if args.message is None:
        message = random_bits(_int_or(args.message_bits, 128), seed)
    else:
        message = str(args.message)  # a config file's 1111 decodes as an int
    noise = channel.NoiseConfig(rate=float(args.noise_rate or 0.0),
                                kind_mix=float(args.noise_write_prob or 0.0))
    return channel.ChannelConfig(
        encoding=_encoding(args),
        t_s=_int_or(args.period, 5500),
        target_set=int(args.target_set or 0),
        rset_size=_int_or(args.rset_size, measurement.DEFAULT_RSET_SIZE),
        message=message,
        noise=noise,
        seed=seed,
        slip=int(args.slip or 0),
        geometry=_geometry(args.defense),
        policy=args.policy or "lru",
        latency=_latency(args.jitter),
    )


def _int_list(raw, default, name, low=0):
    """Integers separated by commas, spaces or '|', or a JSON config list."""
    if raw is None:
        return default
    if not isinstance(raw, (list, tuple)):
        raw = str(raw).replace(",", " ").replace("|", " ").split()
    values = [int(v) for v in raw]
    if not values or min(values) < low:
        raise ConfigError(f"{name} must be a non-empty list of integers >= {low}")
    return values


# -- commands ----------------------------------------------------------------

def cmd_evict_prob(args):
    seed = _require_seed(args)
    trials = _int_or(args.trials, 10000)
    ns = _int_list(args.n, [8, 9, 10], "n", low=1)
    pol = args.policy or "lru"
    curve = policy.eviction_distance_experiment(pol, max(ns), trials, seed).evicted_within
    lines = ["policy,N,trials,fraction"]
    for n in ns:
        lines.append(f"{pol},{n},{trials},{curve[n - 1]:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_dirty_evict(args):
    seed = _require_seed(args)
    trials = _int_or(args.trials, 10000)
    ds = _int_list(args.d, [2, 3], "d")
    ls = _int_list(args.l, [8, 9, 10, 11, 12, 13], "l", low=1)
    ways = CacheGeometry().associativity
    lines = ["d,L,trials,mc_fraction,analytic_p"]
    for d in sorted(ds):
        curve = policy.dirty_eviction_experiment(d, max(ls), trials, seed).evicted_within
        for l in sorted(ls):
            analytic = policy.analytic_dirty_eviction_probability(ways, d, l)
            lines.append(f"{d},{l},{trials},{curve[l - 1]:.4f},{analytic:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_latency_cdf(args):
    seed = _require_seed(args)
    trials = _int_or(args.trials, 1000)
    ways = CacheGeometry().associativity
    ds = _int_list(args.d_values, list(range(ways + 1)), "d-values")
    table = measurement.latency_cdf(
        ds, trials, seed, policy=args.policy or "lru", latency=_latency(args.jitter),
        target_set=int(args.target_set or 0),
        rset_size=_int_or(args.rset_size, measurement.DEFAULT_RSET_SIZE))
    lines = ["d,trial,total_cycles"]
    for d, samples in table:
        for trial, total in enumerate(samples):
            lines.append(f"{d},{trial},{total}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_run_channel(args):
    seed = _require_seed(args)
    cfg = _channel_config(args, seed)
    report = channel.run_channel(cfg)
    _emit(report.to_json(), args.out)
    if args.trace:
        rows = ["cycle,actor,action,set,d,latency,decoded_bit,truth_bit"]
        for ev in report.events:
            rows.append(f"{ev.cycle},{ev.actor},{ev.action},{cfg.target_set},"
                        f"{ev.d},{ev.latency},{ev.decoded_bits},{ev.truth_bits}")
        _emit("\n".join(rows) + "\n", args.trace)
    return 0


def cmd_sweep(args):
    seed = _require_seed(args)
    periods = _int_list(args.periods, list(analysis.DEFAULT_PERIODS), "periods")
    trials = _int_or(args.trials, 3)
    cfg = _channel_config(args, seed)
    rows = analysis.sweep_ber_vs_rate(cfg, periods, trials)
    lines = ["period_cycles,rate_kbps,encoding,d,trials,mean_ber"]
    for row in rows:
        lines.append(f"{row.period_cycles},{row.rate_kbps:.3f},{row.encoding},"
                     f"{row.d_label},{row.trials},{row.mean_ber:.4f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gadget(args):
    seed = _int_or(args.seed, 0)
    result = channel.run_gadget_attack(
        args.variant or "a", args.scenario or "set-state-dirty",
        _int_or(args.secret, 1), seed,
        line0_set=None if args.line0_set is None else int(args.line0_set),
        line1_set=None if args.line1_set is None else int(args.line1_set))
    _emit(json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True) + "\n", args.out)
    return 0


# -- parser ------------------------------------------------------------------

def _add_common(sub, trials=True):
    sub.add_argument("--seed", type=int, default=None)
    if trials:
        sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--config", default=None)


def _add_channel_options(sub):
    sub.add_argument("--encoding", choices=("binary", "multibit"), default=None)
    sub.add_argument("--d-one", dest="d_one", type=int, default=None)
    sub.add_argument("--levels", default=None)
    sub.add_argument("--period", type=int, default=None)
    sub.add_argument("--message", default=None)
    sub.add_argument("--message-bits", dest="message_bits", type=int, default=None)
    sub.add_argument("--noise-rate", dest="noise_rate", type=float, default=None)
    sub.add_argument("--noise-write-prob", dest="noise_write_prob", type=float, default=None)
    sub.add_argument("--defense", choices=DEFENSE_CHOICES, default=None)
    sub.add_argument("--policy", choices=policy.POLICIES, default=None)
    sub.add_argument("--jitter", type=int, default=None)
    sub.add_argument("--slip", type=int, default=None)
    sub.add_argument("--target-set", dest="target_set", type=int, default=None)
    sub.add_argument("--rset-size", dest="rset_size", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dirtysim",
        description="Write-back cache covert-channel simulator and experiment runner")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("evict-prob", help="eviction probability vs replacement-set size")
    _add_common(p)
    p.add_argument("--policy", choices=policy.POLICIES, default=None)
    p.add_argument("--n", default=None, help="replacement-set sizes, e.g. '8,9,10'")
    p.set_defaults(func=cmd_evict_prob)

    p = commands.add_parser("dirty-evict", help="dirty-line eviction under random replacement")
    _add_common(p)
    p.add_argument("--d", default=None, help="dirty-line counts, e.g. '2,3'")
    p.add_argument("--l", default=None, help="replacement-set sizes, e.g. '8,9,10,11,12,13'")
    p.set_defaults(func=cmd_dirty_evict)

    p = commands.add_parser("latency-cdf", help="replacement-latency samples per dirty count")
    _add_common(p)
    p.add_argument("--d-values", dest="d_values", default=None)
    p.add_argument("--policy", choices=policy.POLICIES, default=None)
    p.add_argument("--jitter", type=int, default=None)
    p.add_argument("--target-set", dest="target_set", type=int, default=None)
    p.add_argument("--rset-size", dest="rset_size", type=int, default=None)
    p.set_defaults(func=cmd_latency_cdf)

    p = commands.add_parser("run-channel", help="run the covert channel once")
    _add_common(p, trials=False)
    _add_channel_options(p)
    p.add_argument("--trace", default=None, help="also write a CSV event trace here")
    p.set_defaults(func=cmd_run_channel)

    p = commands.add_parser("sweep", help="mean BER across transmission periods")
    _add_common(p)
    _add_channel_options(p)
    p.add_argument("--periods", default=None)
    p.set_defaults(func=cmd_sweep)

    p = commands.add_parser("gadget", help="secret recovery through the three side-channel "
                            "scenarios (LRU only)")
    _add_common(p, trials=False)
    p.add_argument("--variant", choices=channel.VARIANTS, default=None)
    p.add_argument("--scenario", default=None,
                   help="set-state-dirty | prime-with-dirty | victim-timing (or 1|2|3)")
    p.add_argument("--secret", type=int, choices=(0, 1), default=None)
    p.add_argument("--line0-set", dest="line0_set", type=int, default=None)
    p.add_argument("--line1-set", dest="line1_set", type=int, default=None)
    p.set_defaults(func=cmd_gadget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge(args)
        return args.func(args)
    except channel.CalibrationError as exc:
        print(f"calibration failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
