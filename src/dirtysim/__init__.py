"""dirtysim: deterministic simulator of write-back cache dirty-bit covert channels.

A set-associative L1 model with dirty bits and pluggable replacement
policies, a sender/receiver protocol that encodes symbols in the number of
dirty lines per cache set, replacement-latency measurement, error analysis,
and defense modes (write-through, way partitioning).
"""

from .analysis import (DEFAULT_PERIODS, ErrorReport, PreambleLockError,
                       align_by_preamble, bit_error_rate, edit_distance,
                       rate_kbps, sweep_ber_vs_rate)
from .cache import (AccessOutcome, Cache, CacheGeometry, LatencyModel,
                    OutcomeKind, WritePolicy, make_line)
from .channel import (BinaryEncoding, CalibrationError, ChannelConfig,
                      ChannelReport, Encoding, GadgetResult, MultiBitEncoding,
                      Thresholds, calibrate_thresholds, receiver_decode,
                      run_channel, run_gadget_attack, sender_encode)
from .measurement import (LatencySample, build_replacement_set, fill_set,
                          latency_cdf, measure_replacement_latency,
                          prime_dirty_probe, probe_totals)
from .policy import (DirtyEvictionResult, EvictionExperimentResult,
                     RandomPolicy, TreePLRU, TrueLRU,
                     analytic_dirty_eviction_probability,
                     dirty_eviction_experiment, eviction_distance_experiment,
                     make_policy)
from .seeding import derive_seed, random_bits

__version__ = "0.1.0"

__all__ = [
    "AccessOutcome", "BinaryEncoding", "Cache", "CacheGeometry",
    "CalibrationError", "ChannelConfig", "ChannelReport", "DEFAULT_PERIODS",
    "DirtyEvictionResult", "Encoding", "ErrorReport",
    "EvictionExperimentResult", "GadgetResult", "LatencyModel", "LatencySample",
    "MultiBitEncoding", "OutcomeKind", "PreambleLockError",
    "RandomPolicy", "Thresholds", "TreePLRU", "TrueLRU", "WritePolicy",
    "align_by_preamble", "analytic_dirty_eviction_probability",
    "bit_error_rate", "build_replacement_set", "calibrate_thresholds",
    "derive_seed", "dirty_eviction_experiment", "edit_distance",
    "eviction_distance_experiment", "fill_set", "latency_cdf", "make_line",
    "make_policy", "measure_replacement_latency", "prime_dirty_probe",
    "probe_totals", "random_bits", "rate_kbps", "receiver_decode", "run_channel",
    "run_gadget_attack", "sender_encode", "sweep_ber_vs_rate",
]
