"""The package's export list names exactly what `import dirtysim` offers,
and its records follow one rule: every record is a named tuple, and a record
that checks its own fields does so in its `__new__`, which every rebuild runs."""

import copy
import importlib
import pickle
import pkgutil
import types

import pytest

import dirtysim
from dirtysim.cache import CacheGeometry, LatencyModel, WritePolicy
from dirtysim.channel import (BinaryEncoding, ChannelConfig, Encoding, MultiBitEncoding,
                              Thresholds)
from dirtysim.seeding import CheckedRecord

# Records that only carry a result, by module.
RESULTS = {"analysis": ("ErrorReport", "SweepRow"),
           "policy": ("EvictionExperimentResult", "DirtyEvictionResult"),
           "measurement": ("LatencySample",),
           "channel": ("ChannelReport", "GadgetResult")}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dirtysim import *", namespace)
    assert set(dirtysim.__all__) <= set(namespace)


def test_all_lists_every_public_attribute():
    public = {name for name, value in vars(dirtysim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(dirtysim.__all__) == len(set(dirtysim.__all__))
    assert set(dirtysim.__all__) == public


def test_every_record_is_a_named_tuple_and_the_checked_ones_check_in_new():
    modules = [importlib.import_module(f"dirtysim.{info.name}")
               for info in pkgutil.iter_modules(dirtysim.__path__)]
    records = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, tuple)
               and hasattr(value, "_fields") and value.__module__ == module.__name__}
    results = {getattr(getattr(dirtysim, module), name)
               for module, names in RESULTS.items() for name in names}
    assert results <= records
    for cls in records:
        # No class of a record, nor any of its bases, gives an instance a __dict__.
        assert cls._fields and cls.__dictoffset__ == 0, cls
    # A cache kept on an instance, as Encoding once kept its lookup tables,
    # would need a __dict__; a sample of each checked record holds its fields alone.
    samples = [CacheGeometry(partition={"sender": range(4)}), LatencyModel(jitter=1),
               MultiBitEncoding(), ChannelConfig(message="0110"), Thresholds((1.0, 2.0))]
    for sample in samples:
        assert len(sample) == len(sample._fields) and not hasattr(sample, "__dict__"), sample
    # The records that check their own fields are exactly the subclasses of a
    # named tuple that define `__new__` in their own class body (a plain named
    # tuple's class holds the generated one), and each rebuilds through it.
    checked = {cls for cls in records if tuple not in cls.__bases__ and "__new__" in vars(cls)}
    assert checked == {type(sample) for sample in samples}
    for cls in checked:
        assert cls._make.__func__ is CheckedRecord._make.__func__, cls


# One valid sample of each record that checks its own fields.
SAMPLES = {CacheGeometry: CacheGeometry(), LatencyModel: LatencyModel(),
           Encoding: BinaryEncoding(), ChannelConfig: ChannelConfig(message="0110"),
           Thresholds: Thresholds((100.0,))}

# Per field of each sample: a value its record accepts, and one it rejects
# (None where the field has no check of its own).
FIELDS = [
    (CacheGeometry, "associativity", 4, 6),
    (CacheGeometry, "write_policy", WritePolicy.WRITE_THROUGH_NO_ALLOCATE, None),
    (CacheGeometry, "partition", {"sender": range(4)}, {"sender": []}),
    (LatencyModel, "hit", 5, -1),
    (LatencyModel, "miss_clean", 12, 1.5),
    (LatencyModel, "miss_dirty", 30, True),
    (LatencyModel, "jitter", 2, -1),
    (Encoding, "levels", [0, 2], (0, 0)),
    (Encoding, "name", "multibit", "ternary"),
    (ChannelConfig, "message", "01", ""),
    (ChannelConfig, "encoding", BinaryEncoding(2), MultiBitEncoding((0, 3, 5, 9))),
    (ChannelConfig, "period", 3, 1),
    (ChannelConfig, "rset_size", 8, 7),
    (ChannelConfig, "noise_rate", 0.5, 1.5),
    (ChannelConfig, "noise_write_prob", 1, -0.5),
    (ChannelConfig, "seed", 7, True),
    (ChannelConfig, "slip", 2, 2.5),
    (ChannelConfig, "geometry", CacheGeometry(4), CacheGeometry(partition={"sender": range(4)})),
    (ChannelConfig, "policy", "tree-plru", "mru"),
    (ChannelConfig, "latency", LatencyModel(jitter=1), None),
    (Thresholds, "cuts", [1, 2], (2.0, 1.0)),
]
BAD = [(cls, name, bad) for cls, name, _, bad in FIELDS if bad is not None]
BAD_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in BAD]


def with_field(cls, name, value) -> list:
    """The values of `cls`'s sample, with field `name` set to `value`."""
    return [value if field == name else old for field, old in SAMPLES[cls]._asdict().items()]


def rebuilds(cls, name, value):
    """Every way to build a record from `cls`'s sample with `name` set to `value`."""
    sample = SAMPLES[cls]
    yield lambda: sample._replace(**{name: value})
    yield lambda: cls._make(with_field(cls, name, value))
    if hasattr(copy, "replace"):  # Python 3.13 and later
        yield lambda: copy.replace(sample, **{name: value})


def constructor_error(cls, name, value) -> Exception:
    """What the constructor raises for `cls`'s sample with `name` set to `value`."""
    with pytest.raises(Exception) as built:
        cls(*with_field(cls, name, value))
    return built.value


def assert_raises_like(expected, call):
    """`call()` raises an exception of `expected`'s type, with its message."""
    with pytest.raises(Exception) as raised:
        call()
    assert type(raised.value) is type(expected) and str(raised.value) == str(expected)


def test_every_field_of_every_checked_record_has_a_case():
    assert [(cls, name) for cls, name, _, _ in FIELDS] == [
        (cls, name) for cls in SAMPLES for name in cls._fields]


@pytest.mark.parametrize("cls, name, good", [case[:3] for case in FIELDS],
                         ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in FIELDS])
def test_a_valid_rebuild_is_the_record_its_constructor_builds(cls, name, good):
    built = cls(*with_field(cls, name, good))
    for rebuild in rebuilds(cls, name, good):
        rebuilt = rebuild()
        assert type(rebuilt) is cls and rebuilt == built, rebuilt


@pytest.mark.parametrize("cls, name, bad", BAD, ids=BAD_IDS)
def test_a_rebuild_rejects_a_bad_field_as_its_constructor_does(cls, name, bad):
    # The stock `_make` is `tuple.__new__`, so `_replace` built a record with
    # the bad value and no check ran.
    expected = constructor_error(cls, name, bad)
    for rebuild in rebuilds(cls, name, bad):
        assert_raises_like(expected, rebuild)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_a_rebuild_rejects_an_unknown_field(cls):
    # Either type: newer Pythons raise TypeError where older ones raise ValueError.
    with pytest.raises((TypeError, ValueError),
                       match=r"^Got unexpected field names: \['bogus'\]$"):
        SAMPLES[cls]._replace(bogus=1)
    with pytest.raises(TypeError):
        cls(*SAMPLES[cls], 1)


@pytest.mark.parametrize("cls, name, bad", BAD, ids=BAD_IDS)
def test_a_copy_or_a_pickle_rebuilds_through_new(cls, name, bad):
    sample = SAMPLES[cls]
    # A record built around `__new__` does not survive a copy or a pickle.
    unchecked = tuple.__new__(cls, with_field(cls, name, bad))
    expected = constructor_error(cls, name, bad)
    for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        assert rebuild(sample) == sample and type(rebuild(sample)) is cls
        assert_raises_like(expected, lambda: rebuild(unchecked))
