"""Grid3Config.canonical_digest: the cache key's stability contract.

The grid-as-a-service result cache keys on this digest, so two spellings
of the same run must collide and any semantic difference must not.
"""

import pytest

from repro import ConfigurationError, Grid3Config
from repro.failures import FailureProfile, FailureSchedule


def test_digest_is_deterministic():
    assert Grid3Config().canonical_digest() == Grid3Config().canonical_digest()


def test_digest_is_hex_sha256():
    digest = Grid3Config().canonical_digest()
    assert len(digest) == 64
    int(digest, 16)  # parses as hex


def test_digest_differs_on_any_knob():
    base = Grid3Config().canonical_digest()
    assert Grid3Config(seed=43).canonical_digest() != base
    assert Grid3Config(scale=99.0).canonical_digest() != base
    assert Grid3Config(fair_share=True).canonical_digest() != base


def test_digest_is_container_order_insensitive_where_semantics_are():
    # Sets canonicalise sorted; list order is semantic and preserved.
    a = Grid3Config(apps=["uscms", "usatlas"]).canonical_digest()
    b = Grid3Config(apps=["usatlas", "uscms"]).canonical_digest()
    assert a != b  # app list order is meaningful (round-robin order)
    # Dict key order never matters (canonical JSON sorts keys).
    one = Grid3Config(fabric={"sites": 30, "seed": 1})
    two = Grid3Config(fabric={"seed": 1, "sites": 30})
    assert one.canonical_digest() == two.canonical_digest()


def test_digest_handles_failure_profile_and_schedule():
    calm = Grid3Config(failures=FailureProfile.calm()).canonical_digest()
    early = Grid3Config(failures=FailureProfile.early()).canonical_digest()
    assert calm != early
    schedule = FailureSchedule([(0.0, FailureProfile.early()),
                                (100.0, FailureProfile.calm())])
    scheduled = Grid3Config(failures=schedule).canonical_digest()
    assert scheduled not in (calm, early)
    # Era insertion order does not matter (the schedule sorts).
    flipped = FailureSchedule([(100.0, FailureProfile.calm()),
                               (0.0, FailureProfile.early())])
    assert Grid3Config(failures=flipped).canonical_digest() == scheduled


def test_digest_rejects_non_plain_values_with_knob_path():
    config = Grid3Config()
    config.failures = object()  # passes validate, cannot be a cache key
    with pytest.raises(ConfigurationError, match="failures"):
        config.canonical_digest()


def test_digest_validates_first():
    with pytest.raises(ConfigurationError):
        Grid3Config(scale=-1.0).canonical_digest()
