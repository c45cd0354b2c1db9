"""Grid3Config.validate(): typos and contradictions fail loudly."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, Grid3, Grid3Config


def test_default_config_validates():
    Grid3Config().validate()


def test_unknown_knob_suggests_the_real_one():
    config = Grid3Config()
    config.fair_shar = True  # typo'd attribute assignment
    with pytest.raises(ConfigurationError, match="fair_shar.*fair_share"):
        config.validate()


def test_unknown_matchmaking_value():
    with pytest.raises(ConfigurationError, match="smartt.*did you mean"):
        Grid3Config(matchmaking="smartt").validate()


def test_out_of_range_scalars():
    with pytest.raises(ConfigurationError, match="scale must be positive"):
        Grid3Config(scale=0).validate()
    with pytest.raises(ConfigurationError, match="probability"):
        Grid3Config(misconfig_probability=1.5).validate()
    with pytest.raises(ConfigurationError, match="per_site_throttle"):
        Grid3Config(per_site_throttle=0).validate()


def test_unknown_app_name():
    with pytest.raises(ConfigurationError, match="uscmss.*did you mean"):
        Grid3Config(apps=["uscmss"]).validate()


def test_grid3_init_validates():
    with pytest.raises(ConfigurationError):
        Grid3(Grid3Config(matchmaking="greedy"))


_WRONGLY_TYPED = [
    ("scale", "x"),
    ("scale", 10**400),
    ("duration_days", None),
    ("duration_days", float("inf")),
    ("misconfig_probability", None),
    ("seed", "3"),
    ("seed", True),
    ("per_site_throttle", 2.5),
    ("use_srm", "yes"),
    ("tracing", 1),
    ("apps", 5),
    ("apps", "ligo"),
    ("apps", [["ligo"]]),
]


@pytest.mark.parametrize("knob, value", _WRONGLY_TYPED,
                         ids=[f"{k}={v!r}"[:40] for k, v in _WRONGLY_TYPED])
def test_wrongly_typed_knob_is_a_configuration_error(knob, value):
    config = Grid3Config()
    setattr(config, knob, value)
    with pytest.raises(ConfigurationError, match=knob):
        config.validate()


@pytest.mark.parametrize("knob, value", [
    ("scale", 50),          # an int where a float is expected
    ("duration_days", 2),
    ("disk_scale", 2),
    ("fabric", {"sites": 30, "seed": 2}),
    ("apps", ["ligo", "sdss"]),
])
def test_well_typed_knob_validates(knob, value):
    config = Grid3Config()
    setattr(config, knob, value)
    config.validate()


_json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(f.name for f in fields(Grid3Config))), _json_like,
))
def test_validate_only_ever_raises_configuration_error(assignment):
    """Any JSON-like value on any knob either validates or is refused
    with a ConfigurationError, never another exception."""
    config = Grid3Config()
    for knob, value in assignment.items():
        setattr(config, knob, value)
    try:
        config.validate()
    except ConfigurationError:
        pass
