"""Request validation: every malformed submission maps to a SchemaError."""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Grid3Config
from repro.scenarios import SCENARIOS
from repro.service import (
    ERROR_CODES,
    ApiError,
    SchemaError,
    parse_pagination,
    parse_submission,
)
from repro.service.schemas import split_hint


def body(**payload):
    return json.dumps(payload).encode()


def test_empty_body_is_default_config():
    config = parse_submission(b"").config
    assert isinstance(config, Grid3Config)
    assert config.seed == Grid3Config().seed


def test_config_knobs_land():
    config = parse_submission(body(config={
        "scale": 3000, "duration_days": 0.05, "seed": 9,
        "apps": ["exerciser"], "tracing": True,
    })).config
    assert config.seed == 9
    assert config.apps == ["exerciser"]
    assert config.tracing is True
    # JSON integers are accepted for float knobs.
    assert config.scale == 3000.0 and isinstance(config.scale, float)


def test_scenario_base_with_overrides():
    config = parse_submission(body(scenario="contention",
                                   config={"seed": 11})).config
    assert config.fair_share is True  # the contention scenario's point
    assert config.seed == 11


def test_unknown_scenario_rejected():
    with pytest.raises(SchemaError, match="unknown scenario"):
        parse_submission(body(scenario="no-such-era"))


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError, match="unknown request key"):
        parse_submission(body(cfg={"scale": 5}))


def test_unknown_knob_gets_suggestion():
    for knob, message in (
        ("scal", "unknown Grid3Config knob 'scal'; did you mean 'scale'?"),
        # A removed knob is refused like any other unknown one.
        ("metrics_memory_budget_mb",
         "unknown Grid3Config knob 'metrics_memory_budget_mb'"),
        ("site_policies", "unknown Grid3Config knob 'site_policies'"),
    ):
        with pytest.raises(SchemaError) as excinfo:
            parse_submission(body(config={knob: 64}))
        assert str(excinfo.value) == message


def test_bad_knob_value_rejected():
    with pytest.raises(SchemaError, match="must be positive"):
        parse_submission(body(config={"scale": -1}))


def test_non_json_body_rejected():
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse_submission(b"{nope")


def test_non_object_body_rejected():
    with pytest.raises(SchemaError, match="must be a JSON object"):
        parse_submission(b"[1, 2]")


def test_failures_knob_not_settable_over_wire():
    with pytest.raises(SchemaError, match="not settable over the API"):
        parse_submission(body(config={"failures": {"node_mtbf": 1}}))


@pytest.mark.parametrize("raw, knob", [
    (b'{"config": {"tracing": "no"}}', "tracing"),
    (b'{"config": {"use_srm": 1}}', "use_srm"),
    (b'{"config": {"seed": "7"}}', "seed"),
    (b'{"config": {"seed": []}}', "seed"),
    (b'{"config": {"seed": true}}', "seed"),
    (b'{"config": {"seed": 1.5}}', "seed"),
    (b'{"config": {"duration_days": Infinity}}', "duration_days"),
    (b'{"config": {"duration_days": 1e400}}', "duration_days"),
    (b'{"config": {"duration_days": NaN}}', "duration_days"),
    pytest.param(b'{"config": {"scale": 1' + b"0" * 400 + b'}}', "scale",
                 id="scale-int-beyond-float-range"),
])
def test_wrongly_typed_or_non_finite_knob_rejected(raw, knob):
    with pytest.raises(SchemaError, match=f"knob '{knob}' must be"):
        parse_submission(raw)


@pytest.mark.parametrize("raw", [
    pytest.param(b'{"config": {"__class__": 1}}', id="dunder-knob"),
    pytest.param(b'{"config": {"seed": 1' + b"0" * 5000 + b'}}',
                 id="int-beyond-str-digit-limit"),
    pytest.param(b'{"client": "\xff"}', id="invalid-utf8"),
])
def test_hostile_bodies_are_400_not_500(raw):
    with pytest.raises(SchemaError):
        parse_submission(raw)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=6))
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_KNOBS = st.sampled_from(sorted(f.name for f in fields(Grid3Config)))


@settings(max_examples=300, deadline=None)
@given(payload=st.fixed_dictionaries({}, optional={
    "config": st.dictionaries(_KNOBS | st.text(max_size=8), _JSON,
                              max_size=5) | _JSON,
    "scenario": st.sampled_from(sorted(SCENARIOS)) | _JSON,
    "client": st.text(min_size=1, max_size=8) | _JSON,
    "lane": st.sampled_from(["interactive", "batch"]) | _JSON,
}) | st.dictionaries(st.text(max_size=8), _JSON, max_size=3))
def test_property_parsed_knobs_have_their_declared_types(payload):
    """Any JSON object either fails validation or yields a config whose
    bool and int knobs are exactly bool and int, and whose float knobs
    are finite floats."""
    try:
        config = parse_submission(json.dumps(payload).encode()).config
    except SchemaError:
        return
    for field in fields(Grid3Config):
        value = getattr(config, field.name)
        if isinstance(field.default, bool):
            assert type(value) is bool, field.name
        elif isinstance(field.default, int):
            assert type(value) is int, field.name
        elif isinstance(field.default, float):
            assert type(value) is float and math.isfinite(value), field.name


def test_config_must_be_object():
    with pytest.raises(SchemaError, match="'config' must be a JSON object"):
        parse_submission(body(config=[1]))


def test_pagination_defaults_and_parsing():
    assert parse_pagination({}) == (0, 500)
    assert parse_pagination({"offset": "10", "limit": "3"}) == (10, 3)


@pytest.mark.parametrize("query", [
    {"offset": "-1"}, {"limit": "0"}, {"offset": "x"}, {"limit": "1.5"},
])
def test_pagination_rejects_bad_values(query):
    with pytest.raises(SchemaError):
        parse_pagination(query)


def test_submission_defaults_to_anonymous_batch():
    request = parse_submission(b"")
    assert request.client == "anonymous" and request.lane == "batch"
    assert isinstance(request.config, Grid3Config)


def test_submission_client_and_lane_parse():
    request = parse_submission(body(config={"seed": 3},
                                    client="  uscms  ",
                                    lane="interactive"))
    assert request.client == "uscms"  # stripped
    assert request.lane == "interactive"


@pytest.mark.parametrize("client", ["", "   ", 7, None, "x" * 129])
def test_submission_bad_client_rejected(client):
    with pytest.raises(SchemaError, match="client"):
        parse_submission(body(client=client))


def test_submission_bad_lane_rejected():
    with pytest.raises(SchemaError, match="unknown lane"):
        parse_submission(body(lane="warp"))


def test_error_envelope_shape_and_hint_split():
    error = ApiError(code="bad_request", message="nope", hint="try this")
    assert json.loads(error.to_json()) == {
        "error": {"code": "bad_request", "message": "nope",
                  "hint": "try this"},
    }
    assert "bad_request" in ERROR_CODES
    message, hint = split_hint(
        "unknown knob 'scal'; did you mean 'scale'?")
    assert message == "unknown knob 'scal'"
    assert hint == "did you mean 'scale'?"
    assert split_hint("plain failure") == ("plain failure", "")


def test_validated_request_digests_stably():
    one = parse_submission(body(config={"seed": 5, "scale": 100})).config
    two = parse_submission(body(config={"scale": 100, "seed": 5})).config
    assert one.canonical_digest() == two.canonical_digest()


def test_request_carries_its_config_digest():
    request = parse_submission(body(config={"seed": 5, "scale": 100}))
    assert request.digest == request.config.canonical_digest()
