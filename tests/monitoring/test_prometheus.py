"""Prometheus exposition: grammar, latest-per-series, grid rendering."""

import re
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.core import MetricSample, MetricStore, make_tags
from repro.monitoring.prometheus import (
    escape_label_value,
    format_value,
    grid_exposition,
    grid_stores,
    render_flat,
    render_line,
    render_store,
    sanitize_name,
)


def test_sanitize_name():
    assert sanitize_name("service.gatekeeper.up") == "service_gatekeeper_up"
    assert sanitize_name("9lives") == "_9lives"
    assert sanitize_name("ok_name:x") == "ok_name:x"
    assert sanitize_name("") == "_"


def test_escape_label_value():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


def test_format_value():
    assert format_value(3.0) == "3"
    assert format_value(0.25) == "0.25"
    assert format_value(float("nan")) == "NaN"
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"


def test_render_line_with_and_without_labels():
    assert render_line("a.b", 1.0) == "a_b 1"
    line = render_line("up", 0.0, (("site", "UBuffalo-CCR"), ("role", "gk")))
    assert line == 'up{site="UBuffalo-CCR",role="gk"} 0'


def test_latest_per_series_takes_newest_per_tag_set():
    store = MetricStore()
    tags_a = make_tags(site="A")
    tags_b = make_tags(site="B")
    store.append(MetricSample(1.0, "up", 1.0, tags_a))
    store.append(MetricSample(2.0, "up", 0.0, tags_a))
    store.append(MetricSample(3.0, "up", 1.0, tags_b))
    per = store.latest_per_series("up")
    assert len(per) == 2
    assert per[tags_a].value == 0.0 and per[tags_a].time == 2.0
    assert per[tags_b].value == 1.0
    assert store.latest_per_series("missing") == {}


def test_render_store_groups_families_consecutively():
    store = MetricStore()
    store.append(MetricSample(1.0, "svc.up", 1.0, make_tags(site="A")))
    store.append(MetricSample(1.0, "svc.up", 0.0, make_tags(site="B")))
    store.append(MetricSample(1.0, "svc.load", 0.5))
    lines = render_store(store, prefix="x_")
    # Every family: one # TYPE header immediately followed by its lines.
    type_idx = [i for i, l in enumerate(lines) if l.startswith("# TYPE")]
    assert len(type_idx) == 2
    for i, l in enumerate(lines):
        if not l.startswith("# TYPE"):
            family = l.split("{")[0].split(" ")[0]
            assert f"# TYPE {family} gauge" in lines[:i]
    assert 'x_svc_up{site="A"} 1' in lines
    assert 'x_svc_up{site="B"} 0' in lines


def test_render_flat_sorted_with_headers():
    lines = render_flat({"b": 2.0, "a": 1.0})
    assert lines == [
        "# TYPE a gauge", "a 1", "# TYPE b gauge", "b 2",
    ]


def test_grid_exposition_on_tiny_run():
    from repro.core.grid3 import Grid3, Grid3Config
    # 0.25 sim-days: enough for several hourly service-health polls, so
    # the estate stores actually carry samples.
    grid = Grid3(Grid3Config(scale=3000.0, duration_days=0.25,
                             apps=["exerciser"], seed=7))
    events = []
    grid.run_full(progress=lambda e: events.append(e))
    text = grid_exposition(grid, progress=events[-1].as_dict())
    lines = text.splitlines()
    assert text.endswith("\n")

    stores = grid_stores(grid)
    assert "service-health" in stores and "acdc" not in stores

    # Kernel + fabric + per-VO jobs + progress + estate stores.
    assert any(l.startswith("repro_engine_events_dispatched ")
               for l in lines)
    assert "repro_sites 27" in lines
    assert any(l.startswith('repro_jobs_completed{vo="ivdgl"} ')
               for l in lines)
    assert "repro_run_progress_frac 1" in lines
    assert any(l.startswith("repro_service_health_service_gatekeeper_up{")
               for l in lines)

    # Valid v0.0.4: every sample line's family has a TYPE header, and
    # family lines are consecutive (Prometheus rejects interleaving).
    seen_types = set()
    last_family = None
    families_done = set()
    for line in lines:
        if line.startswith("# TYPE"):
            family = line.split()[2]
            assert family not in seen_types, f"duplicate TYPE {family}"
            seen_types.add(family)
            if last_family is not None:
                families_done.add(last_family)
            last_family = family
        elif line:
            family = line.split("{")[0].split(" ")[0]
            assert family == last_family, f"interleaved family {family}"
            assert family not in families_done


# -- the scrape against a per-sample reference ------------------------------
#
# The functions below are the exposition as it was before the scrape
# cached label parts: every sample line re-sanitises its family name and
# re-escapes every label.  The scrape must render the same bytes.

_REF_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_REF_FIRST_OK = re.compile(r"^[a-zA-Z_:]")


def _ref_sanitize_name(name):
    out = _REF_NAME_OK.sub("_", name)
    if not out or not _REF_FIRST_OK.match(out):
        out = "_" + out
    return out


def _ref_escape_label_value(value):
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _ref_format_value(value):
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if number != number:
        return "NaN"
    if number in (float("inf"), -float("inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _ref_render_line(name, value, tags=()):
    labels = ",".join(
        f'{_ref_sanitize_name(k)}="{_ref_escape_label_value(str(v))}"'
        for k, v in tags
    )
    body = f"{{{labels}}}" if labels else ""
    return f"{_ref_sanitize_name(name)}{body} {_ref_format_value(value)}"


def _ref_render_store(store, prefix=""):
    lines = []
    for name in store.names():
        per_series = store.latest_values(name)
        if not per_series:
            continue
        lines.append(f"# TYPE {_ref_sanitize_name(prefix + name)} gauge")
        for tags in sorted(per_series):
            lines.append(_ref_render_line(prefix + name, per_series[tags], tags))
    return lines


def _ref_render_flat(gauges, prefix=""):
    lines = []
    for name in sorted(gauges):
        lines.append(f"# TYPE {_ref_sanitize_name(prefix + name)} gauge")
        lines.append(_ref_render_line(prefix + name, gauges[name]))
    return lines


def _ref_grid_exposition(grid):
    lines = _ref_render_flat({
        "engine_events_dispatched": float(grid.engine.dispatched),
        "engine_sim_seconds": float(grid.engine.now),
        "sites": float(len(grid.sites)),
        "tickets_total": float(len(grid.igoc.tickets)),
        "tickets_open": float(len(grid.igoc.tickets.open_tickets())),
    }, prefix="repro_")
    for counter in ("submitted", "completed", "failed"):
        family = f"repro_jobs_{counter}"
        lines.append(f"# TYPE {family} gauge")
        for vo in sorted(grid.condorg):
            lines.append(_ref_render_line(
                family, float(getattr(grid.condorg[vo], counter)),
                (("vo", vo),)))
    for store_name, store in grid_stores(grid).items():
        lines.extend(_ref_render_store(
            store, prefix=f"repro_{_ref_sanitize_name(store_name)}_"))
    return "\n".join(lines) + "\n"


class _Tickets(list):
    def open_tickets(self):
        return self[:1]


def _grid(stores):
    """The parts of a grid :func:`grid_exposition` reads, around ``stores``."""
    tally = SimpleNamespace(submitted=3, completed=2, failed=1)
    return SimpleNamespace(
        engine=SimpleNamespace(dispatched=41, now=7200.5),
        sites={"A": None, "B": None}, igoc=SimpleNamespace(tickets=_Tickets("xy")),
        condorg={"usatlas": tally, "ivdgl": tally}, monitors=stores)


def _store(families):
    """A MetricStore fed ``{name: [(tags, value), ...]}`` in order."""
    store = MetricStore()
    for name, series in families.items():
        for i, (tags, value) in enumerate(series):
            store.append(MetricSample(float(i), name, value, tags))
    return store


_NAMES = st.one_of(
    st.sampled_from(["svc.up", "9lives", "", "ünïcode.nämе", "a:b", "x-y z"]),
    st.text(max_size=6))
_LABEL_TEXT = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "new\nline", "", "ü"]),
    st.text(max_size=5))
# Numbers that compare equal across types: 1 == 1.0 == True, 0.0 == -0.0.
_LABEL_NUMBER = st.one_of(
    st.integers(-2, 2), st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, float("inf"), float("nan")]))
_VALUES = st.one_of(
    st.sampled_from([-0.0, 1e15 - 1, 1e15, 1e300, float("nan"), float("inf"),
                     -float("inf"), None, True, False, np.float64(2.0),
                     np.float64(-0.0), np.float64(0.1)]),
    st.integers(-10**16, 10**16), st.floats(),
    st.floats(allow_nan=False).map(np.float64))


def _family(label_values):
    # One value kind per family, so its tag tuples stay sortable.
    tags = st.lists(st.tuples(_NAMES, label_values), max_size=2).map(tuple)
    return st.lists(st.tuples(tags, _VALUES), max_size=4)


_FAMILY = st.one_of(_family(_LABEL_TEXT), _family(_LABEL_NUMBER))
_STORES = st.dictionaries(_NAMES, st.dictionaries(_NAMES, _FAMILY, max_size=4)
                          .map(_store), max_size=3)


class _Shout(str):
    """Equal to (and hashed like) its text, but renders upper-case."""

    def __str__(self):
        return self.upper()


#: Tag tuples that compare equal but render differently, one per name;
#: a cache keyed on the tuple alone prints the first one's labels for all.
_EQUAL_BUT_DIFFERENT = {
    "ints": [((("k", 1),), 1.0)],
    "floats": [((("k", 1.0),), 1.0)],
    "bools": [((("k", True),), 1.0)],
    "zero": [((("k", 0.0),), 1.0)],
    "minus_zero": [((("k", -0.0),), 1.0)],
    "plain": [((("k", "red"),), 1.0)],
    "shout": [((("k", _Shout("red")),), 1.0)],
}


@settings(max_examples=200, deadline=None)
@given(stores=_STORES)
def test_scrape_matches_per_sample_reference(stores):
    """``render_store`` and ``grid_exposition`` render, line for line,
    what the per-sample reference renders: escaping, sanitising and
    every value format, with the label cache shared across stores."""
    for name, store in stores.items():
        prefix = f"p_{name}."
        assert render_store(store, prefix) == _ref_render_store(store, prefix)
    grid = _grid(stores)
    assert (grid_exposition(grid).splitlines()
            == _ref_grid_exposition(grid).splitlines())


def test_equal_tag_tuples_keep_their_own_labels_in_one_scrape():
    stores = {"a": _store(_EQUAL_BUT_DIFFERENT),
              "b": _store({"m": [((("k", True),), 1.0)]})}
    text = grid_exposition(_grid(stores))
    assert text == _ref_grid_exposition(_grid(stores))
    lines = text.splitlines()
    for line in ('repro_a_ints{k="1"} 1', 'repro_a_floats{k="1.0"} 1',
                 'repro_a_bools{k="True"} 1', 'repro_a_zero{k="0.0"} 1',
                 'repro_a_minus_zero{k="-0.0"} 1', 'repro_a_plain{k="red"} 1',
                 'repro_a_shout{k="RED"} 1', 'repro_b_m{k="True"} 1'):
        assert line in lines


def test_format_value_edge_values_match_reference():
    for value in (-0.0, 1e15 - 1, 1e15, -1e15, 1e300, float("nan"),
                  float("inf"), -float("inf"), 3, 10**15, True, None, "2.5",
                  "x", np.float64(1e15), np.float64(0.5), np.float32(0.1)):
        assert format_value(value) == _ref_format_value(value), value
