"""The reachability join (benchmarks/reachability.py) on a synthetic
reached set; no simulation runs."""

import ast
import os
import textwrap

from benchmarks import reachability

MODULE = textwrap.dedent('''\
    import functools


    def used():
        return 1


    def unused():
        def inner():
            return 2
        return inner


    @functools.lru_cache(maxsize=None)
    @functools.lru_cache(maxsize=1)
    def cached_unused():
        return 3


    class Thing:
        @property
        def value(self):
            return 4

        def helper(self):
            def nested_unused():
                return 5
            return 6
    ''')


def join(tmp_path, reached_lines):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    resolved = os.path.realpath(path)
    reached = {(resolved, line) for line in reached_lines}
    return reachability.join([path], reached)


def test_keys_decorated_functions_on_their_first_decorator(tmp_path):
    tree = ast.parse(MODULE)
    cached = next(n for n in tree.body
                  if getattr(n, "name", "") == "cached_unused")
    # The code object's co_firstlineno is the first decorator's line.
    assert cached.lineno == 16 and reachability._first_line(cached) == 14
    code = compile(MODULE, "mod.py", "exec")
    first_lines = {c.co_name: c.co_firstlineno for c in code.co_consts
                   if hasattr(c, "co_firstlineno")}
    assert first_lines["cached_unused"] == 14
    # Reaching line 14 reaches it; reaching its ``def`` line does not.
    unreached, _ = join(tmp_path, [4, 8, 14, 21, 25])
    assert "cached_unused" not in {f.qualname for f in unreached}
    unreached, _ = join(tmp_path, [4, 8, 16, 21, 25])
    assert "cached_unused" in {f.qualname for f in unreached}


def test_nested_functions_of_an_unreached_function_are_not_listed(tmp_path):
    # Only ``used`` (line 4) is reached: ``unused`` is listed once with its
    # whole body, and ``inner`` is not listed again.
    unreached, total = join(tmp_path, [4])
    rows = [(f.qualname, f.first_line, f.lines) for f in unreached]
    assert rows == [
        ("unused", 8, 4),
        ("cached_unused", 14, 4),
        ("Thing.value", 21, 3),
        ("Thing.helper", 25, 4),
    ]
    # Outermost functions and methods only: 2 + 4 + 4 + 3 + 4.
    assert total == 17


def test_unreached_functions_nested_in_reached_ones_are_listed(tmp_path):
    unreached, total = join(tmp_path, [4, 8, 14, 21, 25])
    rows = [(f.qualname, f.first_line, f.lines) for f in unreached]
    assert rows == [("unused.inner", 9, 2), ("Thing.helper.nested_unused", 26, 2)]
    assert total == 17


def test_render_prints_each_function_then_the_total(tmp_path):
    unreached, total = join(tmp_path, [4, 8, 14, 21, 25])
    text = reachability.render(unreached, total, src=tmp_path)
    assert text.splitlines() == [
        "mod.py:9 unused.inner (2)",
        "mod.py:26 Thing.helper.nested_unused (2)",
        "unreached: 2 functions, 4 of 17 function lines",
    ]


def test_service_and_client_are_excluded(tmp_path):
    for rel in ("service/app.py", "services/base.py", "client.py",
                "core/client.py", "cli.py"):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("")
    names = sorted(p.relative_to(tmp_path).as_posix()
                   for p in reachability.source_files(tmp_path))
    assert names == ["cli.py", "core/client.py", "services/base.py"]


def test_growth_names_each_count_that_grew():
    ceiling = "unreached: 10 functions, 80 of 900 function lines"
    assert reachability.growth(
        "unreached: 9 functions, 80 of 950 function lines", ceiling) == []
    assert reachability.growth(
        "unreached: 11 functions, 79 of 900 function lines", ceiling) == [
        "unreached functions grew from 10 to 11"]
    assert reachability.growth(
        "unreached: 11 functions, 83 of 900 function lines", ceiling) == [
        "unreached functions grew from 10 to 11",
        "unreached lines grew from 80 to 83"]


def test_checked_in_ceiling_is_a_total_line():
    functions, lines = reachability.parse_total(
        reachability.CEILING.read_text())
    assert 0 < functions < lines
