"""List the functions in ``src/repro`` that no run reaches.

One process runs, under :mod:`cProfile`:

* the golden configs (``tests.golden.outputs.compute()``);
* every example except ``service_client.py``, with ``GRID3_SCALE=400``,
  each from a fresh temporary working directory;
* the CLI tests (``tests/test_cli.py``).

The profile's reached ``(filename, firstlineno)`` set is then joined
against an AST walk of ``src/repro``.  A code object's first line is
its first decorator's line when it has decorators, so a decorated
function is keyed there.  A function nested inside an unreached one is
not counted again: its lines are already inside its parent's.

It prints every unreached function outside ``service/`` and
``client.py`` (their own tests reach those), then one total line::

    unreached: <functions> functions, <lines> of <total> function lines

Run from the repo root (about 90 s on a 2-core box); progress
goes to standard error, the listing to standard output:

    PYTHONPATH=src python benchmarks/reachability.py > reachability.txt

The exit status is 1 if a workload raised.  With ``--check`` it is
also 1 if the unreached functions or the unreached lines grew past the
total line checked in at :data:`CEILING`, so the count can only
shrink: a change that deletes unreached code lowers that file to the
new total in the same commit.  The checked-in count was taken on
Python 3.11; whether other versions list the same functions is
unverified.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import os
import re
import runpy
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: Paths under ``src/repro`` left out of the listing and the total.
EXCLUDED = ("service/", "client.py")
#: Examples that need a live server; the service tests reach that code.
SKIPPED_EXAMPLES = ("service_client.py",)
#: The checked-in total line that ``--check`` holds the listing to.
CEILING = ROOT / "benchmarks" / "reachability_total.txt"

Reached = Set[Tuple[str, int]]


@dataclass(frozen=True)
class Function:
    """One ``def`` in the source tree, keyed the way cProfile keys it."""

    path: str          # resolved file path
    qualname: str
    first_line: int    # first decorator line, else the ``def`` line
    lines: int         # first_line .. end of body, inclusive


def _first_line(node: ast.AST) -> int:
    decorators = getattr(node, "decorator_list", [])
    return min([node.lineno] + [d.lineno for d in decorators])


def unreached_functions(path: str, tree: ast.AST, reached: Reached
                        ) -> Tuple[List[Function], int]:
    """The unreached functions of one module, and its total function lines.

    The total counts each outermost function (methods included) once;
    a nested function adds nothing to it.  An unreached function is
    listed, and its body is not searched further; a reached one is
    searched for unreached nested functions.
    """
    found: List[Function] = []
    total = 0

    def walk(node: ast.AST, prefix: str, inside_function: bool) -> None:
        nonlocal total
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", inside_function)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = _first_line(child)
                function = Function(path, prefix + child.name, first,
                                    child.end_lineno - first + 1)
                if not inside_function:
                    total += function.lines
                if (path, function.first_line) in reached:
                    walk(child, f"{function.qualname}.", True)
                else:
                    found.append(function)
            else:
                walk(child, prefix, inside_function)

    walk(tree, "", False)
    return found, total


def source_files(src: Path = SRC) -> List[Path]:
    """Every module under ``src`` outside :data:`EXCLUDED`."""
    files = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if not rel.startswith(EXCLUDED):
            files.append(path)
    return files


def join(files: Iterable[Path], reached: Reached
         ) -> Tuple[List[Function], int]:
    """All unreached functions across ``files``, and the total lines."""
    unreached: List[Function] = []
    total = 0
    for path in files:
        resolved = os.path.realpath(path)
        tree = ast.parse(Path(resolved).read_text(), filename=resolved)
        found, lines = unreached_functions(resolved, tree, reached)
        unreached.extend(found)
        total += lines
    return unreached, total


def render(unreached: List[Function], total: int, src: Path = SRC) -> str:
    """The listing: one ``file:line qualname (lines)`` row per function,
    then the total."""
    base = os.path.realpath(src)
    rows = [
        f"{os.path.relpath(f.path, base)}:{f.first_line} {f.qualname} "
        f"({f.lines})"
        for f in unreached
    ]
    missed = sum(f.lines for f in unreached)
    rows.append(f"unreached: {len(unreached)} functions, "
                f"{missed} of {total} function lines")
    return "\n".join(rows)


def parse_total(line: str) -> Tuple[int, int]:
    """(unreached functions, unreached lines) from a total line."""
    match = re.fullmatch(
        r"unreached: (\d+) functions, (\d+) of \d+ function lines",
        line.strip())
    if match is None:
        raise ValueError(f"not a reachability total line: {line!r}")
    return int(match.group(1)), int(match.group(2))


def growth(total: str, ceiling: str) -> List[str]:
    """What grew from the ``ceiling`` total line to ``total``; empty if
    neither the unreached functions nor the unreached lines did."""
    grew = []
    for what, now, cap in zip(("functions", "lines"), parse_total(total),
                              parse_total(ceiling)):
        if now > cap:
            grew.append(f"unreached {what} grew from {cap} to {now}")
    return grew


# -- the profiled workloads ---------------------------------------------------

def _golden() -> None:
    from tests.golden.outputs import compute
    compute()


def _example(path: Path) -> None:
    old_cwd = os.getcwd()
    old_scale = os.environ.get("GRID3_SCALE")
    os.environ["GRID3_SCALE"] = "400"
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                runpy.run_path(str(path), run_name="__main__")
            except SystemExit as stop:
                if stop.code not in (None, 0):
                    raise
    finally:
        os.chdir(old_cwd)
        if old_scale is None:
            os.environ.pop("GRID3_SCALE", None)
        else:
            os.environ["GRID3_SCALE"] = old_scale


def _cli_tests() -> None:
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_cli.py")])
    if code != 0:
        raise RuntimeError(f"tests/test_cli.py exited {code}")


def workloads() -> List[Tuple[str, object]]:
    """(label, thunk) for every profiled workload, in run order."""
    runs: List[Tuple[str, object]] = [("golden configs", _golden)]
    for path in sorted((ROOT / "examples").glob("*.py")):
        if path.name not in SKIPPED_EXAMPLES:
            runs.append((f"examples/{path.name}",
                         lambda path=path: _example(path)))
    runs.append(("tests/test_cli.py", _cli_tests))
    return runs


def profile_reached() -> Tuple[Reached, List[str]]:
    """Run every workload under one profiler; the reached set and the
    labels of workloads that raised."""
    failed: List[str] = []
    profiler = cProfile.Profile()
    for label, thunk in workloads():
        print(f"running {label}", file=sys.stderr)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                profiler.enable()
                try:
                    thunk()
                finally:
                    profiler.disable()
        except Exception:  # noqa: BLE001 - reported, the rest still run
            failed.append(label)
            print(f"{label} raised:\n{traceback.format_exc()}{sink.getvalue()}",
                  file=sys.stderr)
    profiler.create_stats()
    reached = {
        (os.path.realpath(filename), line)
        for filename, line, _name in profiler.stats
    }
    return reached, failed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 if the count grew past {CEILING.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    reached, failed = profile_reached()
    listing = render(*join(source_files(), reached))
    print(listing)
    status = 0
    if failed:
        print(f"workloads that raised: {', '.join(failed)}", file=sys.stderr)
        status = 1
    if args.check:
        grew = growth(listing.splitlines()[-1], CEILING.read_text())
        for line in grew:
            print(f"{line} (ceiling: {CEILING.relative_to(ROOT)})",
                  file=sys.stderr)
        if grew:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
