"""Repository-consistency checks: examples, docs, and API surface agree.

These guard the open-source-release quality bar: every example compiles
and exposes main(), the README references real files, DESIGN's bench
index points at existing benches, and the public API exports resolve.
"""

import ast
import importlib
import pathlib
import re
import sys
import tokenize
from collections import Counter

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
BENCHES = sorted((REPO / "benchmarks").glob("bench_*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # the deliverable floor; we ship more


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    functions = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "main" in functions, f"{path.name} lacks a main()"
    # Run under a __main__ guard, not at import time.
    assert '__main__' in path.read_text()
    # Has a module docstring explaining itself.
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
def test_bench_parses_and_uses_benchmark_fixture(path):
    source = path.read_text()
    tree = ast.parse(source)
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    assert "benchmark" in source, f"{path.name} never uses the benchmark fixture"


def test_readme_references_real_examples():
    readme = (REPO / "README.md").read_text()
    for mentioned in re.findall(r"examples/(\w+\.py)", readme):
        assert (REPO / "examples" / mentioned).exists(), mentioned


def test_design_bench_index_points_at_real_files():
    design = (REPO / "DESIGN.md").read_text()
    for mentioned in re.findall(r"benchmarks/(bench_\w+\.py)", design):
        assert (REPO / "benchmarks" / mentioned).exists(), mentioned


def test_design_module_inventory_resolves():
    design = (REPO / "DESIGN.md").read_text()
    for module in set(re.findall(r"`(repro(?:\.\w+)+)`", design)):
        # Strip a trailing attribute if it's a function reference.
        parts = module.split(".")
        for depth in (len(parts), len(parts) - 1):
            try:
                importlib.import_module(".".join(parts[:depth]))
                break
            except ModuleNotFoundError:
                continue
        else:
            pytest.fail(f"DESIGN.md references unknown module {module}")


def test_design_layout_lists_existing_modules():
    """Every ``*.py`` in DESIGN.md's layout block exists, and every
    module under ``src/repro`` is listed.  A ``dir/`` token at indent 2
    names a subpackage; deeper-indented lines continue it; a line at
    column 0 names a repo-root directory."""
    design = (REPO / "DESIGN.md").read_text()
    block = design.split("## 4. Repository layout", 1)[1].split("```", 2)[1]
    src = REPO / "src" / "repro"
    listed, missing = set(), []
    directory = src
    for line in block.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] == "src/repro/":
            continue
        if not line.startswith(" "):
            directory = REPO / tokens[0]
            tokens = tokens[1:]
        elif not line.startswith("   "):
            directory = src
            if tokens[0].endswith("/"):
                directory = src / tokens[0]
                tokens = tokens[1:]
        for token in tokens:
            if token.endswith(".py"):
                path = directory / token
                listed.add(path)
                if not path.exists():
                    missing.append(str(path.relative_to(REPO)))
    assert missing == [], f"DESIGN.md layout lists missing files: {missing}"
    unlisted = sorted(
        str(path.relative_to(REPO)) for path in src.rglob("*.py")
        if path.name != "__init__.py" and path not in listed
    )
    assert unlisted == [], f"DESIGN.md layout omits: {unlisted}"


#: Called by ``http.server`` by name, never from this repo's code.
FRAMEWORK_CALLBACKS = {"do_GET", "do_POST", "log_message"}


def test_every_definition_is_referenced():
    """Each ``def``/``class`` name in ``src/repro`` appears as an
    identifier somewhere besides its own definitions: in ``src/``,
    ``tests/``, ``examples/``, ``benchmarks/`` or ``perfbench/``.
    Dunder methods are called by the language and are skipped."""
    definitions = Counter()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions[node.name] += 1
    identifiers = Counter()
    for top in ("src", "tests", "examples", "benchmarks", "perfbench"):
        for path in sorted((REPO / top).rglob("*.py")):
            with path.open() as handle:
                identifiers.update(
                    token.string
                    for token in tokenize.generate_tokens(handle.readline)
                    if token.type == tokenize.NAME
                )
    unreferenced = sorted(
        name for name, count in definitions.items()
        if identifiers[name] <= count
        and name not in FRAMEWORK_CALLBACKS
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert unreferenced == [], f"defined but never referenced: {unreferenced}"


def test_experiments_covers_every_figure_and_table():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for artefact in ("Figure 2", "Figure 3", "Figure 4", "Figure 5",
                     "Figure 6", "Table 1", "milestones", "gatekeeper"):
        assert artefact.lower() in experiments.lower(), artefact


def test_public_api_exports_resolve():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
    for subpackage in ("sim", "fabric", "middleware", "scheduling",
                       "workflow", "monitoring", "apps", "failures",
                       "ops", "analysis", "lab", "service"):
        module = importlib.import_module(f"repro.{subpackage}")
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"repro.{subpackage}.{name}"


def _deep_repro_imports(tree: ast.AST):
    """Yield dotted ``repro.*`` module paths imported at depth >= 3.

    The public surface is the ``repro`` facade plus one subpackage level
    (``repro.sim``, ``repro.scheduling``, ...); anything deeper is an
    internal module whose location is not API.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.") and alias.name.count(".") >= 2:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("repro.") and module.count(".") >= 2:
                yield module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_uses_public_api_only(path):
    """Examples demonstrate the facade, not internal module layout."""
    deep = sorted(set(_deep_repro_imports(ast.parse(path.read_text()))))
    assert deep == [], (
        f"{path.name} imports internal modules {deep}; import from the "
        "repro facade or a top-level subpackage instead"
    )


DOC_SNIPPET_SOURCES = ["README.md", "docs/API.md", "docs/ARCHITECTURE.md"]


@pytest.mark.parametrize("doc", DOC_SNIPPET_SOURCES)
def test_doc_snippets_use_public_api_only(doc):
    """Fenced code snippets in the docs stick to the public facade."""
    text = (REPO / doc).read_text()
    deep = []
    for block in re.findall(r"```(?:python|py)?\n(.*?)```", text, re.DOTALL):
        deep += re.findall(
            r"(?:^|\n)\s*(?:from|import)\s+(repro(?:\.\w+){2,})", block
        )
    assert sorted(set(deep)) == [], (
        f"{doc} code snippets import internal modules {sorted(set(deep))}; "
        "use the repro facade or a top-level subpackage"
    )


def _declared_dependencies():
    """Import names of ``pyproject.toml``'s ``[project] dependencies``."""
    import tomllib

    with open(REPO / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project.get("dependencies", [])
    }


def _names_set_in(path: pathlib.Path) -> set:
    """Names a file sets by keyword (``name=``) or attribute (``.name =``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.attr for t in targets if isinstance(t, ast.Attribute))
    return names


def test_every_config_knob_has_a_caller():
    """Each ``Grid3Config`` field is set by name somewhere in the
    package (besides ``core/grid3.py``, which declares and reads it),
    ``benchmarks/`` or ``perfbench/``.  A knob that only tests set is an
    option no run uses: make it a constant of the component instead."""
    from dataclasses import fields

    from repro import Grid3Config

    declaring = REPO / "src" / "repro" / "core" / "grid3.py"
    paths = [
        path
        for top in ("src/repro", "benchmarks", "perfbench")
        for path in sorted((REPO / top).rglob("*.py"))
        if path != declaring
    ]
    set_somewhere = set().union(*(_names_set_in(path) for path in paths))
    uncalled = [f.name for f in fields(Grid3Config) if f.name not in set_somewhere]
    assert uncalled == [], f"Grid3Config knobs nothing sets: {uncalled}"


def test_package_imports_only_stdlib_and_declared_dependencies():
    """Every import in ``src/repro`` names the standard library, ``repro``
    itself or a declared dependency.  An undeclared package installed on
    the test machine would otherwise pass every other test here and fail
    only on a clean install."""
    allowed = set(sys.stdlib_module_names) | {"repro"} | _declared_dependencies()
    offenders = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in allowed:
                    offenders.append(
                        f"{path.relative_to(REPO)}:{node.lineno} {module}")
    assert offenders == [], (
        f"imports outside the stdlib and pyproject dependencies: {offenders}"
    )


def test_no_direct_available_writes_outside_services():
    """Every availability flip must route through the GridService
    lifecycle (fail/restore), so no outage can bypass the downtime
    ledger.  Direct ``.available = x`` writes are only legal inside the
    services package itself (the property setter)."""
    src = REPO / "src" / "repro"
    services_dir = src / "services"
    pattern = re.compile(r"\.available\s*=[^=]")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if services_dir in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0]
            if pattern.search(stripped):
                offenders.append(f"{path.relative_to(REPO)}:{lineno}")
    assert offenders == [], (
        f"direct .available writes bypass the downtime ledger: {offenders}"
    )


def test_every_public_module_has_docstring():
    src = REPO / "src" / "repro"
    missing = []
    for path in src.rglob("*.py"):
        if path.name == "__main__.py":
            continue
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            missing.append(str(path.relative_to(REPO)))
    assert missing == [], f"modules without docstrings: {missing}"
