"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    """Invoke the CLI capturing printed lines."""
    lines = []
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.func(args, out=lines.append)
    return code, "\n".join(str(l) for l in lines)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_catalog_command():
    code, text = run_cli(["catalog"])
    assert code == 0
    assert "BNL_ATLAS" in text and "FNAL_CMS" in text
    assert "27 sites, 2800 CPUs peak" in text


def test_run_command_small():
    code, text = run_cli([
        "run", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser",
    ])
    assert code == 0
    assert "job records:" in text
    assert "milestone" in text
    assert "Number of CPUs" in text


def test_figures_command_selected():
    code, text = run_cli([
        "figures", "--scale", "800", "--days", "3", "--no-failures",
        "--apps", "exerciser", "ivdgl", "--figure", "6", "--table1",
    ])
    assert code == 0
    assert "Figure 6" in text
    assert "Figure 2" not in text  # only the requested figure
    assert "avg_hr" in text        # table 1 appended


def test_export_command_stdout():
    code, text = run_cli([
        "export", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser",
    ])
    assert code == 0
    assert text.splitlines()[0].startswith("job_id,name,vo")
    assert "exerciser" in text


def test_export_command_to_file(tmp_path):
    target = tmp_path / "records.csv"
    code, text = run_cli([
        "export", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser", "-o", str(target),
    ])
    assert code == 0
    assert "wrote" in text
    content = target.read_text()
    assert content.startswith("job_id,")
    # Round-trips through the import side.
    from repro.analysis import import_records
    db = import_records(content)
    assert len(db) > 0


def test_ablation_flags_accepted():
    code, _text = run_cli([
        "run", "--scale", "800", "--days", "1", "--srm",
        "--random-matchmaking", "--apps", "exerciser",
    ])
    assert code == 0


def test_scenario_and_map_options():
    code, text = run_cli([
        "run", "--scenario", "stabilized-2004", "--scale", "800",
        "--days", "2", "--apps", "exerciser", "--map",
    ])
    assert code == 0
    assert "site status map" in text
    assert "key: o=PASS" in text
    assert "KNU_Grid3 (off-map)" in text


def test_scenario_flag_applies_config():
    parser = build_parser()
    args = parser.parse_args([
        "run", "--scenario", "chaos-deployment", "--scale", "700",
        "--days", "1", "--apps", "exerciser",
    ])
    from repro.cli import _config
    config = _config(args)
    assert config.scale == 700
    assert not config.ops_team          # chaos scenario property
    assert config.misconfig_probability == 0.5


def test_report_command():
    code, text = run_cli([
        "report", "--scale", "800", "--days", "7", "--no-failures",
        "--apps", "exerciser",
    ])
    assert code == 0
    assert "Grid3 Operations Report" in text
    assert "Site health:" in text


def test_score_command_runs():
    # A tiny, exerciser-only run misses most Table 1 classes, so the
    # score command exits nonzero — the CI-gate behaviour — but still
    # prints the scorecard.
    code, text = run_cli([
        "score", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser",
    ])
    assert "shape agreement:" in text
    assert "[MISS]" in text
    assert code == 1


def test_health_command():
    code, text = run_cli([
        "health", "--scale", "800", "--days", "2", "--apps", "exerciser",
    ])
    assert code == 0
    assert "service" in text and "avail" in text
    assert "gatekeeper" in text and "gridftp" in text
    assert "igoc-rls" in text          # central services included
    assert "total downtime:" in text


def test_health_command_site_filter():
    code, text = run_cli([
        "health", "--scale", "800", "--days", "1", "--no-failures",
        "--apps", "exerciser", "--site", "BNL_ATLAS",
    ])
    assert code == 0
    assert "BNL_ATLAS" in text
    assert "FNAL_CMS" not in text


def test_main_entry_point():
    assert main(["catalog"]) == 0


def test_data_command_smoke():
    code, text = run_cli([
        "data", "--scale", "800", "--days", "1", "--no-failures",
        "--apps", "exerciser", "--top", "3",
    ])
    assert code == 0
    assert "occupancy" in text and "evictions" in text
    assert "BNL_ATLAS" in text
    assert "agent.sweeps" in text and "transfers.completed" in text


def test_data_command_disk_scale_applies():
    code, text = run_cli([
        "data", "--scale", "400", "--days", "1", "--no-failures",
        "--apps", "exerciser", "--disk-scale", "2000",
    ])
    assert code == 0
    # Scaled-down disks show up directly in the capacity column:
    # BNL_ATLAS's 8 TB becomes 0.00 TB at this divisor.
    assert "0.00" in text


def test_trace_command_table_mode():
    code, text = run_cli([
        "trace", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser", "--top", "3",
    ])
    assert code == 0
    assert "slowest" in text and "traced jobs" in text
    assert "critical phase" in text
    assert "phase breakdown" in text


def test_trace_command_job_id_mode():
    code, text = run_cli([
        "trace", "1", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser",
    ])
    assert code == 0
    assert "trace" in text
    assert "compute" in text  # the span tree shows lifecycle phases
    # An id the run never produced exits nonzero with a diagnostic.
    code, text = run_cli([
        "trace", "999999", "--scale", "800", "--days", "1", "--no-failures",
        "--apps", "exerciser",
    ])
    assert code == 1
    assert "no trace" in text


def test_trace_command_exports(tmp_path):
    perfetto = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    code, text = run_cli([
        "trace", "--scale", "800", "--days", "2", "--no-failures",
        "--apps", "exerciser",
        "--perfetto", str(perfetto), "--jsonl", str(jsonl),
    ])
    assert code == 0
    assert "wrote" in text
    import json
    doc = json.loads(perfetto.read_text())
    assert doc["traceEvents"]
    lines = jsonl.read_text().splitlines()
    assert lines and all(json.loads(l)["trace_id"] for l in lines)


def table_rows(text, heading=None):
    """The data rows of the table printed first, or right after the
    line starting with ``heading``: the lines past its column header and
    dash rule, up to the next blank or prose line."""
    lines = text.splitlines()
    start = 0
    if heading is not None:
        start = 1 + next(
            i for i, line in enumerate(lines) if line.startswith(heading)
        )
    rows = []
    for line in lines[start + 2:]:
        if not line.strip() or ":" in line:
            break
        rows.append(line.split())
    return rows


def test_fabric_command_summary_and_ranking():
    code, text = run_cli(["fabric", "--sites", "50", "--top", "3"])
    assert code == 0
    summary = dict(table_rows(text))
    assert summary["sites"] == "50"
    assert "sites per owner VO:" in text and "sites per region:" in text
    ranked = table_rows(text, "largest 3 sites:")
    assert len(ranked) == 3
    cpus = [int(row[2]) for row in ranked]
    assert cpus == sorted(cpus, reverse=True)


def test_fairshare_command_compare():
    code, text = run_cli([
        "fairshare", "--scale", "800", "--days", "1", "--compare",
    ])
    assert code == 0
    accounted = [row[0] for row in table_rows(text)]
    compared = table_rows(text, "same-seed comparison")
    vos = [row[0] for row in compared]
    assert vos == sorted(set(vos)) == sorted(accounted)
    assert all(len(row) == 3 for row in compared)
    assert "max/min completion ratio" in text


def test_alerts_command_local_mode():
    code, text = run_cli(["alerts", "--scale", "800", "--days", "1"])
    assert code == 0
    header = text.splitlines()[0].split()
    assert header == ["rule", "metric", "severity", "firing", "transitions"]
    assert "gatekeeper-fleet-down" in text
    assert "alert ticket(s) opened;" in text


def test_alerts_command_lint():
    code, text = run_cli(["alerts", "--lint"])
    assert code == 0
    assert "lint clean" in text
    assert "LINT:" not in text
