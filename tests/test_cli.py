"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize(
    "argv",
    [["delayavf", "libstrstr", "alu", "--lanes", "8"],
     ["doctor", "--lanes", "8"]],
)
def test_lanes_flag_is_a_usage_error(argv, capsys):
    """Every campaign packs 64 lanes to a word: there is no width flag."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "--lanes" in capsys.readouterr().err


def test_structures_command(capsys):
    assert main(["structures"]) == 0
    out = capsys.readouterr().out
    assert "alu" in out and "regfile" in out
    assert "clock period" in out


def test_run_command(capsys):
    assert main(["run", "libstrstr"]) == 0
    out = capsys.readouterr().out
    assert "halted:  True" in out
    assert "matches expected output: True" in out


def test_disasm_command(capsys):
    assert main(["disasm", "libfibcall", "--limit", "12"]) == 0
    out = capsys.readouterr().out
    assert "start:" in out
    assert "0x0000:" in out


def test_paths_command(capsys):
    assert main(["paths", "decoder"]) == 0
    out = capsys.readouterr().out
    assert "decoder" in out and "wires" in out


def test_paths_unknown_structure(capsys):
    assert main(["paths", "nonexistent"]) == 1
    assert "no wires" in capsys.readouterr().err


def test_delayavf_command(capsys):
    code = main([
        "delayavf", "libstrstr", "lsu",
        "--delays", "0.9", "--wires", "6", "--cycles", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "DelayAVF" in out and "90%" in out


def test_delayavf_stats_and_cache_flags(capsys, tmp_path):
    args = [
        "delayavf", "libstrstr", "lsu",
        "--delays", "0.9", "--wires", "4", "--cycles", "2",
        "--cache-dir", str(tmp_path), "--stats",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "campaign telemetry" in out
    assert "injections" in out
    assert list(tmp_path.glob("verdicts-*.json"))
    # Second invocation warm-starts from the persisted verdict cache.
    assert main(args) == 0
    assert "campaign telemetry" in capsys.readouterr().out


def test_savf_command(capsys):
    code = main([
        "savf", "libstrstr", "lsu", "--bits", "4", "--cycles", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sAVF" in out


def test_savf_logic_structure_errors(capsys):
    code = main([
        "savf", "libstrstr", "alu", "--bits", "4", "--cycles", "3",
    ])
    assert code == 1
    assert "no state elements" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["delayavf", "savf"])
def test_invalid_campaign_config_is_reported_not_raised(capsys, command):
    code = main([command, "libstrstr", "lsu", "--cycles", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid campaign configuration: ")
    assert "cycle_count must be >= 1" in err


def test_bad_benchmark_rejected(capsys):
    code = main(["run", "quicksort"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown benchmark 'quicksort'" in err
    assert "gen:" in err  # the hint teaches the generated-spec namespace


def test_bad_gen_spec_rejected(capsys):
    code = main(["run", "gen:7:bogus_knob=3"])
    assert code == 1
    assert "invalid generated-workload spec" in capsys.readouterr().err


def test_run_generated_workload(capsys):
    code = main(["run", "gen:5:blocks=2,ops_per_block=3,loop_iters=2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "matches expected output: True" in out


def test_genwork_command_json(capsys, tmp_path):
    import json as json_mod

    code = main([
        "genwork", "2", "--structure", "alu", "--pool", "3",
        "--knobs", "blocks=2,ops_per_block=4,loop_iters=2",
        "--cache-dir", str(tmp_path), "--format", "json",
    ])
    assert code == 0
    payload = json_mod.loads(capsys.readouterr().out)
    assert payload["structure"] == "alu"
    assert len(payload["selected"]) == 2
    assert payload["union"]["covered_wires"]

    # Warm re-run from the same cache: identical proposal, and the table
    # renderer path works too.
    code = main([
        "genwork", "2", "--structure", "alu", "--pool", "3",
        "--knobs", "blocks=2,ops_per_block=4,loop_iters=2",
        "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    for spec in payload["selected"]:
        assert spec in out


def test_genwork_rejects_bad_knobs(capsys):
    code = main(["genwork", "2", "--knobs", "warp=9"])
    assert code == 1
    assert "invalid --knobs" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Observability surface (--trace / --metrics-out / health warnings)
# ----------------------------------------------------------------------
class _FakeUnhealthyResult:
    """Minimal stand-in for a degraded + suspect StructureCampaignResult."""

    structure = "alu"
    degraded = True
    suspect = True
    suspect_reasons = ("alu@0.9: dynamic reach exceeds static reach",)

    def to_payload(self):
        return {"structure": self.structure, "degraded": self.degraded}


def test_health_warnings_fire_for_json_format(capsys, monkeypatch):
    """--format json must not swallow degraded/suspect warnings (they go to
    stderr; stdout stays machine-readable)."""
    import json as jsonlib

    import repro.cli as cli

    monkeypatch.setattr(cli.api, "analyze", lambda *a, **k: _FakeUnhealthyResult())
    monkeypatch.setattr(cli.api, "shutdown", lambda: None)
    assert main(["delayavf", "libfibcall", "alu", "--format", "json"]) == 0
    captured = capsys.readouterr()
    payload = jsonlib.loads(captured.out)  # stdout is pure JSON
    assert payload["structure"] == "alu"
    assert "degraded" in captured.err
    assert "SUSPECT" in captured.err
    assert "dynamic reach exceeds static reach" in captured.err


def test_health_warnings_fire_for_table_format(capsys, monkeypatch):
    import repro.cli as cli

    fake = _FakeUnhealthyResult()
    fake.suspect = False
    monkeypatch.setattr(cli.api, "savf", lambda *a, **k: fake)
    monkeypatch.setattr(cli.api, "shutdown", lambda: None)
    # SAVFResult normally has no health fields; a degraded one still warns,
    # and the savf table renderer is bypassed via the json format.
    assert main(["savf", "libfibcall", "regfile", "--format", "json"]) == 0
    assert "degraded" in capsys.readouterr().err


def test_delayavf_trace_and_metrics_end_to_end(capsys, tmp_path):
    import json as jsonlib

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main([
        "delayavf", "libstrstr", "lsu",
        "--delays", "0.9", "--wires", "4", "--cycles", "2",
        "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        "--progress",
    ]) == 0
    captured = capsys.readouterr()
    assert "shards" in captured.err  # the --progress ticker ran
    trace = jsonlib.loads(trace_path.read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"campaign.run", "shard.execute"} <= names
    metrics = jsonlib.loads(metrics_path.read_text())
    assert metrics["counters"]["injections"] > 0
    assert "campaign" in metrics["phase_wall_seconds"]
    assert metrics_path.with_suffix(".json.heartbeat").exists()
    # The summarize subcommand digests what --trace wrote.
    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "campaign.run" in out and "wall" in out and "cum" in out


def test_trace_summarize_rejects_missing_file(capsys, tmp_path):
    assert main(["trace", "summarize", str(tmp_path / "nope.json")]) == 1
    assert "cannot read trace" in capsys.readouterr().err
