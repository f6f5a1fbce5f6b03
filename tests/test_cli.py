import errno
import json
import os
import random

import pytest

import fixtures
from reusecfg.cli import run
from reusecfg.corpus import Pattern, PatternSpec, generate, interpret


@pytest.fixture
def fig_sequence(tmp_path):
    gt = generate(PatternSpec(Pattern.FAKE_JOIN_SEQUENCE, seed=0, nesting_depth=2))
    path = tmp_path / "sequence.hex"
    path.write_text(gt.bytecode.hex())
    return path, gt


@pytest.fixture
def fake_loop(tmp_path):
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_LOOP, seed=0, nesting_depth=1))
    path = tmp_path / "loop.hex"
    path.write_text("0x" + gt.bytecode.hex())
    return path, gt


def test_disasm_listing(tmp_path, capsys):
    path = tmp_path / "a.hex"
    path.write_text("6001600201")
    assert run(["disasm", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0x0: PUSH1 0x01", "0x2: PUSH1 0x02", "0x4: ADD"]


def test_disasm_raw_binary(tmp_path, capsys):
    path = tmp_path / "a.bin"
    path.write_bytes(bytes([0x60, 0x01, 0x00, 0xFE]))
    assert run(["disasm", str(path)]) == 0
    assert "PUSH1" in capsys.readouterr().out


def test_cfg_json_deterministic(fig_sequence, capsys):
    path, _ = fig_sequence
    assert run(["cfg", str(path), "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["cfg", str(path), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"entry", "blocks", "edges", "diagnostics"}


def test_cfg_dot_output_file(fig_sequence, tmp_path):
    path, _ = fig_sequence
    out = tmp_path / "g.dot"
    assert run(["cfg", str(path), "--format", "dot", "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_cfg_emit_tac(fig_sequence, capsys):
    path, _ = fig_sequence
    assert run(["cfg", str(path), "--format", "json", "--emit-tac"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any("tac" in block for block in doc["blocks"])


def test_paths_defaults_and_baseline(fig_sequence, capsys):
    path, _ = fig_sequence
    assert run(["paths", str(path)]) == 0
    assert capsys.readouterr().out == "sensitive 3\n"
    assert run(["paths", str(path), "--reuse-insensitive"]) == 0
    assert capsys.readouterr().out == "sensitive 3\ninsensitive 9\n"


def test_paths_prints_nothing_when_the_baseline_build_fails(tmp_path, capsys, monkeypatch):
    import reusecfg.cli
    from reusecfg.cfg import AnalysisError, Mode, build_cfg

    def sensitive_only(code, mode, limits):
        if mode is Mode.REUSE_INSENSITIVE:
            raise AnalysisError("entry stack deeper than 1024 at offset 0x31")
        return build_cfg(code, mode, limits)

    monkeypatch.setattr(reusecfg.cli, "build_cfg", sensitive_only)
    path = tmp_path / "a.hex"
    path.write_text(fixtures.random_program(random.Random(1490)).hex())
    assert run(["paths", "--reuse-insensitive", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "analysis error: entry stack deeper than 1024 at offset 0x31\n"


def test_poly_baseline_lists_targets(fake_loop, capsys):
    path, gt = fake_loop
    assert run(["poly", str(path), "--reuse-insensitive"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"0x{gt.label_offsets['shared']:x}_0 ->")
    assert run(["poly", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_cover_reports_ratio(fig_sequence, tmp_path, capsys):
    path, gt = fig_sequence
    tracefile = tmp_path / "traces.txt"
    lines = [",".join(f"0x{o:x}" for o in t.offsets) for t in gt.traces]
    tracefile.write_text("\n".join(lines) + "\n")
    assert run(["cover", str(path), "--traces", str(tracefile)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"covered {len(gt.traces)}"
    assert out[1] == f"total {len(gt.traces)}"


def test_cover_lists_uncovered(tmp_path, capsys):
    code = fixtures.memory_jump_fixture()
    path = tmp_path / "m.hex"
    path.write_text(code.hex())
    tracefile = tmp_path / "t.txt"
    tracefile.write_text("0x0,0x4\n")
    assert run(["cover", str(path), "--traces", str(tracefile)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "covered 0"
    assert any(line.startswith("uncovered") for line in out)


def test_cover_skips_blank_trace_lines(fig_sequence, tmp_path, capsys):
    path, gt = fig_sequence
    tracefile = tmp_path / "traces.txt"
    lines = [",".join(f"0x{o:x}" for o in t.offsets) for t in gt.traces]
    tracefile.write_text("\n\n".join(lines) + "\n  \n")
    assert run(["cover", str(path), "--traces", str(tracefile)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"covered {len(gt.traces)}",
        f"total {len(gt.traces)}",
    ]


def test_cover_missing_traces_file_usage_error(fig_sequence, tmp_path, capsys):
    path, _ = fig_sequence
    missing = tmp_path / "none.txt"
    assert run(["cover", str(path), "--traces", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_cover_malformed_trace_line_usage_error(fig_sequence, tmp_path, capsys):
    path, _ = fig_sequence
    tracefile = tmp_path / "traces.txt"
    tracefile.write_text("0x0\n\n0x0,zz\n")
    assert run(["cover", str(path), "--traces", str(tracefile)]) == 2
    assert capsys.readouterr().err == f"error: {tracefile}:3: malformed trace line\n"


def test_detect_emits_json_records(tmp_path, capsys):
    path = tmp_path / "d.hex"
    path.write_text(fixtures.ree_reused_check().hex())
    assert run(["detect", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert records and records[0]["kind"] == "Reentrancy"
    assert {e["role"] for e in records[0]["evidence"]} == {"check", "call", "store"}


def test_gen_writes_fixture_and_manifest(tmp_path, capsys):
    assert run([
        "gen", "--pattern", "BasicFakeJoin", "--seed", "3", "--depth", "2",
        "--out-dir", str(tmp_path),
    ]) == 0
    hex_path = tmp_path / "basicfakejoin_3.hex"
    manifest_path = tmp_path / "basicfakejoin_3.json"
    assert hex_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["pattern"] == "BasicFakeJoin"
    assert manifest["expected_sensitive_paths"] == 3
    assert manifest["expected_insensitive_paths"] == 9
    assert manifest["reused_offsets"]
    assert manifest["bytecode"].startswith("0x")
    capsys.readouterr()
    assert run(["paths", str(hex_path)]) == 0
    assert capsys.readouterr().out == "sensitive 3\n"


def test_interp_round_trips_with_cover(tmp_path, capsys):
    gt = generate(PatternSpec(Pattern.FAKE_JOIN_MULTI_EXIT, seed=1, nesting_depth=1))
    path = tmp_path / "c.hex"
    path.write_text(gt.bytecode.hex())
    assert run(["interp", str(path)]) == 0
    trace_text = capsys.readouterr().out
    assert len(trace_text.splitlines()) == len(gt.traces)
    tracefile = tmp_path / "t.txt"
    tracefile.write_text(trace_text)
    assert run(["cover", str(path), "--traces", str(tracefile)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"covered {len(gt.traces)}"


def test_interp_branch_bound_flag(tmp_path, capsys):
    code = generate(PatternSpec(Pattern.FAKE_JOIN_WITH_REAL, seed=2, nesting_depth=2)).bytecode
    path = tmp_path / "b.hex"
    path.write_text(code.hex())
    # The fixture branches before it halts: with no branch decisions
    # allowed, every fork is abandoned and no trace is printed.
    assert run(["interp", "--branch-bound", "0", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert run(["interp", "--branch-bound", "-1", str(path)]) == 2
    assert "--branch-bound" in capsys.readouterr().err
    assert run(["interp", str(path)]) == 0
    expected = [",".join(f"0x{o:x}" for o in t.offsets) for t in interpret(code)]
    assert expected and capsys.readouterr().out.splitlines() == expected


def test_unknown_pattern_usage_error(tmp_path, capsys):
    assert run(["gen", "--pattern", "NoSuchShape", "--out-dir", str(tmp_path)]) == 2
    assert "unknown pattern" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_gen_depth_below_one_usage_error(tmp_path, capsys, depth):
    out_dir = tmp_path / "out"
    argv = ["gen", "--pattern", "BasicFakeJoin", "--depth", depth, "--out-dir", str(out_dir)]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: nesting_depth must be >= 1\n"
    assert not out_dir.exists()


def test_cfg_unwritable_output_usage_error(fig_sequence, tmp_path, capsys):
    path, _ = fig_sequence
    out = tmp_path / "missing" / "x.json"
    assert run(["cfg", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
    assert not out.parent.exists()


def test_gen_out_dir_is_a_file_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "taken"
    out_dir.write_text("")
    assert run(["gen", "--pattern", "BasicFakeJoin", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out_dir}: {os.strerror(errno.EEXIST)}\n"


def test_gen_out_dir_under_a_file_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "taken" / "out"
    out_dir.parent.write_text("")
    assert run(["gen", "--pattern", "BasicFakeJoin", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out_dir}: {os.strerror(errno.ENOTDIR)}\n"


def test_interp_fork_budget_analysis_error(tmp_path, capsys):
    path = tmp_path / "forks.hex"
    path.write_text(fixtures.fork_chain(18).hex())
    with fixtures.time_limit(5):
        assert run(["interp", "--branch-bound", "20", str(path)]) == 1
    assert capsys.readouterr().err == "analysis error: interpreter fork budget of 65536 exceeded\n"


def test_interp_unsupported_opcode_analysis_error(tmp_path, capsys):
    path = tmp_path / "caller.hex"
    path.write_text("3300")  # CALLER; STOP
    assert run(["interp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "analysis error: unsupported opcode in concrete interpreter: CALLER\n"


def test_gen_past_step_budget_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["gen", "--pattern", "NestedFakeLoops", "--depth", "30", "--out-dir", str(out_dir)]
    # The innermost block would run 2^30 times: the step budget ends it.
    with fixtures.time_limit(5):
        assert run(argv) == 2
    assert capsys.readouterr().err == "error: interpreter step budget of 524288 exceeded\n"
    assert not out_dir.exists()


def test_missing_file_usage_error(capsys):
    assert run(["disasm", "/nonexistent/path.hex"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_hex_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.hex"
    path.write_text("60 0")
    assert run(["disasm", str(path)]) == 2


def test_unknown_flag_exits_two(tmp_path):
    path = tmp_path / "a.hex"
    path.write_text("00")
    assert run(["disasm", str(path), "--bogus"]) == 2


def test_clone_budget_flag_exit_code(tmp_path, capsys):
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=4))
    path = tmp_path / "boom.hex"
    path.write_text(gt.bytecode.hex())
    assert run(["cfg", "--clone-budget", "2", str(path)]) == 1
    assert "clone explosion" in capsys.readouterr().err


def test_clone_budget_below_one_usage_error(tmp_path, capsys):
    path = tmp_path / "a.hex"
    path.write_text("00")
    assert run(["cfg", "--clone-budget", "0", str(path)]) == 2
    assert capsys.readouterr().err == "error: clone_budget_per_offset must be >= 1\n"


def test_empty_file_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.hex"
    path.write_bytes(b"")
    assert run(["disasm", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: empty bytecode\n"


def test_total_blocks_flag_exit_code(tmp_path, capsys):
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=1))
    path = tmp_path / "join.hex"
    path.write_text(gt.bytecode.hex())
    assert run(["cfg", "--total-blocks", "8", str(path)]) == 1
    assert capsys.readouterr().err == "analysis error: total block budget exceeded\n"


def test_library_and_cli_agree(fig_sequence, capsys):
    from reusecfg.cfg import Mode, build_cfg, export

    path, gt = fig_sequence
    assert run(["cfg", str(path), "--format", "json"]) == 0
    via_cli = capsys.readouterr().out
    via_library = export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "json").decode()
    assert via_cli == via_library
