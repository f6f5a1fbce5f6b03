import errno
import json
import os

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


def test_clone_budget_env_override_exit_code(tmp_path, capsys, monkeypatch):
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=4))
    path = tmp_path / "boom.hex"
    path.write_text(gt.bytecode.hex())
    monkeypatch.setenv("REUSECFG_CLONE_BUDGET_PER_OFFSET", "2")
    assert run(["cfg", str(path)]) == 1
    assert "clone explosion" in capsys.readouterr().err


def test_flag_overrides_env(tmp_path, monkeypatch):
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=4))
    path = tmp_path / "ok.hex"
    path.write_text(gt.bytecode.hex())
    monkeypatch.setenv("REUSECFG_CLONE_BUDGET_PER_OFFSET", "2")
    assert run(["cfg", str(path), "--clone-budget", "64"]) == 0


def test_library_and_cli_agree(fig_sequence, capsys):
    from reusecfg.cfg import Mode, build_cfg, export

    path, gt = fig_sequence
    assert run(["cfg", str(path), "--format", "json"]) == 0
    via_cli = capsys.readouterr().out
    via_library = export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "json").decode()
    assert via_cli == via_library
