"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact unless a runtime bound is stated.
"""

import json
import random
import time

import pytest

import fixtures
from reusecfg.bytecode import disassemble
from reusecfg.cfg import CloneBudgetError, Mode, build_cfg, export
from reusecfg.corpus import (
    Pattern,
    PatternSpec,
    concrete_op,
    generate,
    stress_fixture,
)
from reusecfg.detectors import detect_reentrancy, detect_tx_origin
from reusecfg.emulator import CONST, FOLDED_OPS, ValueTable, emulate_block
from reusecfg.bytecode import identify_blocks
from reusecfg.metrics import count_paths, polymorphic_jump_targets, trace_coverage

DEPTHS = (1, 2, 3, 4)
SEEDS = range(5)


def _all_specs():
    for pattern in Pattern:
        for depth in DEPTHS:
            for seed in SEEDS:
                yield PatternSpec(pattern, seed=seed, nesting_depth=depth)


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_pattern_suite_correctness():
    """160 fixtures: exact path counts, zero polymorphic targets, full
    oracle-trace coverage; the whole sweep stays under 30 seconds."""
    started = time.monotonic()
    checked = 0
    for spec in _all_specs():
        gt = generate(spec)
        sensitive = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
        insensitive = build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
        assert polymorphic_jump_targets(sensitive) == [], spec
        covered, total, uncovered = trace_coverage(sensitive, gt.traces)
        assert covered == total and not uncovered, spec
        assert count_paths(sensitive).path_count == gt.expected_sensitive_paths, spec
        assert (
            count_paths(insensitive).path_count == gt.expected_insensitive_paths
        ), spec
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 160
    assert elapsed < 30.0, f"pattern sweep took {elapsed:.1f}s"
    _report(1, f"160 fixtures exact in {elapsed:.1f}s")


def test_criterion_2_reuse_identification_agreement():
    """Cloned offsets (end-block clones excluded) equal the generator's
    reuse labels on every fixture: precision = recall = 100%."""
    for spec in _all_specs():
        gt = generate(spec)
        cfg = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
        end_clones = cfg.end_block_clones  # derived anew on each read
        cloned = {
            block_id.offset
            for block_id in cfg.blocks
            if block_id.clone >= 1 and block_id not in end_clones
        }
        assert cloned == gt.reused_offsets, spec
    _report(2, "cloned offsets == reuse labels on all 160 fixtures")


def test_criterion_3_motivating_example():
    code = fixtures.two_branch_shared_increment()
    sensitive = count_paths(build_cfg(code, Mode.REUSE_SENSITIVE))
    insensitive = count_paths(build_cfg(code, Mode.REUSE_INSENSITIVE))
    assert sensitive.path_count == 4
    assert sensitive.back_edges_removed == 0  # acyclic
    assert insensitive.back_edges_removed >= 1  # the spurious loop
    _report(3, "4 acyclic paths vs cyclic baseline")


def test_criterion_4_mixed_join_walkthrough():
    code, blocks = fixtures.mixed_join_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    doc = json.loads(export(cfg, "json"))
    x = blocks["X"]
    x_ids = [b["id"] for b in doc["blocks"] if b["offset"] == x]
    assert x_ids == [f"0x{x:x}_0", f"0x{x:x}_1"]  # exactly one clone

    def edge(src_off, src_clone, dst_off, dst_clone):
        return {
            "from": f"0x{src_off:x}_{src_clone}",
            "to": f"0x{dst_off:x}_{dst_clone}",
            "kind": "jump",
        }

    assert edge(blocks["A"], 0, x, 0) in doc["edges"]
    assert edge(blocks["B"], 0, x, 1) in doc["edges"]
    assert edge(blocks["E"], 0, x, 1) in doc["edges"]
    _report(4, "A->X, B->X', E->X' with a single clone of X")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(0x0AC1E)
    unary = {"NOT", "ISZERO"}
    table = ValueTable()
    for mnemonic in sorted(FOLDED_OPS):
        arity = 1 if mnemonic in unary else 2
        for _ in range(10_000):
            if rng.random() < 0.25:
                operands = [rng.randrange(512) for _ in range(arity)]
            else:
                operands = [rng.randrange(1 << 256) for _ in range(arity)]
            code = bytearray()
            for value in reversed(operands):
                code.append(0x7F)  # PUSH32
                code += value.to_bytes(32, "big")
            from reusecfg.bytecode import MNEMONIC_TO_OPCODE

            code.append(MNEMONIC_TO_OPCODE[mnemonic])
            block = identify_blocks(disassemble(bytes(code)))[0]
            result = emulate_block(block, (), table)
            folded = table.get(result.s_end[-1])
            assert folded.kind == CONST
            assert folded.const == concrete_op(mnemonic, operands), mnemonic

    from test_bytecode import as_tuples, oracle_decode

    rng = random.Random(0xDEC0DE)
    for _ in range(10_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 128)))
        assert as_tuples(disassemble(raw)) == oracle_decode(raw)
    _report(5, "folding == interpreter; decoder == table oracle (10k each)")


def test_criterion_6_detector_fixture_suites():
    def run_suite(positives, negatives, detector):
        tp = fn = fp = 0
        for builder in positives:
            cfg = build_cfg(builder(), Mode.REUSE_SENSITIVE)
            if detector(cfg, cfg.value_table):
                tp += 1
            else:
                fn += 1
                pytest.fail(f"missed positive: {builder.__name__}")
        for builder in negatives:
            cfg = build_cfg(builder(), Mode.REUSE_SENSITIVE)
            if detector(cfg, cfg.value_table):
                fp += 1
                pytest.fail(f"false positive: {builder.__name__}")
        return tp, fp, fn

    assert len(fixtures.TX_ORIGIN_POSITIVE) >= 10
    assert len(fixtures.TX_ORIGIN_NEGATIVE) >= 10
    assert len(fixtures.REENTRANCY_POSITIVE) >= 10
    assert len(fixtures.REENTRANCY_NEGATIVE) >= 10
    run_suite(fixtures.TX_ORIGIN_POSITIVE, fixtures.TX_ORIGIN_NEGATIVE, detect_tx_origin)
    run_suite(
        fixtures.REENTRANCY_POSITIVE, fixtures.REENTRANCY_NEGATIVE, detect_reentrancy
    )

    cfg = build_cfg(fixtures.ree_reused_check(), Mode.REUSE_SENSITIVE)
    findings = detect_reentrancy(cfg, cfg.value_table)
    assert len(findings) == 1
    roles = [role for role, _ in findings[0].evidence]
    offsets = [off for _, off in findings[0].evidence]
    assert roles == ["check", "call", "store"]
    assert offsets[0] < offsets[1] < offsets[2]
    _report(6, "detector precision = recall = 100%; ordered C-E-I finding")


def test_criterion_7_performance_proxy():
    code = stress_fixture(24_000)
    assert len(code) >= 23_000
    started = time.monotonic()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"stress build took {elapsed:.2f}s"
    assert not any("clone explosion" in m for _, m, _ in cfg.diagnostics)
    _report(7, f"{len(code)}-byte contract recovered in {elapsed:.2f}s")


def test_criterion_8_determinism_and_termination():
    for spec in _all_specs():
        gt = generate(spec)
        first = export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "json")
        second = export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "json")
        assert first == second, spec

    rng = random.Random(0xF022)
    budget_aborts = 0
    for _ in range(1_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 220)))
        try:
            cfg = build_cfg(raw, Mode.REUSE_SENSITIVE)
        except CloneBudgetError:
            budget_aborts += 1  # bounded abort, not a crash
            continue
        assert cfg.entry in cfg.blocks
    _report(8, f"byte-identical exports; 1000-input fuzz ok ({budget_aborts} bounded aborts)")
