import pytest

import fixtures
from reusecfg import detectors
from reusecfg.bytecode import MNEMONICS, disassemble
from reusecfg.cfg import Mode, build_cfg
from reusecfg.corpus import Assembler, stress_fixture
from reusecfg.detectors import detect_reentrancy, detect_tx_origin
from reusecfg.emulator import ValueTable, tac_ops


def origin_findings(code: bytes):
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    return detect_tx_origin(cfg, cfg.value_table)


def reentrancy_findings(code: bytes):
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    return detect_reentrancy(cfg, cfg.value_table)


@pytest.mark.parametrize("builder", fixtures.TX_ORIGIN_POSITIVE, ids=lambda f: f.__name__)
def test_tx_origin_positive(builder):
    findings = origin_findings(builder())
    assert findings, builder.__name__
    assert all(f.kind == "TxOrigin" for f in findings)


@pytest.mark.parametrize("builder", fixtures.TX_ORIGIN_NEGATIVE, ids=lambda f: f.__name__)
def test_tx_origin_negative(builder):
    assert origin_findings(builder()) == []


@pytest.mark.parametrize("builder", fixtures.REENTRANCY_POSITIVE, ids=lambda f: f.__name__)
def test_reentrancy_positive(builder):
    findings = reentrancy_findings(builder())
    assert findings, builder.__name__
    assert all(f.kind == "Reentrancy" for f in findings)


@pytest.mark.parametrize("builder", fixtures.REENTRANCY_NEGATIVE, ids=lambda f: f.__name__)
def test_reentrancy_negative(builder):
    assert reentrancy_findings(builder()) == []


def test_reentrancy_skips_reachability_without_every_role(monkeypatch):
    # A stress fixture has no SLOAD, CALL or SSTORE, so no finding is
    # possible and the quadratic reachability must not be built.
    def unreachable(*args):
        raise AssertionError("dag_reachability built")

    monkeypatch.setattr(detectors, "dag_reachability", unreachable)
    assert reentrancy_findings(stress_fixture(3000, 0)) == []


def test_detectors_build_only_the_tac_they_read(monkeypatch):
    # The detectors build TacOps with `tac_ops` only for blocks holding an
    # instruction they look for.
    cfg = build_cfg(stress_fixture(3000, 0), Mode.REUSE_SENSITIVE)
    built = []

    def counting_tac_ops(block, ids):
        ops = tac_ops(block, ids)
        built.extend(ops)
        return ops

    monkeypatch.setattr(detectors, "tac_ops", counting_tac_ops)
    detect_tx_origin(cfg, cfg.value_table)
    detect_reentrancy(cfg, cfg.value_table)
    tac_size = sum(len(cfg.blocks[block].instructions) for block in cfg.tac_ids)
    assert 0 < len(built) < tac_size


def _comparable_values() -> tuple[ValueTable, dict[str, int]]:
    table = ValueTable()
    v = {"caller": table.new_sym("CALLER", ()), "caller2": table.new_sym("CALLER", ())}
    v["origin"] = table.new_sym("ORIGIN", ())
    v["add"] = table.new_sym("ADD", (v["caller"], v["caller"]))
    v["add2"] = table.new_sym("ADD", (v["caller2"], v["caller2"]))
    v["const"] = table.new_const(5)
    v["hash1"] = table.new_sym("SHA3", (v["const"],))
    v["hash2"] = table.new_sym("SHA3", (v["const"], v["const"]))
    v["phi"] = table.new_phi((v["caller"], v["origin"]))
    v["phi2"] = table.new_phi((v["caller"], v["origin"]))
    v["unknown"] = table.new_unknown()
    v["unknown2"] = table.new_unknown()
    return table, v


@pytest.mark.parametrize(
    "a, b, equal",
    [
        pytest.param("caller", "caller", True, id="same-id"),
        pytest.param("add", "add2", True, id="operand-pair-seen-twice"),
        pytest.param("const", "caller", False, id="kind-mismatch"),
        pytest.param("caller", "origin", False, id="op-mismatch"),
        pytest.param("hash1", "hash2", False, id="arity-mismatch"),
        pytest.param("phi", "phi2", False, id="phi"),
        pytest.param("unknown", "unknown2", False, id="unknown"),
    ],
)
def test_structurally_equal(a, b, equal):
    table, v = _comparable_values()
    assert detectors._structurally_equal(v[a], v[b], table) is equal


def _origin_then(tail) -> bytes:
    """ORIGIN alone in the first block, then `tail` in the next."""
    asm = Assembler()
    asm.op("ORIGIN")
    asm.jump("tail")
    asm.jumpdest("tail")
    tail(asm)
    return fixtures._finish(asm)


def _split_compare(asm: Assembler) -> None:
    asm.op("CALLER")
    asm.op("EQ")
    asm.op("POP")


def _split_check(asm: Assembler) -> None:
    asm.push_label("go")
    asm.op("JUMPI")
    asm.jumpdest("go")


def _split_reentrancy() -> bytes:
    """The SLOAD, its check, the CALL and the SSTORE each in a block of
    their own."""
    asm = Assembler()
    asm.push(5)
    asm.op("SLOAD")
    asm.jump("check")
    asm.jumpdest("check")
    _split_check(asm)
    asm.jump("call")
    asm.jumpdest("call")
    fixtures._call_sequence(asm)
    asm.jump("store")
    asm.jumpdest("store")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return fixtures._finish(asm)


# A finding whose roles sit in blocks holding nothing else it reads.
SPLIT_ROLES = [
    lambda: _origin_then(_split_compare),
    lambda: _origin_then(_split_check),
    _split_reentrancy,
]


def test_findings_equal_those_from_every_block(monkeypatch):
    builders = (
        fixtures.TX_ORIGIN_POSITIVE
        + fixtures.TX_ORIGIN_NEGATIVE
        + fixtures.REENTRANCY_POSITIVE
        + fixtures.REENTRANCY_NEGATIVE
        + SPLIT_ROLES
    )

    def findings():
        out = []
        for builder in builders:
            cfg = build_cfg(builder(), Mode.REUSE_SENSITIVE)
            out.append(detect_tx_origin(cfg, cfg.value_table))
            out.append(detect_reentrancy(cfg, cfg.value_table))
        return out

    skipping = findings()
    every = frozenset(MNEMONICS)
    monkeypatch.setattr(detectors, "_TX_ORIGIN_READS", every)
    monkeypatch.setattr(detectors, "_REENTRANCY_READS", every)
    assert skipping == findings()
    compare, _, check, _, _, reentrancy = skipping[-2 * len(SPLIT_ROLES) :]
    assert compare and check and reentrancy


def test_finding_sites_are_instruction_offsets():
    code = fixtures.ree_reused_check()
    offsets = {i.offset for i in disassemble(code)}
    for finding in reentrancy_findings(code):
        assert finding.site_offset in offsets
        for _, off in finding.evidence:
            assert off in offsets


def test_dao_shape_exactly_one_ordered_finding():
    findings = reentrancy_findings(fixtures.ree_reused_check())
    assert len(findings) == 1
    (finding,) = findings
    roles = [role for role, _ in finding.evidence]
    assert roles == ["check", "call", "store"]
    check, call, store = (off for _, off in finding.evidence)
    assert check < call < store
    assert finding.site_offset == call


def test_reused_check_matches_source_duplicated_variant():
    """Cloned shared check block versus literal duplication of the same
    code: same number and shape of findings."""
    shared = reentrancy_findings(fixtures.ree_reused_check())

    asm = Assembler()
    asm.push(5)
    asm.op("SLOAD")  # first, inline copy of the balance read
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    asm.push(5)
    asm.op("SLOAD")  # second inline copy
    asm.op("POP")
    fixtures._call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    asm.op("STOP")
    duplicated = reentrancy_findings(asm.assemble())

    assert len(shared) == len(duplicated) == 1
    assert [r for r, _ in shared[0].evidence] == [r for r, _ in duplicated[0].evidence]


def test_findings_stable_under_clone_renaming():
    """Swapping the dispatch order permutes clone indices but must not
    change the reported findings."""

    def build(swap: bool) -> bytes:
        asm = Assembler()
        arms = ["alpha", "beta"] if not swap else ["beta", "alpha"]
        asm.push(0)
        asm.push_label(arms[0])
        asm.op("JUMPI")
        asm.push_label(arms[1])
        asm.op("JUMP")
        for arm, ret in (("alpha", "r_a"), ("beta", "r_b")):
            asm.label(arm)
            asm.op("JUMPDEST")
            asm.push(5)
            asm.op("SLOAD")
            asm.push_label(ret)
            asm.op("JUMPI")
            asm.op("STOP")
            asm.label(ret)
            asm.op("JUMPDEST")
            fixtures._call_sequence(asm)
            asm.push(0)
            asm.push(5)
            asm.op("SSTORE")
            asm.op("STOP")
        return asm.assemble()

    plain = build(False)
    swapped = build(True)
    if plain == swapped:
        pytest.skip("dispatch order did not change the layout")
    assert [f.to_dict() for f in reentrancy_findings(plain)] == [
        f.to_dict() for f in reentrancy_findings(swapped)
    ]


def test_detect_both_on_combined_contract():
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("CALLER")
    asm.op("EQ")
    asm.push_label("next")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("next")
    asm.op("JUMPDEST")
    asm.push(9)
    asm.op("SLOAD")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    fixtures._call_sequence(asm)
    asm.push(0)
    asm.push(9)
    asm.op("SSTORE")
    asm.op("STOP")
    code = asm.assemble()
    assert origin_findings(code)
    assert reentrancy_findings(code)


def test_precision_and_recall_are_total():
    tp = sum(1 for b in fixtures.TX_ORIGIN_POSITIVE if origin_findings(b()))
    fp = sum(1 for b in fixtures.TX_ORIGIN_NEGATIVE if origin_findings(b()))
    assert (tp, fp) == (len(fixtures.TX_ORIGIN_POSITIVE), 0)
    tp = sum(1 for b in fixtures.REENTRANCY_POSITIVE if reentrancy_findings(b()))
    fp = sum(1 for b in fixtures.REENTRANCY_NEGATIVE if reentrancy_findings(b()))
    assert (tp, fp) == (len(fixtures.REENTRANCY_POSITIVE), 0)
