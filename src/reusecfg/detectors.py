"""Vulnerability detectors over the recovered CFG and its three-address form.

Two demonstrations of what context-separated control flow buys downstream:
transaction-origin authentication checks, and check/effect ordering around
external calls (the classic reentrancy shape).  Both work purely on def-use
chains in the value table plus ordering along acyclic CFG paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bytecode import BlockId
from .cfg import Cfg
from .emulator import CONST, SYM, TacOp, ValueTable, tac_ops, trace_origin
from .graph import dag_reachability

# Opcodes that can hand control to another contract with state at stake.
# STATICCALL cannot re-enter with writes and is excluded.
REENTRANT_CALLS = {"CALL", "CALLCODE", "DELEGATECALL"}

# Condition plumbing through which an origin check still counts as a check.
_CONDITION_CHAIN_OPS = {"EQ", "ISZERO", "AND"}

# The instructions each detector reads from the TAC; a block holding none
# of them has nothing for it, and its TAC is not built (see `_tac_holding`).
_TX_ORIGIN_READS = frozenset({"ORIGIN", "JUMPI", "EQ"})
_REENTRANCY_READS = frozenset({"SLOAD", "JUMPI", "SSTORE"} | REENTRANT_CALLS)


@dataclass(frozen=True)
class Finding:
    kind: str  # "TxOrigin" | "Reentrancy"
    site_offset: int
    evidence: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site_offset": self.site_offset,
            "evidence": [{"role": role, "offset": off} for role, off in self.evidence],
        }


def _tac_holding(cfg: Cfg, mnemonics: frozenset[str]) -> Iterator[tuple[BlockId, list[TacOp]]]:
    """Each emulated block that holds an instruction in `mnemonics`, in id
    order, with its TAC, built by `tac_ops` from the block's `tac_ids`; the
    other blocks' TAC is never built.  Clones share their original's
    instructions: each offset's are scanned once."""
    blocks, tac_ids = cfg.blocks, cfg.tac_ids
    holds: dict[int, bool] = {}
    for block_id in sorted(tac_ids):
        hit = holds.get(block_id.offset)
        if hit is None:
            instructions = blocks[block_id].instructions
            hit = holds[block_id.offset] = any(ins.mnemonic in mnemonics for ins in instructions)
        if hit:
            yield block_id, tac_ops(blocks[block_id], tac_ids[block_id])


def _chain_sources(
    vid: int, table: ValueTable, through: set[str] | None
) -> dict[str, int]:
    """Map of environment-source mnemonics reachable from `vid`, with the
    value id of the first occurrence.  When `through` is given, symbol
    nodes outside that set are not traversed (their operands are opaque)."""
    found: dict[str, int] = {}
    seen: set[int] = set()
    work = [vid]
    while work:
        v = work.pop()
        if v in seen:
            continue
        seen.add(v)
        value = table.get(v)
        if value.kind == SYM:
            if value.op in ("ORIGIN", "CALLER"):
                found.setdefault(value.op, v)
                continue
            if through is not None and value.op not in through:
                continue
        # Operands, phi members or a folded constant's provenance.
        work.extend(value.args)
    return found


def detect_tx_origin(cfg: Cfg, value_table: ValueTable) -> list[Finding]:
    """Transaction-origin authentication misuse.

    Flags (a) any branch condition that depends on an ORIGIN result through
    EQ/ISZERO/AND plumbing, and (b) any EQ whose two sides derive from
    ORIGIN and CALLER respectively (address-equality against the caller is
    the textbook phishing-prone check).  One pass over the TAC of the blocks
    holding an ORIGIN, JUMPI or EQ collects the ORIGIN sites and both kinds
    of candidate; the candidates are resolved after it, in the same order,
    since evidence names ORIGIN sites anywhere.
    """
    table = value_table
    origin_sites: dict[int, int] = {}  # ORIGIN result -> its offset
    checks: list[tuple[int, int]] = []  # JUMPI offset, condition
    compares: list[tuple[int, tuple[int, ...]]] = []  # EQ offset, operands
    for _, ops in _tac_holding(cfg, _TX_ORIGIN_READS):
        for op in ops:
            if op.mnemonic == "ORIGIN" and op.result is not None:
                origin_sites[op.result] = op.offset
            elif op.mnemonic == "JUMPI" and len(op.args) == 2:
                checks.append((op.offset, op.args[1]))
            elif op.mnemonic == "EQ" and len(op.args) == 2:
                compares.append((op.offset, op.args))
    findings: dict[tuple, Finding] = {}
    for offset, cond in checks:
        sources = _chain_sources(cond, table, _CONDITION_CHAIN_OPS)
        if "ORIGIN" in sources:
            origin_off = origin_sites.get(sources["ORIGIN"], offset)
            finding = Finding("TxOrigin", offset, (("origin", origin_off), ("check", offset)))
            findings.setdefault(("check", offset), finding)
    for offset, (a, b) in compares:
        left = _chain_sources(a, table, None)
        right = _chain_sources(b, table, None)
        pair_hit = ("ORIGIN" in left and "CALLER" in right) or (
            "ORIGIN" in right and "CALLER" in left
        )
        if pair_hit:
            origin_vid = left.get("ORIGIN", right.get("ORIGIN"))
            origin_off = origin_sites.get(origin_vid, offset)
            finding = Finding("TxOrigin", offset, (("origin", origin_off), ("compare", offset)))
            findings.setdefault(("compare", offset), finding)
    return sorted(findings.values(), key=lambda f: (f.site_offset, f.evidence))


def _structurally_equal(a: int, b: int, table: ValueTable) -> bool:
    """Def-use trees equal up to value-id renaming, constants by value.

    Conservative: unknowns never match, phi member sets must align exactly.
    """
    work = [(a, b)]
    seen: set[tuple[int, int]] = set()
    while work:
        x, y = work.pop()
        if x == y:
            continue
        if (x, y) in seen:
            continue
        seen.add((x, y))
        vx, vy = table.get(x), table.get(y)
        if vx.kind != vy.kind:
            return False
        if vx.kind == CONST:
            if vx.const != vy.const:
                return False
            continue
        if vx.kind == SYM:
            if vx.op != vy.op or len(vx.args) != len(vy.args):
                return False
            work.extend(zip(vx.args, vy.args))
            continue
        return False  # phi or unknown: too ambiguous to equate
    return True


def detect_reentrancy(cfg: Cfg, value_table: ValueTable) -> list[Finding]:
    """Check-interaction-effect ordering violations.

    Reports a finding when one acyclic path carries, in order: a branch
    whose condition depends on a storage read, then a re-enterable external
    call, then a write back to the structurally-same storage key.  Correct
    code updates state before the external call, so the matched shape is
    exactly the exploitable ordering.  Only the TAC of blocks holding one
    of those instructions is read.
    """
    table = value_table
    sloads: list[tuple[BlockId, int, int, int]] = []  # block, offset, result, key
    jumpis: list[tuple[BlockId, int, int]] = []  # block, offset, cond
    calls: list[tuple[BlockId, int]] = []
    sstores: list[tuple[BlockId, int, int]] = []  # block, offset, key
    for block_id, ops in _tac_holding(cfg, _REENTRANCY_READS):
        for op in ops:
            if op.mnemonic == "SLOAD" and op.result is not None and op.args:
                sloads.append((block_id, op.offset, op.result, op.args[0]))
            elif op.mnemonic == "JUMPI" and len(op.args) == 2:
                jumpis.append((block_id, op.offset, op.args[1]))
            elif op.mnemonic in REENTRANT_CALLS:
                calls.append((block_id, op.offset))
            elif op.mnemonic == "SSTORE" and len(op.args) == 2:
                sstores.append((block_id, op.offset, op.args[0]))
    if not (sloads and jumpis and calls and sstores):
        return []  # a finding needs one of each: skip the reachability

    reach = dag_reachability(cfg.succ, sorted(cfg.blocks))

    def ordered(b1: BlockId, off1: int, b2: BlockId, off2: int) -> bool:
        if b1 == b2:
            return off1 < off2
        return b2 in reach[b1]

    findings: dict[tuple, Finding] = {}
    for jb, joff, cond in jumpis:
        cond_chain = trace_origin(cond, table)
        guarded = [
            (sb, soff, res, key)
            for sb, soff, res, key in sloads
            if res in cond_chain and ordered(sb, soff, jb, joff)
        ]
        if not guarded:
            continue
        for cb, coff in calls:
            if not ordered(jb, joff, cb, coff):
                continue
            for stb, stoff, skey in sstores:
                if not ordered(cb, coff, stb, stoff):
                    continue
                for _, _, _, lkey in guarded:
                    if _structurally_equal(lkey, skey, table):
                        key = (joff, coff, stoff)
                        findings.setdefault(
                            key,
                            Finding(
                                "Reentrancy",
                                coff,
                                (
                                    ("check", joff),
                                    ("call", coff),
                                    ("store", stoff),
                                ),
                            ),
                        )
                        break
    return sorted(findings.values(), key=lambda f: (f.site_offset, f.evidence))
