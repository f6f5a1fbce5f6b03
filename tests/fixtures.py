"""Hand-assembled bytecode fixtures shared across the test modules."""

import signal
from contextlib import contextmanager

from reusecfg import Assembler


@contextmanager
def time_limit(seconds: float):
    """Raise `TimeoutError` in the enclosed work once `seconds` of wall time
    have passed, through SIGALRM; the previous handler is put back after."""

    def too_slow(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def two_branch_shared_increment() -> bytes:
    """Two conditional branches whose taken arms call the same shared
    snippet with different pre-pushed returns.  Context-aware recovery
    yields four acyclic paths; the context-blind graph routes both returns
    through one node, creating a spurious loop.
    """
    asm = Assembler()
    asm.push(0)
    asm.push_label("J1")
    asm.op("JUMPI")
    asm.push_label("J1")
    asm.push_label("S")
    asm.op("JUMP")
    asm.label("J1")
    asm.op("JUMPDEST")
    asm.push(0)
    asm.push_label("J2")
    asm.op("JUMPI")
    asm.push_label("J2")
    asm.push_label("S")
    asm.op("JUMP")
    asm.label("J2")
    asm.op("JUMPDEST")
    asm.op("STOP")
    asm.label("S")
    asm.op("JUMPDEST")
    asm.push(2)
    asm.push(0)
    asm.op("ADD")
    asm.op("POP")
    asm.op("JUMP")
    return asm.assemble()


def mixed_join_fixture() -> tuple[bytes, dict[str, int]]:
    """Shared block X with one reusing caller and two callers forming a
    genuine join: A pre-pushes continuation C, B and E both pre-push D.
    Exactly seven blocks; a junk word sits under the continuation so the
    tainted entry lands at stack index 1.
    """
    asm = Assembler()
    # A @0
    asm.push(0x11)
    asm.push_label("C")
    asm.push(1)
    asm.push_label("X")
    asm.op("JUMPI")
    # B (fallthrough from A)
    asm.op("POP")
    asm.op("POP")
    asm.push(0x11)
    asm.push_label("D")
    asm.push(1)
    asm.push_label("X")
    asm.op("JUMPI")
    # E (fallthrough from B)
    asm.op("POP")
    asm.op("POP")
    asm.push(0x11)
    asm.push_label("D")
    asm.push_label("X")
    asm.op("JUMP")
    asm.label("X")
    asm.op("JUMPDEST")
    asm.op("JUMP")
    asm.label("C")
    asm.op("JUMPDEST")
    asm.op("POP")
    asm.op("STOP")
    asm.label("D")
    asm.op("JUMPDEST")
    asm.op("POP")
    asm.op("STOP")
    code = asm.assemble()
    blocks = {"A": 0}
    first_pop = code.index(0x50)
    blocks["B"] = first_pop
    blocks["E"] = code.index(0x50, first_pop + 2)
    blocks.update({k: v for k, v in asm.labels.items()})
    return code, blocks


def masked_operand_fixture() -> tuple[bytes, dict[str, int], int]:
    """The jump target is computed by masking a wider pre-pushed word, so
    the taint must follow the mask computation back to the push."""
    asm = Assembler()
    asm.push(0, width=3)  # patched below to 0x02_0000 | dest
    asm.push_label("X")
    asm.op("JUMP")
    asm.label("X")
    asm.op("JUMPDEST")
    asm.push(0xFFFF, width=2)
    asm.op("AND")
    asm.op("JUMP")
    asm.label("D")
    asm.op("JUMPDEST")
    asm.op("STOP")
    code = bytearray(asm.assemble())
    wide = 0x020000 | asm.labels["D"]
    code[1:4] = wide.to_bytes(3, "big")
    return bytes(code), dict(asm.labels), wide


def three_exit_fixture() -> tuple[bytes, int]:
    """Three dispatcher arms all jumping to one STOP block."""
    asm = Assembler()
    asm.push(0)
    asm.push_label("end")
    asm.op("JUMPI")
    asm.push(0)
    asm.push_label("end")
    asm.op("JUMPI")
    asm.push_label("end")
    asm.op("JUMP")
    asm.label("end")
    asm.op("JUMPDEST")
    asm.op("STOP")
    return asm.assemble(), asm.labels["end"]


def memory_jump_fixture() -> bytes:
    """Jump operand loaded from memory: unresolvable without a memory model."""
    asm = Assembler()
    asm.push(0)
    asm.op("MLOAD")
    asm.op("JUMP")
    asm.label("land")
    asm.op("JUMPDEST")
    asm.op("STOP")
    return asm.assemble()


def single_loop_with_exit() -> bytes:
    """Three blocks: A -> B, B -> A (loop), B -> C (exit)."""
    asm = Assembler()
    asm.label("A")
    asm.op("JUMPDEST")
    asm.push_label("B")
    asm.op("JUMP")
    asm.label("B")
    asm.op("JUMPDEST")
    asm.push(0)
    asm.push_label("A")
    asm.op("JUMPI")
    asm.op("STOP")
    return asm.assemble()


def diamond_fixture() -> bytes:
    """Entry branches to two arms that rejoin at one exit block."""
    asm = Assembler()
    asm.push(0)
    asm.push_label("L")
    asm.op("JUMPI")
    asm.push_label("M")
    asm.op("JUMP")
    asm.label("L")
    asm.op("JUMPDEST")
    asm.push_label("M")
    asm.op("JUMP")
    asm.label("M")
    asm.op("JUMPDEST")
    asm.op("STOP")
    return asm.assemble()


# ---------------------------------------------------------------------------
# Detector fixtures.  Each builder returns bytecode; suites pair them with
# the expected outcome.
# ---------------------------------------------------------------------------

def _call_sequence(asm: Assembler, op: str = "CALL") -> None:
    pops = {"CALL": 7, "CALLCODE": 7, "DELEGATECALL": 6, "STATICCALL": 6}[op]
    for _ in range(pops - 2):
        asm.push(0)
    asm.push(0xEE)
    asm.push(0)
    asm.op(op)
    asm.op("POP")


def _finish(asm: Assembler) -> bytes:
    asm.op("STOP")
    return asm.assemble()


def txo_eq_const_jumpi() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_origin_caller_eq_jumpi() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("CALLER")
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_origin_caller_eq_only() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("CALLER")
    asm.op("EQ")
    asm.op("POP")
    return _finish(asm)


def txo_inverted_check() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.op("ISZERO")
    asm.push_label("fail")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("fail")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_masked_check() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push((1 << 160) - 1, width=20)
    asm.op("AND")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_direct_condition() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_iszero_condition() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("ISZERO")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_caller_origin_swapped() -> bytes:
    asm = Assembler()
    asm.op("CALLER")
    asm.op("ORIGIN")
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_double_negation() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.op("ISZERO")
    asm.op("ISZERO")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_dup_plumbing() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("DUP1")
    asm.op("POP")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_and_of_checks() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.op("CALLVALUE")
    asm.op("ISZERO")
    asm.op("AND")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_neg_caller_check() -> bytes:
    asm = Assembler()
    asm.op("CALLER")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_neg_origin_popped() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("POP")
    asm.op("CALLER")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_neg_origin_to_memory() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0)
    asm.op("MSTORE")
    return _finish(asm)


def txo_neg_origin_to_storage() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(7)
    asm.op("SSTORE")
    return _finish(asm)


def txo_neg_origin_arith_popped() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("CALLVALUE")
    asm.op("ADD")
    asm.op("POP")
    return _finish(asm)


def txo_neg_origin_arith_check() -> bytes:
    """The branch condition, a sum ANDed with itself, reaches ORIGIN only
    through the ADD, which is not condition plumbing."""
    asm = Assembler()
    asm.op("ORIGIN")
    asm.op("CALLVALUE")
    asm.op("ADD")
    asm.op("DUP1")
    asm.op("AND")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_neg_eq_const_popped() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0xABCD)
    asm.op("EQ")
    asm.op("POP")
    return _finish(asm)


def txo_neg_origin_call_target() -> bytes:
    asm = Assembler()
    for _ in range(5):
        asm.push(0)
    asm.op("ORIGIN")
    asm.push(0)
    asm.op("CALL")
    asm.op("POP")
    return _finish(asm)


def txo_neg_caller_caller_eq() -> bytes:
    asm = Assembler()
    asm.op("CALLER")
    asm.op("CALLER")
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_neg_timestamp_check() -> bytes:
    asm = Assembler()
    asm.op("TIMESTAMP")
    asm.push(0x1000)
    asm.op("GT")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    return _finish(asm)


def txo_neg_origin_logged() -> bytes:
    asm = Assembler()
    asm.op("ORIGIN")
    asm.push(0)
    asm.push(0)
    asm.op("LOG1")
    return _finish(asm)


TX_ORIGIN_POSITIVE = [
    txo_eq_const_jumpi,
    txo_origin_caller_eq_jumpi,
    txo_origin_caller_eq_only,
    txo_inverted_check,
    txo_masked_check,
    txo_direct_condition,
    txo_iszero_condition,
    txo_caller_origin_swapped,
    txo_double_negation,
    txo_dup_plumbing,
    txo_and_of_checks,
]

TX_ORIGIN_NEGATIVE = [
    txo_neg_caller_check,
    txo_neg_origin_popped,
    txo_neg_origin_to_memory,
    txo_neg_origin_to_storage,
    txo_neg_origin_arith_popped,
    txo_neg_origin_arith_check,
    txo_neg_eq_const_popped,
    txo_neg_origin_call_target,
    txo_neg_caller_caller_eq,
    txo_neg_timestamp_check,
    txo_neg_origin_logged,
]


def _guard(asm: Assembler, key: int, body: str) -> None:
    """SLOAD key; continue to `body` when non-zero, else STOP."""
    asm.push(key)
    asm.op("SLOAD")
    asm.push_label(body)
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label(body)
    asm.op("JUMPDEST")


def ree_basic() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_reused_check() -> bytes:
    """The balance-read block is shared by the guard and the payout
    computation, the shape that folds check and interaction together in a
    context-blind graph."""
    asm = Assembler()
    asm.push_label("r1")
    asm.push_label("getbal")
    asm.op("JUMP")
    asm.label("getbal")
    asm.op("JUMPDEST")
    asm.push(5)
    asm.op("SLOAD")
    asm.op("SWAP1")
    asm.op("JUMP")
    asm.label("r1")
    asm.op("JUMPDEST")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    asm.push_label("r2")
    asm.push_label("getbal")
    asm.op("JUMP")
    asm.label("r2")
    asm.op("JUMPDEST")
    asm.op("POP")
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_lt_check() -> bytes:
    asm = Assembler()
    asm.push(5)
    asm.op("SLOAD")
    asm.push(100)
    asm.op("LT")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_store_in_later_block() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm)
    asm.push_label("fin")
    asm.op("JUMP")
    asm.label("fin")
    asm.op("JUMPDEST")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_two_keys_one_violated() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    asm.push(1)
    asm.push(6)
    asm.op("SSTORE")  # unrelated key updated early
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_folded_key() -> bytes:
    asm = Assembler()
    asm.push(1)
    asm.push(4)
    asm.op("ADD")  # folds to 5
    asm.op("SLOAD")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    asm.push(0)
    asm.push(2)
    asm.push(3)
    asm.op("ADD")  # folds to 5 as well
    asm.op("SSTORE")
    return _finish(asm)


def ree_hashed_key() -> bytes:
    asm = Assembler()
    asm.push(0x20)
    asm.push(0)
    asm.op("SHA3")
    asm.op("SLOAD")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    asm.push(0)
    asm.push(0x20)
    asm.push(0)
    asm.op("SHA3")
    asm.op("SSTORE")
    return _finish(asm)


def ree_delegatecall() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm, "DELEGATECALL")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_callcode() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm, "CALLCODE")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_two_calls() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm)
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_check_in_loopish_shape() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    asm.push_label("inter")
    asm.op("JUMP")
    asm.label("inter")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_store_first() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    _call_sequence(asm)
    return _finish(asm)


def ree_neg_no_store() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm)
    return _finish(asm)


def ree_neg_other_key() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm)
    asm.push(0)
    asm.push(6)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_staticcall() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    _call_sequence(asm, "STATICCALL")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_unchecked_sload() -> bytes:
    asm = Assembler()
    asm.push(5)
    asm.op("SLOAD")
    asm.op("POP")
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_check_after_call() -> bytes:
    asm = Assembler()
    _call_sequence(asm)
    _guard(asm, 5, "body")
    return _finish(asm)


def ree_neg_calldata_check() -> bytes:
    asm = Assembler()
    asm.push(0)
    asm.op("CALLDATALOAD")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_call_store_disjoint_arms() -> bytes:
    asm = Assembler()
    asm.push(5)
    asm.op("SLOAD")
    asm.push_label("arm_call")
    asm.op("JUMPI")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    asm.op("STOP")
    asm.label("arm_call")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    return _finish(asm)


def ree_neg_store_before_call_same_block() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    _call_sequence(asm)
    asm.push(1)
    asm.push(6)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_no_call() -> bytes:
    asm = Assembler()
    _guard(asm, 5, "body")
    asm.push(0)
    asm.push(5)
    asm.op("SSTORE")
    return _finish(asm)


def ree_neg_hashed_key_differs() -> bytes:
    asm = Assembler()
    asm.push(0x20)
    asm.push(0)
    asm.op("SHA3")
    asm.op("SLOAD")
    asm.push_label("body")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")
    _call_sequence(asm)
    asm.push(0)
    asm.push(0x40)
    asm.push(0)
    asm.op("SHA3")
    asm.op("SSTORE")
    return _finish(asm)


REENTRANCY_POSITIVE = [
    ree_basic,
    ree_reused_check,
    ree_lt_check,
    ree_store_in_later_block,
    ree_two_keys_one_violated,
    ree_folded_key,
    ree_hashed_key,
    ree_delegatecall,
    ree_callcode,
    ree_two_calls,
    ree_check_in_loopish_shape,
]

REENTRANCY_NEGATIVE = [
    ree_neg_store_first,
    ree_neg_no_store,
    ree_neg_other_key,
    ree_neg_staticcall,
    ree_neg_unchecked_sload,
    ree_neg_check_after_call,
    ree_neg_calldata_check,
    ree_neg_call_store_disjoint_arms,
    ree_neg_store_before_call_same_block,
    ree_neg_no_call,
    ree_neg_hashed_key_differs,
]


# PUSH1 2, then the loop JUMPDEST; CALLER; SWAP1; DUP1; JUMP back to 0x2:
# each turn re-enters one entry deeper, and no instruction reads below the
# bottom of the stack.
DEEPENING_LOOP = bytes.fromhex("60025b33908056")


def fork_chain(units: int) -> bytes:
    """`units` times PUSH1 0; PUSH2 next; JUMPI; JUMPDEST, then STOP.  Both
    arms of each JUMPI land on the next unit, so a concrete run forks
    2^units ways."""
    asm = Assembler()
    for i in range(units):
        asm.push(0)
        asm.push_label(f"u{i}")
        asm.op("JUMPI")
        asm.jumpdest(f"u{i}")
    asm.op("STOP")
    return asm.assemble()


def shared_callee(sites: int = 256) -> tuple[bytes, int]:
    """`sites` call sites of one function F, then STOP, then F, and F's
    offset.  Site i is PUSH2 ret; PUSH2 F; JUMP; ret: JUMPDEST, at offset
    8i; F is JUMPDEST; JUMP, returning to the pushed address.  F's return
    addresses all meet in one entry stack in baseline recovery."""
    asm = Assembler()
    for i in range(sites):
        asm.push_label(f"ret{i}")
        asm.push_label("F")
        asm.op("JUMP")
        asm.jumpdest(f"ret{i}")
    asm.op("STOP")
    asm.jumpdest("F")
    asm.op("JUMP")
    return asm.assemble(), 8 * sites + 1


def shared_revert(sites: int) -> tuple[bytes, int]:
    """`sites` times PUSH1 0; PUSH2 end; JUMPI, then STOP, then end:
    JUMPDEST; PUSH1 0; DUP1; REVERT, and end's offset.  Every site is a
    predecessor of the one revert block."""
    asm = Assembler()
    for _ in range(sites):
        asm.push(0)
        asm.push_label("end")
        asm.op("JUMPI")
    asm.op("STOP")
    asm.jumpdest("end")
    asm.push(0)
    asm.op("DUP1")
    asm.op("REVERT")
    return asm.assemble(), 6 * sites + 1


# Random code: mostly stack, arithmetic and control-flow opcodes, pushes of
# the offset of the k-th JUMPDEST (k drawn, the offset filled in once the
# layout is known) and now and then any byte, so that random code reaches
# shared blocks with pre-pushed jump operands.
_OPS = [0x00, 0x01, 0x33, 0x50, 0x56, 0x57, 0x5B, 0x5F, 0x80, 0x81, 0x90, 0x91]


def _assemble_elements(elements):
    dests, offset = [], 0
    for element in elements:
        if element == 0x5B:
            dests.append(offset)
        offset += 2 if isinstance(element, tuple) else 1
    code = bytearray()
    for element in elements:
        if isinstance(element, tuple):
            k = element[1]
            code += bytes([0x60, dests[k % len(dests)] % 256 if dests else k])
        else:
            code.append(element)
    return bytes(code)


def random_program(rng, size=100):
    """1 to `size` elements: a JUMPDEST push 2 times in 8, a listed opcode
    5 times in 8, any byte 1 time in 8."""
    elements = []
    for _ in range(rng.randint(1, size)):
        kind = rng.randrange(8)
        if kind < 2:
            elements.append(("label", rng.randrange(16)))
        elif kind < 7:
            elements.append(rng.choice(_OPS))
        else:
            elements.append(rng.randrange(256))
    return _assemble_elements(elements)


# CALLER, ADD, DUP1, DUP2, SWAP1, POP, PUSH0, ISZERO, ORIGIN, SLOAD, MUL.
_LOOP_OPS = [0x33, 0x01, 0x80, 0x81, 0x90, 0x50, 0x5F, 0x15, 0x32, 0x54, 0x02]
# STOP; PUSH0 DUP1 REVERT; PUSH0 DUP1 RETURN; INVALID.
_HALTS = [b"\x00", b"\x5f\x80\xfd", b"\x5f\x80\xf3", b"\xfe"]


def halting_loop(rng):
    """A loop in front of a halting block: PUSH0 0 to 3 times; the loop
    JUMPDEST, 1 to 6 listed ops and PUSH1 loop; JUMPI; maybe a JUMPDEST and
    0 to 3 more ops; then JUMPDEST and a STOP, REVERT, RETURN or INVALID.
    The loop's entry stack changes on many turns, so recovery emulates it
    again and again before it reaches the halting block."""
    loop = rng.randrange(4)
    code = bytearray(b"\x5f" * loop + b"\x5b")
    code += bytes(rng.choice(_LOOP_OPS) for _ in range(rng.randint(1, 6)))
    code += bytes([0x60, loop, 0x57])
    if rng.randrange(2):
        code += b"\x5b" + bytes(rng.choice(_LOOP_OPS) for _ in range(rng.randint(0, 3)))
    return bytes(code + b"\x5b" + rng.choice(_HALTS))


# The environment the coverage checks interpret CALLER with: a word that is
# no jump destination in any fixture here.
CALLER_ENV = {"CALLER": 0x1234}


def shared_returns(rng):
    """2 to 5 call sites of one function F, dispatched by a chain of JUMPIs
    in a random order.  Site i pre-pushes a low slot (a constant label,
    CALLER or nothing) and a top slot (the label of T, its own return label
    or CALLER), then jumps to F: JUMPDEST; JUMP.  T is JUMPDEST; JUMP too,
    so a site whose top slot is T returns through its low slot.  Return
    label i is JUMPDEST; STOP."""
    sites = rng.randint(2, 5)
    labels = ["T"] + [f"ret{i}" for i in range(sites)]
    asm = Assembler()
    order = rng.sample(range(sites), sites)
    for i in order[:-1]:
        asm.push(0)
        asm.push_label(f"site{i}")
        asm.op("JUMPI")
    asm.jump(f"site{order[-1]}")
    for i in range(sites):
        asm.jumpdest(f"site{i}")
        low = rng.randrange(3)
        if low == 0:
            asm.push_label(rng.choice(labels))
        elif low == 1:
            asm.op("CALLER")
        top = rng.randrange(3)
        if top == 0:
            asm.push_label("T")
        elif top == 1:
            asm.push_label(f"ret{i}")
        else:
            asm.op("CALLER")
        asm.jump("F")
    asm.jumpdest("F")
    asm.op("JUMP")
    asm.jumpdest("T")
    asm.op("JUMP")
    for i in range(sites):
        asm.jumpdest(f"ret{i}")
        asm.op("STOP")
    return asm.assemble()
