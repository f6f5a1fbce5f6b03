import hashlib
import random

import pytest

from fixtures import CALLER_ENV, fork_chain, halting_loop, random_program, shared_returns, time_limit
from reusecfg import corpus
from reusecfg.bytecode import (
    CODE_SIZE_LIMIT,
    JUMPDEST,
    OPCODES,
    STACK_LIMIT,
    WORD_MASK,
    disassemble,
    identify_blocks,
)
from reusecfg.cfg import AnalysisError, Mode, build_cfg
from reusecfg.corpus import (
    BRANCH_BOUND,
    Assembler,
    Pattern,
    PatternSpec,
    UnsupportedOpcodeError,
    concrete_op,
    generate,
    interpret,
    stress_fixture,
)
from reusecfg.metrics import Trace, trace_coverage


def test_unconditional_jump_trace():
    # PUSH1 4; JUMP; INVALID; JUMPDEST; STOP -- the landing block sits at 4,
    # right after the 1-byte INVALID at 3.
    traces = interpret(bytes.fromhex("600456fe5b00"))
    assert [t.offsets for t in traces] == [(0, 4)]


def test_unconditional_jump_trace_without_gap():
    # PUSH1 3; JUMP; JUMPDEST; STOP: two blocks, offsets 0 and 3.
    traces = interpret(bytes.fromhex("6003565b00"))
    assert [t.offsets for t in traces] == [(0, 3)]


def test_jumpi_forks_both_arms():
    # PUSH1 1; PUSH1 6; JUMPI; STOP; JUMPDEST; STOP
    traces = interpret(bytes.fromhex("6001600657005b00"), branch_bound=1)
    assert sorted(t.offsets for t in traces) == [(0, 5), (0, 6)]


def test_branch_bound_abandons_deep_forks():
    code = bytes.fromhex("6001600657005b00")
    assert interpret(code, branch_bound=0) == []


def test_invalid_jump_records_revert_trace():
    # PUSH1 3; JUMP with no JUMPDEST at 3
    traces = interpret(bytes.fromhex("60035600"))
    assert [t.offsets for t in traces] == [(0,)]


def test_jump_into_push_payload_reverts():
    # PUSH1 4; JUMP; PUSH2 0x5b00 -- byte 4 looks like JUMPDEST but is data.
    traces = interpret(bytes.fromhex("60045661 5b00".replace(" ", "")))
    assert [t.offsets for t in traces] == [(0,)]


def test_underflow_records_revert_trace():
    traces = interpret(bytes.fromhex("01"))
    assert [t.offsets for t in traces] == [(0,)]


def test_unsupported_opcode_is_named():
    with pytest.raises(UnsupportedOpcodeError) as excinfo:
        interpret(bytes.fromhex("60005400"))  # SLOAD unsupported without env
    assert "SLOAD" in str(excinfo.value)


def test_unsupported_opcode_is_an_analysis_error():
    # CALLER without `env`: one error family with the interpreter's budgets.
    with pytest.raises(AnalysisError) as excinfo:
        interpret(bytes.fromhex("3300"))
    assert str(excinfo.value) == "unsupported opcode in concrete interpreter: CALLER"


def test_environment_constants():
    # CALLVALUE; PUSH1 5; JUMPI; STOP; JUMPDEST; STOP
    code = bytes.fromhex("34600557005b00")
    traces = interpret(code, env={"CALLVALUE": 1})
    assert sorted(t.offsets for t in traces) == [(0, 4), (0, 5)]


def test_basic_fake_join_trace_count_matches_paths():
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=1))
    assert len(gt.traces) == gt.expected_sensitive_paths == 2


def test_nested_fake_loops_inner_block_runs_four_times():
    gt = generate(PatternSpec(Pattern.NESTED_FAKE_LOOPS, seed=0, nesting_depth=2))
    assert len(gt.traces) == 1
    body = gt.label_offsets["body"]
    assert gt.traces[0].offsets.count(body) == 4


def test_ground_truth_traces_replay():
    for pattern in Pattern:
        gt = generate(PatternSpec(pattern, seed=2, nesting_depth=2))
        replayed = interpret(gt.bytecode)
        assert sorted(t.offsets for t in replayed) == sorted(
            t.offsets for t in gt.traces
        )


def test_expected_path_ordering_invariant():
    for pattern in Pattern:
        for depth in (1, 2, 3, 4):
            gt = generate(PatternSpec(pattern, seed=0, nesting_depth=depth))
            assert gt.expected_sensitive_paths <= gt.expected_insensitive_paths


def test_seeds_vary_layout_but_not_ground_truth():
    offsets = set()
    for seed in range(5):
        gt = generate(PatternSpec(Pattern.FAKE_JOIN_MULTI_EXIT, seed=seed, nesting_depth=2))
        assert gt.expected_sensitive_paths == 6
        assert gt.expected_insensitive_paths == 18
        offsets.add(tuple(sorted(gt.reused_offsets)))
    assert len(offsets) > 1  # filler shifts offsets across seeds


def test_generation_is_deterministic_per_spec():
    a = generate(PatternSpec(Pattern.FAKE_LOOP_WITH_TRANSFERS, seed=4, nesting_depth=3))
    b = generate(PatternSpec(Pattern.FAKE_LOOP_WITH_TRANSFERS, seed=4, nesting_depth=3))
    assert a.bytecode == b.bytecode
    assert a.reused_offsets == b.reused_offsets
    assert [t.offsets for t in a.traces] == [t.offsets for t in b.traces]


def test_fixture_soundness_coverage():
    for pattern in Pattern:
        gt = generate(PatternSpec(pattern, seed=4, nesting_depth=3))
        cfg = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
        covered, total, uncovered = trace_coverage(cfg, gt.traces)
        assert covered == total and not uncovered, pattern


def test_oversized_fixture_rejected():
    with pytest.raises(ValueError):
        generate(PatternSpec(Pattern.NESTED_FAKE_LOOPS, seed=0, nesting_depth=2000))


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=0)


def test_assembler_round_trip():
    asm = Assembler()
    asm.push(0x1234, width=2)
    asm.push(0, width=0)
    asm.push(1 << 255)
    asm.push_label("end")
    asm.op("JUMP")
    asm.label("end")
    asm.op("JUMPDEST")
    asm.op("STOP")
    code = asm.assemble()
    mnemonics = [i.mnemonic for i in disassemble(code)]
    assert mnemonics == ["PUSH2", "PUSH0", "PUSH32", "PUSH2", "JUMP", "JUMPDEST", "STOP"]
    assert asm.labels["end"] == 41
    assert asm.size == len(code)


@pytest.mark.parametrize(
    "value, width",
    [(1 << 256, None), (5, 40), (256, 1), (1, 0), (-1, None)],
    ids=["word-overflow", "width-40", "too-big-for-width", "nonzero-push0", "negative"],
)
def test_assembler_rejects_pushes_that_do_not_fit(value, width):
    asm = Assembler()
    with pytest.raises(ValueError):
        asm.push(value, width)
    assert asm.assemble() == b""


def test_assembler_rejects_duplicate_labels():
    asm = Assembler()
    asm.label("x")
    with pytest.raises(ValueError):
        asm.label("x")


def test_stress_fixture_is_large_and_wellformed():
    code = stress_fixture(24_000)
    assert 20_000 <= len(code) <= CODE_SIZE_LIMIT
    blocks = identify_blocks(disassemble(code))
    assert len(blocks) > 100


# The smallest target size that fits one segment, per seed.
@pytest.mark.parametrize("seed, smallest", [(0, 203), (1, 223), (2, 255), (3, 247), (4, 193)])
def test_stress_fixture_below_one_segment_rejected(seed, smallest):
    assert len(stress_fixture(smallest, seed)) == smallest
    for size in (smallest - 1, 0):
        with pytest.raises(ValueError, match=f"target size {size} is below one segment"):
            stress_fixture(size, seed)


def test_interpreter_prunes_unproductive_loops():
    # JUMPDEST; PUSH1 0; PUSH1 0; JUMPI back to 0 forever
    asm = Assembler()
    asm.label("top")
    asm.op("JUMPDEST")
    asm.push(1)
    asm.push_label("top")
    asm.op("JUMPI")
    asm.op("STOP")
    traces = interpret(asm.assemble(), branch_bound=64)
    # terminates: the loop is re-entered at most once per decision state
    assert sorted(tuple(t.offsets) for t in traces) == [(0, 0, 7), (0, 7)]


def test_fork_budget_ends_in_structured_error():
    # 2^18 runs: past the fork budget long before the branch bound of 20.
    with time_limit(1), pytest.raises(AnalysisError, match="fork budget of 65536"):
        interpret(fork_chain(18), branch_bound=20)


def test_step_budget_ends_in_structured_error():
    # JUMPDEST; PUSH1 0; JUMP: an endless loop with no JUMPI, so neither the
    # fork budget nor the branch bound applies.
    with time_limit(1), pytest.raises(AnalysisError, match="step budget of 524288"):
        interpret(bytes.fromhex("5b600056"))


@pytest.mark.parametrize(
    "code, traces, steps",
    [
        ("5b60", [(0,)], 3),  # JUMPDEST; PUSH1 with its payload cut off
        # JUMPDEST; PUSH1 0; PUSH1 0; JUMPI as the last byte: the fall arm
        # runs past the end of code.
        ("5b6000600057", [(0, 0), (0,)], 14),
        ("600160020150", [(0,)], 5),  # PUSH1 1; PUSH1 2; ADD; POP; then no terminator
        ("5b5f5f57", [(0, 0), (0,)], 14),  # JUMPDEST; PUSH0; PUSH0; JUMPI back to 0
    ],
)
def test_exact_traces_and_steps_at_the_end_of_code(code, traces, steps, monkeypatch):
    # `steps` counts instructions executed over all forks, one for each
    # implicit STOP past the end of code included, so a budget of exactly
    # `steps` suffices and one less does not.
    monkeypatch.setattr("reusecfg.corpus._MAX_STEPS", steps)
    assert [t.offsets for t in interpret(bytes.fromhex(code))] == traces
    monkeypatch.setattr("reusecfg.corpus._MAX_STEPS", steps - 1)
    with pytest.raises(AnalysisError, match=f"step budget of {steps - 1} exceeded"):
        interpret(bytes.fromhex(code))


# Traces, in order, or the exception type and message of `interpret` on
# 2,000 seeded `random_program`s and 1,000 random byte strings, at branch
# bounds 0, 1, 4 and 16 in turn, half of them with environment constants.
# Computed before `interpret` was rewritten to step over decoded blocks.
INTERPRET_RANDOM_SHA256 = "ccb8596e36ff8cf0623c01fc3c6b5ec96ff3e7862c1041500392d6f0495b82e3"

_ENV = {
    "CALLER": 0x33,
    "CALLVALUE": 1,
    "ORIGIN": 0xAB,
    "SLOAD": 0,
    "CALLDATALOAD": 7,
    "MSTORE": 0,
    "MLOAD": 4,
}


def interpret_random_digest() -> str:
    rng = random.Random(15)
    h = hashlib.sha256()
    for i in range(3000):
        bound = (0, 1, 4, 16)[i % 4]
        if i < 2000:
            code = random_program(rng)
        else:
            code = bytes(rng.randrange(256) for _ in range(rng.randint(1, 120)))
        env = _ENV if rng.randrange(2) else None
        try:
            data = repr([t.offsets for t in interpret(code, bound, env)])
        except AnalysisError as exc:
            data = f"{type(exc).__name__}: {exc}"
        h.update(f"{code.hex()} {bound} {env is not None} {len(data)}\n".encode())
        h.update(data.encode())
    return h.hexdigest()


def test_interpreter_on_random_code_matches_pinned_digest():
    assert interpret_random_digest() == INTERPRET_RANDOM_SHA256


# ---------------------------------------------------------------------------
# Reference: the interpreter loop before the opcode table
# ---------------------------------------------------------------------------


def ref_interpret(code, branch_bound=BRANCH_BOUND, env=None):
    """`interpret` as it was before it stepped through `_STEPS`: one
    `OPCODES` lookup, a `_HALTING` test and mnemonic compares per
    instruction, and `concrete_op` for arithmetic.  Returns the traces and
    the number of steps used; the budgets are read off `reusecfg.corpus`."""
    env = env or {}
    # block offset -> (instructions, offset the block falls through to)
    blocks = {
        b.id.offset: (b.instructions, b.end_offset)
        for b in identify_blocks(disassemble(code))
    }
    # Bytes inside push payloads are not legal landing sites; every
    # JUMPDEST opens a block.
    valid_dests = {o for o, (ins, _) in blocks.items() if ins[0].opcode == JUMPDEST}

    # A trace so far is a linked list, newest block first: (offset, rest),
    # ending in None; extending it and sharing it with a fork are O(1).
    # (next block, stack tuple, decisions used, trace so far, seen decision states)
    work = [(0, (), 0, None, frozenset())]
    found: dict[tuple[int, ...], None] = {}  # distinct traces, in the order first reached
    forks = 0
    max_steps, max_forks = corpus._MAX_STEPS, corpus._MAX_FORKS
    steps_left = max_steps

    def record(node) -> None:
        offsets = []
        while node is not None:
            offset, node = node
            offsets.append(offset)
        found[tuple(reversed(offsets))] = None

    while work:
        offset, stack, used, trace, seen = work.pop()
        stack = list(stack)
        while True:
            block = blocks.get(offset)
            if block is None:
                instructions = corpus._IMPLICIT_STOP
            else:
                trace = (offset, trace)
                instructions, offset = block
            # A `break` ends the fork; running off the block goes on to `offset`.
            for pc, op, name, data, _, _ in instructions:
                steps_left -= 1
                if steps_left < 0:
                    raise AnalysisError(f"interpreter step budget of {max_steps} exceeded")
                entry = OPCODES.get(op)
                # Invalid-class and halting opcodes end the run; underflow reverts.
                if entry is None or name in corpus._HALTING or len(stack) < entry[1]:
                    record(trace)
                    break
                if data is not None:
                    stack.append(data)
                elif name == "PUSH0":
                    stack.append(0)
                elif 0x80 <= op <= 0x8F:
                    stack.append(stack[-(op - 0x7F)])
                elif 0x90 <= op <= 0x9F:
                    depth = op - 0x8F
                    stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
                elif name == "POP":
                    stack.pop()
                elif name == "JUMPDEST":
                    pass
                elif name == "JUMP":
                    offset = stack.pop()
                    if offset not in valid_dests:
                        record(trace)  # invalid jump reverts
                        break
                elif name == "JUMPI":
                    target = stack.pop()
                    stack.pop()  # condition: both arms are explored regardless
                    if used >= branch_bound:
                        break  # fork abandoned, no trace
                    # A decision state may recur once (one extra loop lap);
                    # beyond that the fork makes no progress and is pruned.
                    state_key = (pc, tuple(stack))
                    if (state_key, 1) not in seen:
                        seen = seen | {(state_key, 1)}
                    elif (state_key, 2) not in seen:
                        seen = seen | {(state_key, 2)}
                    else:
                        break
                    forks += 1
                    if forks > max_forks:
                        raise AnalysisError(f"interpreter fork budget of {max_forks} exceeded")
                    used += 1
                    # Explore the fall arm via the work list, continue on taken.
                    work.append((offset, tuple(stack), used, trace, seen))
                    if target not in valid_dests:
                        record(trace)  # taken arm reverts on a bad target
                        break
                    offset = target
                else:
                    operands = [stack.pop() for _ in range(entry[1])]
                    result = env[name] & WORD_MASK if name in env else concrete_op(name, operands)
                    if entry[2]:
                        stack.append(result)
                if len(stack) > STACK_LIMIT:
                    record(trace)
                    break
            else:
                continue
            break

    return [Trace(trace) for trace in found], max_steps - steps_left


# Loops that deepen the stack by one entry a turn until it overflows, each
# at another opcode: PUSH0, DUP2, PUSH1 and CALLER (given an environment).
OVERFLOW_LOOPS = ["5b60005f9056", "5f5b6001819056", "5b6001600056", "5b6000339056"]


def oracle_inputs():
    rng = random.Random(33)
    for program in (random_program, shared_returns, halting_loop):
        for _ in range(150):
            yield program(rng)
    for _ in range(150):
        yield rng.randbytes(rng.randint(1, 120))
    for code in OVERFLOW_LOOPS:
        yield bytes.fromhex(code)


def outcome(run, code, bound, env):
    try:
        return [t.offsets for t in run(code, bound, env)]
    except AnalysisError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_interpreter_matches_the_reference_loop_with_its_exact_step_count(monkeypatch):
    # Same traces in the same order, or the same error, and a step budget of
    # exactly the reference's count suffices while one less does not.
    budget = corpus._MAX_STEPS
    for code in oracle_inputs():
        for bound in (0, 1, 4, 16):
            for env in (None, CALLER_ENV, _ENV):
                case = (code.hex(), bound, env)
                monkeypatch.setattr("reusecfg.corpus._MAX_STEPS", budget)
                try:
                    traces, steps = ref_interpret(code, bound, env)
                except AnalysisError as exc:
                    expected = f"{type(exc).__name__}: {exc}"
                    assert outcome(interpret, code, bound, env) == expected, case
                    continue
                monkeypatch.setattr("reusecfg.corpus._MAX_STEPS", steps)
                expected = [t.offsets for t in traces]
                assert outcome(interpret, code, bound, env) == expected, case
                monkeypatch.setattr("reusecfg.corpus._MAX_STEPS", steps - 1)
                expected = f"AnalysisError: interpreter step budget of {steps - 1} exceeded"
                assert outcome(interpret, code, bound, env) == expected, case
