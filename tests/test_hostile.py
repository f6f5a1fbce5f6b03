"""Hostile inputs: each must end quickly in both modes, with a fixed outcome.

These are the inputs whose builds once ran for seconds to over a minute.
The baseline builds rebuilt one growing phi at every stack position on
every turn of a loop that deepens the stack, until `prepare_stack`
memoized its joins.  The sensitive build of the 60-byte input went on from
a stack padded with made-up entries after an underflow, for 12 to 20 s
before a `CloneBudgetError`, until a stack underflow came to halt the
emulation.  One baseline build below still takes about 2 s: a loop that
deepens the stack on every turn re-emulates until the entry stack passes
1,024 entries.  Each outcome below is the graph's digest (sha256 of its
JSON export with TAC) or the exact error.

A seeded fuzz test then builds 2,000 random programs of up to 400
elements in each mode: every build ends in a graph or an `AnalysisError`
in time.  The property test after it replays concrete executions: every
block visit of an execution is at an entry depth that a sensitive clone of
the block has.
"""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import CALLER_ENV, random_program, shared_returns, time_limit
from reusecfg.bytecode import disassemble, identify_blocks, stack_effect
from reusecfg.cfg import AnalysisError, Config, Mode, build_cfg, export
from reusecfg.corpus import interpret
from reusecfg.metrics import trace_coverage

DEEPER = "AnalysisError: entry stack deeper than 1024 at offset "
CLONES = "CloneBudgetError: clone explosion at offset "


def both(digest: str) -> tuple[str, str]:
    """One graph in both modes: the emulation halts before any join."""
    return ("sha256 " + digest,) * 2


# (input, sensitive outcome, baseline outcome).  An input is hex, or
# "draw N": the N-th `random_program` draw of one `random.Random(12)` stream.
# The inputs that build a graph once deepened the stack on each turn of a
# loop only through entries padded in after an underflow.  Each now halts
# at that underflow, on its first visit to the block, in both modes; the
# comment says where.
HOSTILE = [
    (
        "33805b5b6002602360025033915b600357bd33600d60039033600356008157005060235b00f5906023",
        DEEPER + "0xd",
        DEEPER + "0xd",
    ),
    # PUSH1 2; JUMPDEST; ADD: the ADD at 0x3 has one operand, so the only
    # edge is 0x0 -> 0x2.  Draw 696 is this input.
    (
        "60025b0160065b81335b335f506009600657c16002600291",
        *both("082cce882b65df5e1bbf7607eaa51913f50004e0ed4d52e22278b601a2c85065"),
    ),
    # The entry block's JUMPI at 0x0 has no operand: no edge.
    (
        "575b81336001506001908091566001600191006001",
        *both("0ef292aa93236a52d1187c940c612ec7aefa4573218411cb32040f2541304ec4"),
    ),
    # JUMPDEST; PUSH0; DUP2: the entry block's DUP2 at 0x2 has one entry.
    (
        "5b5f815f602d335b90813391330157602d60076000575741602df490600081338057600700f0"
        "60002f602d90e05b6007335f335f60006000915f600750",
        *both("e98c8c6f8ae511147171bdb9ee2e17d20aa1de38cfba3f6b3adb4f29f2dff63e"),
    ),
    # JUMPDEST; PUSH1 0x67; JUMPI: the entry block's JUMPI at 0x3 has one
    # operand.
    (
        "5b606757606760005f570160185f576018803350906000575b336000600080566e60675060183d00"
        "8190ef815f60009101006000606757906000df33",
        *both("c98750722a45eac9d942c3b7702583d9ba617cb4332e66d4cbb05dc43c087bc7"),
    ),
    # Loops that push CALLER on every turn.
    ("5b33600056", CLONES + "0x0", DEEPER + "0x0"),
    (
        "60025b338156",
        "sha256 30a941196e993cceb85d9e7fb284e756cb31231e5217e4e0ed745158113f78a5",
        DEEPER + "0x2",
    ),
    ("60025b33908056", CLONES + "0x2", DEEPER + "0x2"),
    ("5b3360005733600056", CLONES + "0x0", DEEPER + "0x0"),
    ("draw 696", *both("082cce882b65df5e1bbf7607eaa51913f50004e0ed4d52e22278b601a2c85065")),
    ("draw 951", DEEPER + "0x1b", DEEPER + "0x1b"),
    # The entry block underflows at 0x0.
    ("draw 2038", *both("112bfbcf98d83b00a7304e6864956a3b9ef30e81b9234ef8da0ebd4caa0007c9")),
    # The entry block underflows at 0x2.
    ("draw 2343", *both("596ad7be8a59f68a272a834de146fdd128437f8f1bc7e7a5a8fd1ffce28b4bbe")),
    # The entry block underflows at 0x0.
    ("draw 2449", *both("b0cb3335805148d94d5c5b497796d68c7fba55a71a2063d6f07342982a634fcc")),
    # The entry block underflows at 0x1.
    ("draw 2759", *both("8784c8cd621399eee73ec88a85955145c068a2776512574c7ab6126ed8dd0b2e")),
    # Draw 8210 of `random_program(random.Random(32), size=400)`, 193 bytes.
    # Its baseline build re-emulates the loop at 0x3b about 1,000 times, one
    # entry deeper each turn, and takes about 2 s to reach the error.
    (
        "5f5b805f609c603b6001603b6001908057816c915f3300ef80602150569050605b5b005080509760"
        "9c607280605b90600101908190e8607280605b5b60018101603b8057605b90000091335090005060"
        "5b5050804c6072336021805b609c56810101578001e0609c603b57006072607260215b69603b603b"
        "3381603b576001335700336021607233a65733603b50565060213f603bd457607260215f5b576072"
        "33b96001605b91603bff5f00602191607200910060015056603b603b0060016021",
        CLONES + "0x3b",
        DEEPER + "0x3b",
    ),
]


@functools.cache
def draws() -> list[bytes]:
    rng = random.Random(12)
    return [random_program(rng) for _ in range(2760)]


def code_of(name: str) -> bytes:
    if name.startswith("draw "):
        return draws()[int(name.split()[1])]
    return bytes.fromhex(name)


def outcome(code: bytes, mode: Mode) -> str:
    try:
        cfg = build_cfg(code, mode)
    except AnalysisError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "sha256 " + hashlib.sha256(export(cfg, "json", emit_tac=True)).hexdigest()


@pytest.mark.parametrize(
    "name, mode, expected",
    [
        pytest.param(name, mode, expected, id=f"{name[:18]}-{mode.value}")
        for name, sensitive, baseline in HOSTILE
        for mode, expected in ((Mode.REUSE_SENSITIVE, sensitive), (Mode.REUSE_INSENSITIVE, baseline))
    ],
)
def test_hostile_input_ends_with_its_outcome(name, mode, expected):
    code = code_of(name)
    with time_limit(10):
        assert outcome(code, mode) == expected


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_random_programs_end_in_a_graph_or_an_analysis_error(mode):
    # Any input yields a graph or a bounded `AnalysisError`; a build still
    # running after 10 s raises `TimeoutError`, which fails the test.  The
    # programs are up to four times longer than the other tests' draws.
    rng = random.Random(31)
    for _ in range(2000):
        code = random_program(rng, size=400)
        try:
            with time_limit(10):
                build_cfg(code, mode)
        except AnalysisError:
            pass  # a bounded abort


def visits(code: bytes, traces) -> set[tuple[int, int]]:
    """The (block offset, entry depth) pairs that `traces` visit, replayed
    from each block's net stack effect: an execution starts at offset 0
    with an empty stack, and a block it leaves ran to its end."""
    net = {
        block.id.offset: sum(
            pushes - pops
            for pops, pushes in (stack_effect(ins.opcode) for ins in block.instructions)
        )
        for block in identify_blocks(disassemble(code))
    }
    seen = set()
    for trace in traces:
        depth = 0
        for offset in trace.offsets:
            seen.add((offset, depth))
            depth += net[offset]
    return seen


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([random_program, shared_returns]))
def test_every_concrete_visit_has_a_sensitive_clone_of_its_depth(rng, program):
    # Most random programs underflow within a block or two; the shared
    # returns reach one block at several depths.
    code = program(rng)
    try:
        traces = interpret(code, 8, CALLER_ENV)
    except AnalysisError:
        return  # nothing to replay
    try:
        with time_limit(2):
            cfg = build_cfg(code, Mode.REUSE_SENSITIVE, Config(clone_budget_per_offset=16))
    except AnalysisError:
        return  # bounded abort is the defined behavior
    depths = {(block.offset, len(stack)) for block, stack in cfg.s_start.items()}
    assert visits(code, traces) - depths == set()


def test_an_underflowing_program_is_covered_without_made_up_jumps():
    # 65 bytes whose executions halt on underflows at 0x8, 0x2f and 0x30.
    # Sensitive recovery once went on from padded stacks there, and two of
    # the padded entries became jump operands it could not resolve, at 0x7
    # and 0x35.  The baseline's two misses follow joins of different
    # depths (ROADMAP item 2).
    code = bytes.fromhex(
        "5f8060078160075b57602d602d566007d93357e7602df001bc602d60079157602d"
        "566007602d6007da575f80575b5f01819160075756806007016007a16007811a"
    )
    traces = interpret(code, 16, CALLER_ENV)
    assert len(traces) == 20
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    assert trace_coverage(cfg, traces)[:2] == (20, 20)
    assert not any("unresolved jump" in message for _, message, _ in cfg.diagnostics)
    assert trace_coverage(build_cfg(code, Mode.REUSE_INSENSITIVE), traces)[:2] == (18, 20)
