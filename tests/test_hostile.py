"""Hostile inputs: each must end quickly in both modes, with a fixed outcome.

These are the inputs whose baseline builds once ran for seconds to over a
minute, each rebuilding one growing phi at every stack position on every
turn of a loop that deepens the stack.  Each outcome below is the graph's
digest (sha256 of its JSON export with TAC) or the exact error; every one
was first recorded before `prepare_stack` memoized its joins.

Left out: the 60-byte input (hex, on one line)

    5b606757606760005f570160185f576018803350906000575b336000600080566e60675060183d008190ef815f60009101006000606757906000df33

whose sensitive build takes 12 to 20 s before it ends in
`CloneBudgetError`.  Its cost is sensitive recovery going on after an
emulation underflowed (ROADMAP item 1), not the baseline joins.
"""

import functools
import hashlib
import random

import pytest

from fixtures import random_program, time_limit
from reusecfg.cfg import AnalysisError, Mode, build_cfg, export

DEEPER = "AnalysisError: entry stack deeper than 1024 at offset "
CLONES = "CloneBudgetError: clone explosion at offset "

# (input, sensitive outcome, baseline outcome).  An input is hex, or
# "draw N": the N-th `random_program` draw of one `random.Random(12)` stream.
HOSTILE = [
    (
        "33805b5b6002602360025033915b600357bd33600d60039033600356008157005060235b00f5906023",
        DEEPER + "0xd",
        DEEPER + "0xd",
    ),
    ("60025b0160065b81335b335f506009600657c16002600291", DEEPER + "0x6", DEEPER + "0x6"),
    ("575b81336001506001908091566001600191006001", DEEPER + "0x1", DEEPER + "0x1"),
    (
        "5b5f815f602d335b90813391330157602d60076000575741602df490600081338057600700f0"
        "60002f602d90e05b6007335f335f60006000915f600750",
        DEEPER + "0x7",
        DEEPER + "0x7",
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
    ("draw 696", DEEPER + "0x6", DEEPER + "0x6"),
    ("draw 951", DEEPER + "0x1b", DEEPER + "0x1b"),
    ("draw 2038", DEEPER + "0x11", DEEPER + "0x11"),
    ("draw 2343", CLONES + "0xf", DEEPER + "0xf"),
    ("draw 2449", DEEPER + "0x4", DEEPER + "0x4"),
    ("draw 2759", DEEPER + "0x0", DEEPER + "0x0"),
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
