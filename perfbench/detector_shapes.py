"""Small contracts with known detector findings, for the pattern_corpus
workload.  Without them every benchmark input would have no findings, and a
detector that stopped finding anything would pass every check.

Each shape is assembled with reusecfg's own ``corpus.Assembler`` from a
random generator: a filler prefix moves every offset, and storage keys and
constants vary.  The expected findings follow from the shape alone, with
offsets read from the assembler's labels, in the form of
``Finding.to_dict`` and in the detectors' order (site offset, then evidence).
"""

from __future__ import annotations

import random

from reusecfg.corpus import Assembler


def _prefix(asm: Assembler, rng: random.Random) -> None:
    for _ in range(rng.randrange(4)):
        asm.push(rng.randrange(1, 1 << 16))
        asm.op("POP")


def _finding(kind: str, site: str, labels: dict, *roles: str) -> dict:
    return {
        "kind": kind,
        "site_offset": labels[site],
        "evidence": [{"role": role, "offset": labels[role]} for role in roles],
    }


def _call(asm: Assembler) -> None:
    """A CALL with constant arguments; its result is dropped."""
    for _ in range(5):
        asm.push(0)
    asm.push(0xEE)
    asm.push(0)
    asm.label("call")
    asm.op("CALL")
    asm.op("POP")


def _guard(asm: Assembler, key: int) -> None:
    """Continue at `body` when storage[key] is non-zero, else stop."""
    asm.push(key)
    asm.op("SLOAD")
    asm.push_label("body")
    asm.label("check")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("body")
    asm.op("JUMPDEST")


def origin_guard(rng: random.Random):
    """Branch on ``tx.origin == owner``."""
    asm = Assembler()
    _prefix(asm, rng)
    asm.label("origin")
    asm.op("ORIGIN")
    asm.push(rng.randrange(1, 1 << 160), width=20)
    asm.op("EQ")
    asm.push_label("ok")
    asm.label("check")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    asm.op("STOP")
    code = asm.assemble()
    return code, [_finding("TxOrigin", "check", asm.labels, "origin", "check")]


def origin_caller_compare(rng: random.Random):
    """``tx.origin == msg.sender`` computed and dropped."""
    asm = Assembler()
    _prefix(asm, rng)
    asm.label("origin")
    asm.op("ORIGIN")
    asm.op("CALLER")
    asm.label("compare")
    asm.op("EQ")
    asm.op("POP")
    asm.op("STOP")
    code = asm.assemble()
    return code, [_finding("TxOrigin", "compare", asm.labels, "origin", "compare")]


def caller_guard(rng: random.Random):
    """Branch on ``msg.sender == owner``: no finding."""
    asm = Assembler()
    _prefix(asm, rng)
    asm.op("CALLER")
    asm.push(rng.randrange(1, 1 << 160), width=20)
    asm.op("EQ")
    asm.push_label("ok")
    asm.op("JUMPI")
    asm.op("STOP")
    asm.label("ok")
    asm.op("JUMPDEST")
    asm.op("STOP")
    return asm.assemble(), []


def check_call_effect(rng: random.Random):
    """Storage check, external call, then the write back to the checked key:
    the reentrancy shape."""
    key = rng.randrange(1, 1 << 8)
    asm = Assembler()
    _prefix(asm, rng)
    _guard(asm, key)
    _call(asm)
    asm.push(0)
    asm.push(key)
    asm.label("store")
    asm.op("SSTORE")
    asm.op("STOP")
    code = asm.assemble()
    return code, [_finding("Reentrancy", "call", asm.labels, "check", "call", "store")]


def check_effect_call(rng: random.Random):
    """The same steps with the write before the call: no finding."""
    key = rng.randrange(1, 1 << 8)
    asm = Assembler()
    _prefix(asm, rng)
    _guard(asm, key)
    asm.push(0)
    asm.push(key)
    asm.op("SSTORE")
    _call(asm)
    asm.op("STOP")
    return asm.assemble(), []


SHAPES = (origin_guard, origin_caller_compare, caller_guard, check_call_effect, check_effect_call)


def generate(seed: int, per_shape: int) -> list[dict]:
    """`per_shape` variants of every shape: name, code and expected findings."""
    rng = random.Random(f"detector_shapes:{seed}")
    out = []
    for shape in SHAPES:
        for i in range(per_shape):
            code, expected = shape(rng)
            out.append({"name": f"{shape.__name__}#{i}", "code": code, "expected": expected})
    return out
