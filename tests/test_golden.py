"""Golden digest: recovery output stays byte-identical across refactors.

One sha256 covers the JSON (with TAC and diagnostics) and DOT exports of
stress fixtures in both modes, plus the JSON export of every pattern fixture
in both modes.  The pinned value was first computed before the graph store
was rewritten; a change to it means some export changed by at least one
byte.  It was re-pinned once, when reuse contexts became derived from
per-(offset, depth) tainted indices: the new value equals the old digest
with only the "reuse-context index N out of range" info diagnostics removed
from each JSON export, so no graph changed.

`GOLDEN_DOT_TAC_SHA256` covers the DOT export with TAC (`cfg --format dot
--emit-tac`) of the same stress fixtures, which the first digest leaves
out.  It was computed before the JSON export was rewritten to write its
document in one pass.

`GOLDEN_WIDEN_SHA256` covers builds at `reemulation_cap` 1 and 2, where
joins that keep changing at the same depth widen to unknown values; the
default cap never reaches that path on the inputs above.  It was computed
before `StackState` was replaced by plain tuples and the widening step was
cut down to one comprehension.

`GOLDEN_CORPUS_SHA256` covers the generator itself: each pattern fixture's
bytes, reused offsets, both expected path counts and interpreter traces,
and the `stress_fixture` bytes up to 48 kB.  It was computed before the
pattern builders were rewritten in terms of block primitives.

`REEMULATION_SHA256` covers inputs whose sensitive recovery emulates a
block again: `halting_loop` and `shared_returns` draws at
`reemulation_cap` 1 and 64.  None of the inputs above re-emulates in
sensitive mode.  Baseline `halting_loop` builds are slow and are left out.
It was computed before a re-emulation stopped dropping its block's
out-edges.
"""

import hashlib
import random

from fixtures import halting_loop, shared_returns
from reusecfg import (
    AnalysisError,
    Config,
    Mode,
    Pattern,
    PatternSpec,
    build_cfg,
    export,
    generate,
    stress_fixture,
)

GOLDEN_SHA256 = "5b88fc531fb32a249bd708e5ce473ecd1bd7c39403330355e39e8a1c6e40204a"

GOLDEN_DOT_TAC_SHA256 = "c92d2bea54054db57debda68d475990cffdba7f4ba570fd0bd7e7b7e3a1b1d73"

GOLDEN_WIDEN_SHA256 = "a4885d13a366cb86c293f078c09ad5f781b468475011019b401fa0905e7f20f6"

GOLDEN_CORPUS_SHA256 = "8be8ab0283863d96a3e56cf1f7f0f056cb2abe2b566277776c372a8166f1c7d1"

REEMULATION_SHA256 = "41bbb6a2b313589f591eb24c94cb8624d90aaabc93c616e6da90716d94c08ad5"

MODES = (Mode.REUSE_SENSITIVE, Mode.REUSE_INSENSITIVE)


def golden_digest() -> str:
    h = hashlib.sha256()

    def feed(label: str, data: bytes) -> None:
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)

    for size in (3000, 12000):
        for seed in (0, 5):
            code = stress_fixture(size, seed)
            for mode in MODES:
                cfg = build_cfg(code, mode)
                tag = f"stress/{size}/{seed}/{mode.value}"
                feed(tag + "/json", export(cfg, "json", emit_tac=True))
                feed(tag + "/dot", export(cfg, "dot"))
    for pattern in Pattern:
        for depth in range(1, 5):
            for seed in range(5):
                code = generate(PatternSpec(pattern, seed=seed, nesting_depth=depth)).bytecode
                for mode in MODES:
                    cfg = build_cfg(code, mode)
                    feed(f"{pattern.value}/{depth}/{seed}/{mode.value}", export(cfg, "json"))
    return h.hexdigest()


def dot_tac_digest() -> str:
    h = hashlib.sha256()
    for size in (3000, 12000):
        for seed in (0, 5):
            code = stress_fixture(size, seed)
            for mode in MODES:
                data = export(build_cfg(code, mode), "dot", emit_tac=True)
                h.update(f"stress/{size}/{seed}/{mode.value}/dot-tac {len(data)}\n".encode())
                h.update(data)
    return h.hexdigest()


def widen_digest() -> str:
    h = hashlib.sha256()

    def feed(label: str, data: bytes) -> None:
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)

    inputs = [(f"stress/3000/{seed}", stress_fixture(3000, seed)) for seed in (0, 5)]
    for pattern in Pattern:
        for depth in range(1, 5):
            for seed in range(5):
                spec = PatternSpec(pattern, seed=seed, nesting_depth=depth)
                inputs.append((f"{pattern.value}/{depth}/{seed}", generate(spec).bytecode))
    for cap in (1, 2):
        limits = Config(reemulation_cap=cap)
        for tag, code in inputs:
            for mode in MODES:
                cfg = build_cfg(code, mode, limits)
                feed(f"{tag}/cap{cap}/{mode.value}", export(cfg, "json", emit_tac=True))
    return h.hexdigest()


def corpus_digest() -> str:
    h = hashlib.sha256()

    def feed(label: str, data: bytes) -> None:
        h.update(f"{label} {len(data)}\n".encode())
        h.update(data)

    for pattern in Pattern:
        for depth in range(1, 7):
            for seed in range(10):
                gt = generate(PatternSpec(pattern, seed=seed, nesting_depth=depth))
                truth = (
                    sorted(gt.reused_offsets),
                    gt.expected_sensitive_paths,
                    gt.expected_insensitive_paths,
                    [t.offsets for t in gt.traces],
                )
                tag = f"{pattern.value}/{depth}/{seed}"
                feed(tag + "/bytes", gt.bytecode)
                feed(tag + "/truth", repr(truth).encode())
    for size in (3000, 6000, 12000, 24000, 48000):
        for seed in range(20):
            feed(f"stress/{size}/{seed}", stress_fixture(size, seed))
    return h.hexdigest()


def reemulation_digest() -> str:
    h = hashlib.sha256()
    families = [
        ("halting_loop", halting_loop, (Mode.REUSE_SENSITIVE,)),
        ("shared_returns", shared_returns, MODES),
    ]
    for name, program, modes in families:
        for i in range(200):
            code = program(random.Random(i))
            for mode in modes:
                for cap in (1, 64):
                    try:
                        cfg = build_cfg(code, mode, Config(reemulation_cap=cap))
                    except AnalysisError as exc:
                        data = f"{type(exc).__name__}: {exc}".encode()
                    else:
                        data = export(cfg, "json", emit_tac=True)
                    h.update(f"{name}/{i}/cap{cap}/{mode.value} {len(data)}\n".encode())
                    h.update(data)
    return h.hexdigest()


def test_exports_match_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


def test_dot_tac_exports_match_golden_digest():
    assert dot_tac_digest() == GOLDEN_DOT_TAC_SHA256


def test_low_cap_widening_exports_match_golden_digest():
    assert widen_digest() == GOLDEN_WIDEN_SHA256


def test_generator_output_matches_golden_digest():
    assert corpus_digest() == GOLDEN_CORPUS_SHA256


def test_reemulating_builds_match_golden_digest():
    assert reemulation_digest() == REEMULATION_SHA256


if __name__ == "__main__":
    print(golden_digest())
    print(dot_tac_digest())
    print(widen_digest())
    print(corpus_digest())
    print(reemulation_digest())
