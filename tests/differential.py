"""Differential harness: summarize recovery over fixed input families at one
revision, then compare two summaries.

    PYTHONPATH=src python tests/differential.py summarize OUT.json [--quick]
    PYTHONPATH=src python tests/differential.py compare A.json B.json

`summarize` builds every input in both modes at re-emulation caps 1 and 64
and writes one JSON line per (input, mode, cap): the sha256 of the input
bytes as `code`, the sha256 of the JSON export with TAC, the sha256 of the
offset-level edge set (every edge with its clones collapsed to their
offsets, as sorted (src, dst, kind) tuples), the block and clone counts,
the path count, the number of polymorphic jumps, the coverage of the
concrete traces as "covered/total" and, in sensitive mode, a digest of
the detectors' findings.  A build that fails records its error text
instead, and one still running after 10 s records
"timeout".  The traces come from the concrete interpreter, run once per
input as `interpret(code, 8, CALLER_ENV)` under the same 10 s limit; every
line of the input carries the sha256 of their offsets, or the
interpreter's error, as `oracle`, and a line gets no coverage when the
interpreter failed.  Over the 7,000 random-family inputs the interpreter
takes about 1 s in all on a 2-vCPU virtual machine, 0.3 s of it on the
slowest input.  The families:

- `random_program`, `shared_returns` and `halting_loop` on
  `random.Random(i)` for i < 2,000 (`halting_loop` in sensitive mode only,
  as `tests/test_golden.py::REEMULATION_SHA256` builds it);
- 1,000 random byte strings of 1 to 64 bytes from one `random.Random(21)`;
- the `TX_ORIGIN_*` and `REENTRANCY_*` detector fixtures;
- `generate` over every pattern, nesting depths 1 to 4 and seeds 0 to 4;
- `stress_fixture` at 3 kB and 12 kB, seeds 0 and 3.

The random families build with a clone budget of 16, the rest with the
default.  `--quick` takes the first 100 draws of each random family, every
fixture and the 3 kB stress inputs only.

`compare` lists the inputs whose lines differ, grouped by the fields that
changed, and exits 1 on any difference.  The grouping tells a change in
the inputs themselves (`code`, as a generator change makes) from one in
recovery, and a change in the offset-level graph (`edges`) from one in its
clones alone (`blocks` and `clones`) or in what the export holds besides
(`sha256` only).  The harness checks outputs at their byte level: it adds
checks and replaces none of the pinned digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from typing import Iterator

from fixtures import (
    CALLER_ENV,
    REENTRANCY_NEGATIVE,
    REENTRANCY_POSITIVE,
    TX_ORIGIN_NEGATIVE,
    TX_ORIGIN_POSITIVE,
    halting_loop,
    random_program,
    shared_returns,
    time_limit,
)
from reusecfg import (
    AnalysisError,
    Config,
    Mode,
    Pattern,
    PatternSpec,
    build_cfg,
    count_paths,
    detect_reentrancy,
    detect_tx_origin,
    export,
    generate,
    interpret,
    polymorphic_jump_targets,
    stress_fixture,
    trace_coverage,
)

MODES = (Mode.REUSE_SENSITIVE, Mode.REUSE_INSENSITIVE)
RANDOM_CLONE_BUDGET = 16


def inputs(quick: bool) -> Iterator[tuple[str, bytes, tuple[Mode, ...], int]]:
    """(name, code, modes, clone budget) of every input, in a fixed order."""
    draws = 100 if quick else 2000
    for program in (random_program, shared_returns, halting_loop):
        modes = (Mode.REUSE_SENSITIVE,) if program is halting_loop else MODES
        for i in range(draws):
            code = program(random.Random(i))
            yield f"{program.__name__}/{i}", code, modes, RANDOM_CLONE_BUDGET
    rng = random.Random(21)
    for i in range(100 if quick else 1000):
        code = rng.randbytes(rng.randint(1, 64))
        yield f"random_bytes/{i}", code, MODES, RANDOM_CLONE_BUDGET
    default = Config().clone_budget_per_offset
    for builder in TX_ORIGIN_POSITIVE + TX_ORIGIN_NEGATIVE + REENTRANCY_POSITIVE + REENTRANCY_NEGATIVE:
        yield f"fixture/{builder.__name__}", builder(), MODES, default
    for pattern in Pattern:
        for depth in range(1, 5):
            for seed in range(5):
                code = generate(PatternSpec(pattern, seed=seed, nesting_depth=depth)).bytecode
                yield f"pattern/{pattern.value}/{depth}/{seed}", code, MODES, default
    for size in (3000,) if quick else (3000, 12000):
        for seed in (0, 3):
            yield f"stress/{size}/{seed}", stress_fixture(size, seed), MODES, default


def oracle(code: bytes):
    """The concrete traces of `code` and their digest, or None and the
    interpreter's error."""
    try:
        with time_limit(10):
            traces = interpret(code, 8, CALLER_ENV)
    except AnalysisError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except TimeoutError:
        return None, "timeout"
    text = json.dumps([trace.offsets for trace in traces])
    return traces, hashlib.sha256(text.encode()).hexdigest()


def summary(code: bytes, mode: Mode, limits: Config, traces) -> dict:
    """One build's summary fields, or its error."""
    try:
        with time_limit(10):
            cfg = build_cfg(code, mode, limits)
            edges = sorted({(e.src.offset, e.dst.offset, e.kind.value) for e in cfg.edges})
            row = {
                "sha256": hashlib.sha256(export(cfg, "json", emit_tac=True)).hexdigest(),
                "edges": hashlib.sha256(json.dumps(edges).encode()).hexdigest(),
                "blocks": len(cfg.blocks),
                "clones": sum(1 for b in cfg.blocks if b.clone),
                "paths": count_paths(cfg).path_count,
                "poly": len(polymorphic_jump_targets(cfg)),
            }
            if traces is not None:
                covered, total, _ = trace_coverage(cfg, traces)
                row["trace_coverage"] = f"{covered}/{total}"
            if mode is Mode.REUSE_SENSITIVE:
                table = cfg.value_table
                findings = detect_tx_origin(cfg, table) + detect_reentrancy(cfg, table)
                text = json.dumps([f.to_dict() for f in findings], sort_keys=True)
                row["findings"] = hashlib.sha256(text.encode()).hexdigest()
    except AnalysisError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    except TimeoutError:
        return {"error": "timeout"}
    return row


def summarize(out: str, quick: bool) -> int:
    builds = 0
    with open(out, "w") as f:
        for name, code, modes, budget in inputs(quick):
            traces, digest = oracle(code)
            code_digest = hashlib.sha256(code).hexdigest()
            for mode in modes:
                for cap in (1, 64):
                    limits = Config(clone_budget_per_offset=budget, reemulation_cap=cap)
                    row = {"input": name, "mode": mode.value, "cap": cap,
                           "code": code_digest, "oracle": digest}
                    row.update(summary(code, mode, limits, traces))
                    f.write(json.dumps(row, sort_keys=True) + "\n")
                    builds += 1
    print(f"{builds} builds summarized in {out}")
    return 0


def load(path: str) -> dict[tuple[str, str, int], dict]:
    rows = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            rows[row.pop("input"), row.pop("mode"), row.pop("cap")] = row
    return rows


def compare(a_path: str, b_path: str) -> int:
    a, b = load(a_path), load(b_path)
    groups: dict[str, set[str]] = {}
    for key in sorted(a.keys() | b.keys()):
        row_a, row_b = a.get(key), b.get(key)
        if row_a == row_b:
            continue
        if row_a is None or row_b is None:
            change = f"only in {a_path if row_b is None else b_path}"
        else:
            fields = row_a.keys() | row_b.keys()
            change = ", ".join(sorted(f for f in fields if row_a.get(f) != row_b.get(f)))
        groups.setdefault(change, set()).add(key[0])
    differing = set().union(*groups.values())
    print(f"{len(a)} and {len(b)} builds compared; {len(differing)} differing inputs")
    for change, names in sorted(groups.items()):
        shown = ", ".join(sorted(names)[:5])
        print(f"  {change}: {len(names)} inputs, e.g. {shown}")
    return 1 if differing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summarize", help="build every input and write one line per build")
    p.add_argument("out")
    p.add_argument("--quick", action="store_true", help="100 draws per random family, 3 kB stress only")
    p = sub.add_parser("compare", help="diff two summaries; exit 1 on any difference")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "summarize":
        return summarize(args.out, args.quick)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
