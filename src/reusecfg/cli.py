"""Command-line interface.

Thin adapters over the library: every subcommand parses its input, calls
the corresponding library operation, and prints machine-readable results on
stdout with diagnostics on stderr.  Exit codes: 0 success, 1 analysis
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus, detectors, metrics
from .bytecode import disassemble, format_listing, load_bytecode
from .cfg import AnalysisError, Config, Mode, build_cfg, export

ENV_PREFIX = "REUSECFG_"

_ENV_FIELDS = {
    "CLONE_BUDGET_PER_OFFSET": "clone_budget_per_offset",
    "TOTAL_BLOCK_BUDGET": "total_block_budget",
    "REEMULATION_CAP": "reemulation_cap",
}


class UsageError(Exception):
    pass


def _config_from_env(args: argparse.Namespace) -> Config:
    values = {}
    for env_name, field_name in _ENV_FIELDS.items():
        raw = os.environ.get(ENV_PREFIX + env_name)
        if raw is not None:
            try:
                values[field_name] = int(raw)
            except ValueError as exc:
                raise UsageError(f"{ENV_PREFIX}{env_name} must be an integer") from exc
    for field_name in _ENV_FIELDS.values():
        flag = getattr(args, field_name, None)
        if flag is not None:
            values[field_name] = flag
    try:
        return replace(Config(), **values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_code(path: str) -> bytes:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        code = load_bytecode(data)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if not code:
        raise UsageError(f"{path}: empty bytecode")
    return code


def _mode(args: argparse.Namespace) -> Mode:
    return Mode.REUSE_INSENSITIVE if args.reuse_insensitive else Mode.REUSE_SENSITIVE


def _parse_trace_file(path: str) -> list[metrics.Trace]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    traces = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            offsets = tuple(int(part.strip(), 16) for part in line.split(","))
        except ValueError as exc:
            raise UsageError(f"{path}:{line_no}: malformed trace line") from exc
        traces.append(metrics.Trace(offsets))
    return traces


def _format_trace(offsets) -> str:
    return ",".join(f"0x{o:x}" for o in offsets)


_PATTERN_NAMES = {p.value.lower(): p for p in corpus.Pattern}
_PATTERN_NAMES.update({p.value: p for p in corpus.Pattern})


def _cmd_disasm(args) -> int:
    code = _read_code(args.file)
    print(format_listing(disassemble(code)))
    return 0


def _cmd_cfg(args) -> int:
    code = _read_code(args.file)
    cfg = build_cfg(code, _mode(args), _config_from_env(args))
    payload = export(cfg, args.format, emit_tac=args.emit_tac)
    if args.output:
        try:
            Path(args.output).write_bytes(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload.decode())
    return 0


def _cmd_paths(args) -> int:
    code = _read_code(args.file)
    limits = _config_from_env(args)
    report = metrics.count_paths(build_cfg(code, Mode.REUSE_SENSITIVE, limits))
    print(f"sensitive {report.path_count}")
    if args.reuse_insensitive:
        insensitive = metrics.count_paths(
            build_cfg(code, Mode.REUSE_INSENSITIVE, limits)
        )
        print(f"insensitive {insensitive.path_count}")
    return 0


def _cmd_poly(args) -> int:
    code = _read_code(args.file)
    cfg = build_cfg(code, _mode(args), _config_from_env(args))
    for block_id, targets in metrics.polymorphic_jump_targets(cfg):
        joined = ",".join(str(t) for t in sorted(targets))
        print(f"{block_id} -> {joined}")
    return 0


def _cmd_cover(args) -> int:
    code = _read_code(args.file)
    traces = _parse_trace_file(args.traces)
    cfg = build_cfg(code, _mode(args), _config_from_env(args))
    covered, total, uncovered = metrics.trace_coverage(cfg, traces)
    print(f"covered {covered}")
    print(f"total {total}")
    for trace in uncovered:
        print(f"uncovered {_format_trace(trace.offsets)}")
    return 0


def _cmd_detect(args) -> int:
    code = _read_code(args.file)
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE, _config_from_env(args))
    findings = detectors.detect_tx_origin(cfg, cfg.value_table)
    findings += detectors.detect_reentrancy(cfg, cfg.value_table)
    for finding in findings:
        print(json.dumps(finding.to_dict(), sort_keys=True))
    print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    pattern = _PATTERN_NAMES.get(args.pattern)
    if pattern is None:
        known = ", ".join(sorted(p.value for p in corpus.Pattern))
        raise UsageError(f"unknown pattern {args.pattern!r}; one of: {known}")
    try:
        truth = corpus.generate(
            corpus.PatternSpec(pattern, seed=args.seed, nesting_depth=args.depth)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{pattern.value.lower()}_{args.seed}"
    hex_path = out_dir / f"{stem}.hex"
    hex_path.write_text(truth.bytecode.hex() + "\n")
    manifest = {
        "pattern": pattern.value,
        "seed": args.seed,
        "nesting_depth": args.depth,
        "bytecode": "0x" + truth.bytecode.hex(),
        "reused_offsets": sorted(truth.reused_offsets),
        "expected_sensitive_paths": truth.expected_sensitive_paths,
        "expected_insensitive_paths": truth.expected_insensitive_paths,
        "traces": [list(t.offsets) for t in truth.traces],
    }
    manifest_path = out_dir / f"{stem}.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(str(hex_path))
    print(str(manifest_path))
    return 0


def _cmd_interp(args) -> int:
    if args.branch_bound < 0:
        raise UsageError("--branch-bound must be >= 0")
    code = _read_code(args.file)
    try:
        traces = corpus.interpret(code, branch_bound=args.branch_bound)
    except corpus.UnsupportedOpcodeError as exc:
        raise AnalysisError(str(exc)) from exc
    for trace in traces:
        print(_format_trace(trace.offsets))
    return 0


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clone-budget", dest="clone_budget_per_offset", type=int)
    parser.add_argument("--total-blocks", dest="total_block_budget", type=int)
    parser.add_argument("--reemulation-cap", dest="reemulation_cap", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reusecfg",
        description="Reuse-sensitive control-flow graphs for EVM bytecode",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disasm", help="print the instruction listing")
    p.add_argument("file")
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("cfg", help="recover and export a CFG")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--reuse-insensitive", action="store_true")
    p.add_argument("--emit-tac", action="store_true")
    p.add_argument("-o", "--output")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_cfg)

    p = sub.add_parser("paths", help="count entry-to-exit paths")
    p.add_argument("file")
    p.add_argument("--reuse-insensitive", action="store_true",
                   help="also print the context-blind baseline count")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("poly", help="list polymorphic jump targets")
    p.add_argument("file")
    p.add_argument("--reuse-insensitive", action="store_true")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("cover", help="check execution traces against the CFG")
    p.add_argument("file")
    p.add_argument("--traces", required=True)
    p.add_argument("--reuse-insensitive", action="store_true")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("detect", help="run the vulnerability detectors")
    p.add_argument("file")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("gen", help="generate a labeled reuse fixture")
    p.add_argument("--pattern", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("interp", help="enumerate concrete execution traces")
    p.add_argument("file")
    p.add_argument("--branch-bound", type=int, default=corpus.BRANCH_BOUND)
    p.set_defaults(func=_cmd_interp)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
