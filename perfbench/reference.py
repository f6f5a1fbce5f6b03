"""Reference digests for the stress inputs, one entry per seed and size.

Each entry holds the digest of the reuse-sensitive and of the baseline graph
(blocks, edges and TAC, with clone indices), both path counts and the
detector findings, exactly as the CLI prints them.
Diagnostics are not part of the reference.

Add seeds, or sizes after STRESS_SIZES changed, with

    python3 perfbench/reference.py --seeds 0-19

which keeps the entries already recorded for those seeds and sizes,
computes the missing ones (about 10 s per seed on one core), drops those
seeds' sizes no longer in STRESS_SIZES, and refuses to write an entry that breaks a recovery
invariant.  Delete reference.json first to recompute everything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
STRESS_SIZES = (3_000, 6_000, 12_000, 24_000)

_cache: dict | None = None


def lookup(seed: int, size: int) -> dict | None:
    """The reference entry for stress_fixture(size, seed), if recorded."""
    global _cache
    if _cache is None:
        _cache = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    return _cache.get(str(seed), {}).get(str(size))


def stress_entry(code: bytes) -> dict:
    from reusecfg import detectors, metrics
    from reusecfg.cfg import Mode, build_cfg, export

    import checks

    sensitive = build_cfg(code, Mode.REUSE_SENSITIVE)
    baseline = build_cfg(code, Mode.REUSE_INSENSITIVE)
    sensitive_doc = json.loads(export(sensitive, "json", emit_tac=True))
    baseline_doc = json.loads(export(baseline, "json", emit_tac=True))
    findings = detectors.detect_tx_origin(sensitive, sensitive.value_table)
    findings += detectors.detect_reentrancy(sensitive, sensitive.value_table)
    entry = {
        "sensitive_graph": checks.graph_digest(sensitive_doc),
        "baseline_graph": checks.graph_digest(baseline_doc),
        "sensitive_paths": metrics.count_paths(sensitive).path_count,
        "baseline_paths": metrics.count_paths(baseline).path_count,
        "findings": [json.dumps(f.to_dict(), sort_keys=True) for f in findings],
    }
    errors = checks.check_sensitive_graph(
        sensitive_doc, checks.collapsed_edges(baseline_doc), None
    ) + checks.check_path_counts(entry["sensitive_paths"], entry["baseline_paths"], None)
    if errors:
        raise SystemExit(f"recovery invariant broken, reference not written: {errors}")
    return entry


def _seed_range(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> None:
    import bootstrap

    bootstrap.import_program()
    from reusecfg.corpus import stress_fixture

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-19"))
    args = parser.parse_args()
    table = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for seed in args.seeds:
        old = table.get(str(seed), {})
        table[str(seed)] = {
            str(size): old.get(str(size)) or stress_entry(stress_fixture(size, seed))
            for size in STRESS_SIZES
        }
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
