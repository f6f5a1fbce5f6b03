"""Output checks.  Each returns a list of error strings, empty when the
output is correct, and runs outside the timed region.

Stress-input outputs are checked against the recovery invariants and, when
``reference.json`` has an entry for the seed and size, against the stored
digests.  Pattern fixtures are checked against the generator's ground truth
and the concrete interpreter's traces.
"""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    """sha256 of the canonical JSON form of `obj`."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def graph_digest(doc: dict) -> str:
    """Digest of an exported graph (``export(..., emit_tac=True)`` parsed):
    entry, blocks with clone indices and TAC, and edges.  Diagnostics are
    left out on purpose; they are counted by the trace instead."""
    return digest({"entry": doc["entry"], "blocks": doc["blocks"], "edges": doc["edges"]})


def _offset(block_id: str) -> int:
    return int(block_id.split("_")[0], 16)


def collapsed_edges(doc: dict) -> set[tuple[int, int, str]]:
    """Edges of an exported graph with clones collapsed to offsets."""
    return {(_offset(e["from"]), _offset(e["to"]), e["kind"]) for e in doc["edges"]}


def polymorphic_lines(doc: dict) -> list[str]:
    """`reusecfg poly` output computed from an exported graph: blocks whose
    jump edges reach more than one target.  Independent of the library's
    own implementation."""
    targets: dict[str, set[str]] = {}
    for e in doc["edges"]:
        if e["kind"] == "jump":
            targets.setdefault(e["from"], set()).add(e["to"])
    ids = {b["id"]: (b["offset"], b["clone"]) for b in doc["blocks"]}
    by_key = lambda block_id: ids[block_id]
    return [
        f"{src} -> {','.join(sorted(dsts, key=by_key))}"
        for src, dsts in sorted(targets.items(), key=lambda item: by_key(item[0]))
        if len(dsts) > 1
    ]


def check_rc(rc: int, stderr: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[:200]}"]
    return []


def check_sensitive_graph(doc: dict, baseline_edges: set, ref: dict | None) -> list[str]:
    """A reuse-sensitive graph: no polymorphic jump targets, every edge with
    clones collapsed is a baseline edge, and the digest matches."""
    errors = []
    poly = polymorphic_lines(doc)
    if poly:
        errors.append(f"{len(poly)} polymorphic jump target(s), first {poly[0]}")
    extra = collapsed_edges(doc) - baseline_edges
    if extra:
        src, dst, kind = min(extra)
        errors.append(f"{len(extra)} edge(s) not in the baseline, first 0x{src:x}->0x{dst:x} {kind}")
    if ref is not None and graph_digest(doc) != ref["sensitive_graph"]:
        errors.append("sensitive graph differs from the reference digest")
    return errors


def check_baseline_graph(doc: dict, ref: dict | None) -> list[str]:
    if ref is not None and graph_digest(doc) != ref["baseline_graph"]:
        return ["baseline graph differs from the reference digest"]
    return []


def check_path_counts(sensitive: int, baseline: int | None, ref: dict | None) -> list[str]:
    """Sensitive count at most the baseline count, both equal to the
    reference.  `baseline` is None where only the sensitive count exists."""
    errors = []
    if baseline is not None and sensitive > baseline:
        errors.append(f"sensitive paths {sensitive} > baseline paths {baseline}")
    if ref is not None:
        if sensitive != ref["sensitive_paths"]:
            errors.append(f"sensitive paths {sensitive} != reference {ref['sensitive_paths']}")
        if baseline is not None and baseline != ref["baseline_paths"]:
            errors.append(f"baseline paths {baseline} != reference {ref['baseline_paths']}")
    return errors


def parse_paths_output(stdout: str) -> tuple[int, int | None]:
    """(sensitive, insensitive) from `reusecfg paths` output."""
    counts = dict(line.split() for line in stdout.splitlines() if line.strip())
    sensitive = int(counts["sensitive"])
    insensitive = int(counts["insensitive"]) if "insensitive" in counts else None
    return sensitive, insensitive


def check_paths_output(stdout: str, ref: dict | None) -> list[str]:
    try:
        sensitive, baseline = parse_paths_output(stdout)
    except (KeyError, ValueError):
        return [f"unparseable paths output {stdout[:200]!r}"]
    if baseline is None:
        return ["paths printed no insensitive count"]
    return check_path_counts(sensitive, baseline, ref)


def check_poly_output(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if lines:
        return [f"poly printed {len(lines)} line(s), first {lines[0]!r}"]
    return []


def check_detect_output(stdout: str, ref: dict | None) -> list[str]:
    if ref is not None and stdout.splitlines() != ref["findings"]:
        return ["detector findings differ from the reference"]
    return []


def check_findings(got: list[dict], expected: list[dict]) -> list[str]:
    """Detector findings (``Finding.to_dict`` form) equal to the expected
    ones, in order."""
    if got == expected:
        return []
    lost = [f for f in expected if f not in got]
    extra = [f for f in got if f not in expected]
    if lost:
        return [f"{len(lost)} finding(s) lost, first {lost[0]}"]
    if extra:
        return [f"{len(extra)} spurious finding(s), first {extra[0]}"]
    return ["findings out of order"]


def check_pattern(truth: dict, outcome: dict) -> list[str]:
    """One labelled fixture against its ground truth.  `truth` holds the
    generator's labels; `outcome` what the analyses returned."""
    errors = []
    if outcome["sensitive_paths"] != truth["sensitive_paths"]:
        errors.append(
            f"sensitive paths {outcome['sensitive_paths']} != {truth['sensitive_paths']}"
        )
    if outcome["insensitive_paths"] != truth["insensitive_paths"]:
        errors.append(
            f"insensitive paths {outcome['insensitive_paths']} != {truth['insensitive_paths']}"
        )
    if outcome["poly"]:
        errors.append(f"{len(outcome['poly'])} polymorphic jump target(s)")
    covered, total = outcome["coverage"]
    if covered != total or total != truth["traces"]:
        errors.append(f"oracle traces covered {covered}/{total} of {truth['traces']}")
    if outcome["cloned"] != truth["reused_offsets"]:
        errors.append(
            f"cloned offsets {sorted(outcome['cloned'])} != reuse labels {sorted(truth['reused_offsets'])}"
        )
    return errors
