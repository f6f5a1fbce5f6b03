"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that every output check rejects a deliberately corrupted output
(a lost or spurious detector finding among them), that every traced span's
self time is reported by one per-layer metric, that the tracer restores
every attribute it replaced, that a traced pass gives the same outputs as
an untraced one with counts that repeat exactly, and that the benchmark
fails without printing a result when the reusecfg sources are missing.  Uses small inputs; takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import traceback

import bootstrap

bootstrap.import_program()

import reusecfg
from reusecfg import corpus, metrics
from reusecfg.cfg import Cfg, EdgeKind, Mode, build_cfg, export

import checks
import detector_shapes
import reference
import tracing
import workloads
from calibration import Stopwatch

WORK = bootstrap.ROOT / ".perfbench_work" / "selftest"


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def expect_errors(errors: list[str], what: str) -> None:
    expect(errors, f"check accepted {what}")


def _stress_case(size=6_000, seed=3):
    code = corpus.stress_fixture(size, seed)
    ref = reference.stress_entry(code)
    doc = json.loads(export(build_cfg(code), "json", emit_tac=True))
    base = build_cfg(code, Mode.REUSE_INSENSITIVE)
    base_doc = json.loads(export(base, "json", emit_tac=True))
    return ref, doc, base_doc


def test_stress_checks_catch_corruption():
    ref, doc, base_doc = _stress_case()
    base_edges = checks.collapsed_edges(base_doc)
    expect(checks.check_sensitive_graph(doc, base_edges, ref) == [], "clean graph rejected")
    expect(checks.check_baseline_graph(base_doc, ref) == [], "clean baseline rejected")

    # An extra edge between two blocks the baseline never connects.
    blocks = [b["id"] for b in doc["blocks"]]
    extra = next(
        {"from": a, "to": b, "kind": "jump"}
        for a in blocks
        for b in reversed(blocks)
        if (checks._offset(a), checks._offset(b), "jump") not in base_edges
    )
    bad = copy.deepcopy(doc)
    bad["edges"].append(extra)
    expect_errors(checks.check_sensitive_graph(bad, base_edges, None), "an edge outside the baseline")
    expect_errors(checks.check_sensitive_graph(bad, base_edges, ref), "an extra edge")

    # A second jump target for a block that already jumps: polymorphic.
    jump = next(e for e in doc["edges"] if e["kind"] == "jump")
    other = next(e["to"] for e in doc["edges"] if e["kind"] == "jump" and e["to"] != jump["to"])
    bad = copy.deepcopy(doc)
    bad["edges"].append({"from": jump["from"], "to": other, "kind": "jump"})
    expect(checks.polymorphic_lines(bad), "polymorphic target not found")
    expect_errors(checks.check_sensitive_graph(bad, base_edges | checks.collapsed_edges(bad), None),
                  "a polymorphic jump target")

    # Same edges, different TAC: only the digest can tell.
    bad = copy.deepcopy(doc)
    block = next(b for b in bad["blocks"] if b.get("tac"))
    block["tac"][0] += " "
    expect_errors(checks.check_sensitive_graph(bad, base_edges, ref), "altered TAC")
    bad = copy.deepcopy(base_doc)
    bad["edges"].pop()
    expect_errors(checks.check_baseline_graph(bad, ref), "a baseline graph missing an edge")

    sens, base = ref["sensitive_paths"], ref["baseline_paths"]
    expect(checks.check_path_counts(sens, base, ref) == [], "clean path counts rejected")
    expect_errors(checks.check_path_counts(sens + 1, base, ref), "a flipped sensitive path count")
    expect_errors(checks.check_path_counts(sens, base - 1, ref), "a flipped baseline path count")
    expect_errors(checks.check_path_counts(base + 1, base, None), "sensitive paths above baseline")

    good = f"sensitive {sens}\ninsensitive {base}\n"
    expect(checks.check_paths_output(good, ref) == [], "clean paths output rejected")
    expect_errors(checks.check_paths_output(f"sensitive {sens + 1}\ninsensitive {base}\n", ref),
                  "flipped paths output")
    expect_errors(checks.check_paths_output(f"sensitive {sens}\n", ref), "paths output without baseline")
    expect_errors(checks.check_paths_output("garbage\n", ref), "unparseable paths output")

    expect(checks.check_poly_output("") == [], "empty poly output rejected")
    expect_errors(checks.check_poly_output("0x1_0 -> 0x2_0,0x3_0\n"), "a poly line")
    findings = "\n".join(ref["findings"] + ['{"kind": "TxOrigin"}'])
    expect_errors(checks.check_detect_output(findings, ref), "an extra finding")
    code, expected = detector_shapes.check_call_effect(random.Random(1))
    expect(checks.check_findings(expected, expected) == [], "clean findings rejected")
    expect_errors(checks.check_findings([], expected), "a lost finding")
    expect_errors(checks.check_findings(expected * 2, expected), "a duplicated finding")
    expect_errors(checks.check_rc(1, "analysis error: x"), "a non-zero exit code")


def test_pattern_check_catches_corruption():
    truth = corpus.generate(corpus.PatternSpec(corpus.Pattern.FAKE_JOIN_SEQUENCE, seed=7, nesting_depth=2))
    graph = build_cfg(truth.bytecode)
    covered, total, _ = metrics.trace_coverage(graph, truth.traces)
    labels = {
        "sensitive_paths": truth.expected_sensitive_paths,
        "insensitive_paths": truth.expected_insensitive_paths,
        "traces": len(truth.traces),
        "reused_offsets": truth.reused_offsets,
    }
    outcome = {
        "sensitive_paths": metrics.count_paths(graph).path_count,
        "insensitive_paths": metrics.count_paths(build_cfg(truth.bytecode, Mode.REUSE_INSENSITIVE)).path_count,
        "poly": metrics.polymorphic_jump_targets(graph),
        "coverage": (covered, total),
        "cloned": {b.offset for b in graph.blocks if b.clone >= 1 and b not in graph.end_block_clones},
    }
    expect(checks.check_pattern(labels, outcome) == [], "clean fixture rejected")
    corruptions = {
        "sensitive_paths": outcome["sensitive_paths"] + 1,
        "insensitive_paths": outcome["insensitive_paths"] - 1,
        "poly": [("x", frozenset({1, 2}))],
        "coverage": (covered - 1, total),
        "cloned": outcome["cloned"] | {0},
    }
    for key, value in corruptions.items():
        expect_errors(checks.check_pattern(labels, {**outcome, key: value}), f"a corrupted {key}")
    expect_errors(checks.check_pattern({**labels, "reused_offsets": set()}, outcome), "missing reuse labels")


def test_workload_checks_count_failures():
    WORK.mkdir(parents=True, exist_ok=True)
    audit = workloads.Audit(size=6_000)
    inputs = audit.setup(3, WORK)
    outputs = audit.run_pass(inputs, Stopwatch())
    errors, _ = audit.check(inputs, outputs)
    expect(len(errors) == 4 and not any(errors), f"clean audit pass rejected: {errors}")
    inputs["out"].unlink()
    errors, _ = audit.check(inputs, outputs)
    expect(bool(errors[0]), "audit check passed without the cfg output file")
    outputs = audit.run_pass(inputs, Stopwatch())
    rc, out, err = outputs["cmd_paths_s"]
    _, baseline = checks.parse_paths_output(out)
    outputs["cmd_paths_s"] = (rc, f"sensitive {baseline + 1}\ninsensitive {baseline}\n", err)
    outputs["cmd_poly_s"] = (0, "0x1_0 -> 0x2_0,0x3_0\n", "")
    outputs["cmd_detect_s"] = (1, "", "analysis error: budget")
    errors, _ = audit.check(inputs, outputs)
    expect([bool(e) for e in errors] == [False, True, True, True], f"corrupted audit outputs: {errors}")

    scaling = workloads.Scaling(sizes=(3_000, 6_000))
    inputs = scaling.setup(3, WORK)
    outputs = scaling.run_pass(inputs, Stopwatch())
    errors, _ = scaling.check(inputs, outputs)
    expect(len(errors) == 3 and not any(errors), f"clean scaling pass rejected: {errors}")
    for graph in (outputs[3_000], outputs["baseline"]):
        blocks = sorted(graph.blocks)
        graph.add_edge(blocks[-1], blocks[0], EdgeKind.JUMP)
    errors, _ = scaling.check(inputs, outputs)
    expect([bool(e) for e in errors] == [True, False, True], f"extra scaling edges: {errors}")

    patterns = workloads.PatternCorpus(seeds_per_shape=1, detector_variants=1)
    inputs = patterns.setup(3, WORK)
    outputs = patterns.run_pass(inputs, Stopwatch())
    errors, _ = patterns.check(inputs, outputs)
    expect(not any(errors), f"clean pattern pass rejected: {errors}")
    detected = outputs[1]
    positive = [i for i, f in enumerate(inputs["detector_fixtures"]) if f["expected"]]
    negative = [i for i, f in enumerate(inputs["detector_fixtures"]) if not f["expected"]]
    expect(len(positive) >= 3 and negative, "detector fixtures lack positives or negatives")
    detected[positive[0]] = []  # a lost finding
    detected[positive[1]] = detected[positive[1]] + detected[positive[2]]  # a spurious one
    detected[negative[0]] = list(inputs["detector_fixtures"][positive[0]]["expected"])
    errors, _ = patterns.check(inputs, outputs)
    failed = [i - len(inputs["fixtures"]) for i, e in enumerate(errors) if e]
    expect(failed == sorted([positive[0], positive[1], negative[0]]),
           f"corrupted findings not all caught: {errors}")


def test_every_span_reported():
    """Each wrapped span's self time lands in exactly one per-layer metric,
    so the per-layer times add up to the traced time."""
    spans = [name for name, _, _ in tracing.PASS_TARGETS]
    reported = []
    for name, unit in tracing.PASS_METRICS:
        if unit == "s":
            reported += tracing._SELF_TIME_ALIASES.get(name, (name[:-2],))
    expect(sorted(reported) == sorted(spans), f"spans {sorted(set(spans) ^ set(reported))} reported 0 or 2 times")


def _attributes():
    """Every attribute of every loaded reusecfg module, and of Cfg."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "reusecfg" or name.startswith("reusecfg."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    for attr, value in vars(Cfg).items():
        snapshot[("Cfg", attr)] = value
    return snapshot


def test_tracer_restores_every_attribute():
    before = _attributes()
    tracer = tracing.Tracer(tracing.PASS_TARGETS + tracing.SETUP_TARGETS)
    tracer.install()
    try:
        import reusecfg.cli
        import reusecfg.detectors

        wrapped_sites = [
            (reusecfg.cli, "build_cfg"),
            (reusecfg.cli, "export"),
            (reusecfg, "build_cfg"),
            (reusecfg.cfg, "emulate_block"),
            (reusecfg.cfg, "prepare_stack"),
            (reusecfg.cfg, "trace_origin"),
            (reusecfg.cfg, "disassemble"),
            (reusecfg.cfg, "identify_blocks"),
            (reusecfg.detectors, "trace_origin"),
            (reusecfg.corpus, "interpret"),
        ]
        for site, attr in wrapped_sites:
            expect(getattr(site, attr) is not before[(site.__name__, attr)], f"{site.__name__}.{attr} not wrapped")
        expect(vars(Cfg)["remove_out_edges"] is not before[("Cfg", "remove_out_edges")], "Cfg method not wrapped")
        # A span closes even when the wrapped call raises.
        try:
            reusecfg.cfg.build_cfg(b"")
        except ValueError:
            pass
        expect(all(end > 0 for _, _, end, _ in tracer.spans()) and not tracer._stack,
               "span of a raising call left open")
    finally:
        tracer.uninstall()
    after = _attributes()
    changed = [key for key in before if after.get(key) is not before[key]]
    expect(not changed and after.keys() == before.keys(), f"attributes not restored: {changed}")


def test_traced_pass_matches_untraced():
    WORK.mkdir(parents=True, exist_ok=True)
    cases = [
        workloads.Audit(size=6_000),
        workloads.Scaling(sizes=(3_000, 6_000)),
        workloads.PatternCorpus(seeds_per_shape=1, detector_variants=1),
    ]
    for workload in cases:
        inputs = workload.setup(5, WORK)
        outputs = workload.run_pass(inputs, Stopwatch())
        _, expected = workload.check(inputs, outputs)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer(tracing.PASS_TARGETS)
            with tracer:
                outputs = workload.run_pass(inputs, Stopwatch())
            errors, got = workload.check(inputs, outputs)
            expect(not any(errors), f"{workload.name}: traced pass failed its checks: {errors}")
            expect(got == expected, f"{workload.name}: traced outputs differ from untraced")
            layer = tracer.metrics(tracing.PASS_METRICS)
            counts.append({k: layer[k] for k, unit in tracing.PASS_METRICS if unit != "s"})
            expect(layer["cfg.graph_blocks"] > 0 and layer["emulator.emulate_block_calls"] > 0,
                   f"{workload.name}: no build traced")
        expect(counts[0] == counts[1], f"{workload.name}: counts differ between traced passes")


def test_fails_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bootstrap.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scaling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0, "run without sources exited 0")
    expect('"metrics"' not in proc.stdout, "run without sources printed a result")


def main() -> int:
    tests = [obj for name, obj in globals().items() if name.startswith("test_")]
    failures = 0
    try:
        for test in tests:
            try:
                test()
            except Exception:
                failures += 1
                print(f"FAIL {test.__name__}")
                traceback.print_exc()
            else:
                print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
