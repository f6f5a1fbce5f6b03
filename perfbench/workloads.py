"""The benchmark's workloads.

Every workload is a closed loop with one caller, in one process and one
thread: a pass runs the workload's operations one after another, and the
next pass starts when the previous one is checked.  ``setup`` makes the
inputs from the workload seed; the program receives only the generated
bytes (and, for ``trace_coverage``, the oracle traces).

A workload object has:
  setup(seed, workdir) -> inputs
  run_pass(inputs, watch) -> outputs; each operation is timed through
                          ``watch.time(key, fn, *args)``, everything else
                          in the pass is outside the timed region
  check(inputs, outputs) -> ([errors of each operation], fingerprint); the
                          fingerprint is what a traced pass must reproduce
  summary(inputs, watch) -> workload-specific end-to-end metrics, each the
                          median over the passes of its operation's time
"""

from __future__ import annotations

import io
import json
import math
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout

from reusecfg import cfg as cfg_mod
from reusecfg import cli, corpus, detectors, metrics
from reusecfg.cfg import AnalysisError, Mode

import checks
import detector_shapes
import reference


def _baseline(inputs: dict, size: int, code: bytes):
    """Baseline build of `code` used as the check's reference, made once
    per run outside the timed region: (collapsed edges, path count), or
    None when the baseline build fails."""
    cache = inputs.setdefault("baseline_cache", {})
    if size not in cache:
        try:
            base = cfg_mod.build_cfg(code, Mode.REUSE_INSENSITIVE)
        except AnalysisError:
            cache[size] = None
        else:
            edges = {(e.src.offset, e.dst.offset, e.kind.value) for e in base.edges}
            cache[size] = (edges, metrics.count_paths(base).path_count)
    return cache[size]


def _export_doc(graph) -> dict:
    return json.loads(cfg_mod.export(graph, "json", emit_tac=True))


class Audit:
    """The four commands a user runs on one contract, through the CLI entry
    point in-process.  The contract is 12 kB, half the EIP-170 limit: at
    24 kB one pass takes 15-20 s, too long for a run to hold the passes a
    steady median needs; ``scaling`` covers recovery at 24 kB."""

    name = "audit_12k"
    COMMANDS = ("cmd_cfg_s", "cmd_paths_s", "cmd_poly_s", "cmd_detect_s")

    def __init__(self, size: int = 12_000) -> None:
        self.size = size

    def setup(self, seed: int, workdir) -> dict:
        code = corpus.stress_fixture(self.size, seed)
        hex_path = workdir / "contract.hex"
        hex_path.write_text(code.hex() + "\n")
        return {"seed": seed, "code": code, "hex": str(hex_path), "out": workdir / "cfg.json"}

    def _argv(self, inputs: dict) -> dict[str, list[str]]:
        hex_path = inputs["hex"]
        return {
            "cmd_cfg_s": ["cfg", hex_path, "--emit-tac", "-o", str(inputs["out"])],
            "cmd_paths_s": ["paths", hex_path, "--reuse-insensitive"],
            "cmd_poly_s": ["poly", hex_path],
            "cmd_detect_s": ["detect", hex_path],
        }

    @staticmethod
    def _cli(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(argv)
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, inputs: dict, watch):
        inputs["out"].unlink(missing_ok=True)  # the check must not read an earlier pass's file
        return {key: watch.time(key, self._cli, argv) for key, argv in self._argv(inputs).items()}

    def check(self, inputs: dict, outputs: dict):
        ref = reference.lookup(inputs["seed"], self.size)
        baseline = _baseline(inputs, self.size, inputs["code"])
        errors, fingerprint = [], {}
        for key in self.COMMANDS:
            rc, stdout, stderr = outputs[key]
            errs = checks.check_rc(rc, stderr)
            if not errs:
                if key == "cmd_cfg_s":
                    if not inputs["out"].exists():
                        errs = ["cfg wrote no output file"]
                    elif baseline is None:
                        errs = ["baseline build failed"]
                    else:
                        doc = json.loads(inputs["out"].read_text())
                        stdout = checks.graph_digest(doc)
                        errs = checks.check_sensitive_graph(doc, baseline[0], ref)
                elif key == "cmd_paths_s":
                    errs = checks.check_paths_output(stdout, ref)
                elif key == "cmd_poly_s":
                    errs = checks.check_poly_output(stdout)
                else:
                    errs = checks.check_detect_output(stdout, ref)
            errors.append(errs)
            fingerprint[key] = (rc, stdout)
        return errors, fingerprint

    def summary(self, inputs: dict, watch) -> dict:
        return {key: (watch.median(key), "s") for key in self.COMMANDS}


class Scaling:
    """Reuse-sensitive recovery at growing sizes, plus one baseline build
    at the largest size."""

    name = "scaling"

    def __init__(self, sizes=reference.STRESS_SIZES) -> None:
        self.sizes = tuple(sizes)
        self.top = self.sizes[-1]

    def setup(self, seed: int, workdir) -> dict:
        return {"seed": seed, "codes": {n: corpus.stress_fixture(n, seed) for n in self.sizes}}

    @staticmethod
    def _build(code: bytes, mode: Mode):
        try:
            return cfg_mod.build_cfg(code, mode)
        except AnalysisError as exc:
            return exc

    def run_pass(self, inputs: dict, watch):
        codes = inputs["codes"]
        outputs = {n: watch.time(n, self._build, codes[n], Mode.REUSE_SENSITIVE) for n in self.sizes}
        outputs["baseline"] = watch.time("baseline", self._build, codes[self.top], Mode.REUSE_INSENSITIVE)
        return outputs

    def check(self, inputs: dict, outputs: dict):
        seed, codes = inputs["seed"], inputs["codes"]
        errors, fingerprint = [], {}
        base = outputs["baseline"]
        if isinstance(base, AnalysisError):
            errors_base = [f"analysis error: {base}"]
        else:
            doc = _export_doc(base)
            paths = metrics.count_paths(base).path_count
            ref = reference.lookup(seed, self.top)
            errors_base = checks.check_baseline_graph(doc, ref)
            if ref is not None and paths != ref["baseline_paths"]:
                errors_base.append(f"baseline paths {paths} != reference {ref['baseline_paths']}")
            separate = _baseline(inputs, self.top, codes[self.top])
            if separate is None:
                errors_base.append("separate baseline build failed")
            elif separate != (checks.collapsed_edges(doc), paths):
                errors_base.append("baseline differs from a separate baseline build")
            fingerprint["baseline"] = (checks.graph_digest(doc), paths)
        for n in self.sizes:
            graph = outputs[n]
            if isinstance(graph, AnalysisError):
                errors.append([f"analysis error at {n}: {graph}"])
                continue
            ref = reference.lookup(seed, n)
            baseline = _baseline(inputs, n, codes[n])
            if baseline is None:
                errors.append([f"baseline build failed at {n}"])
                continue
            base_edges, base_paths = baseline
            doc = _export_doc(graph)
            paths = metrics.count_paths(graph).path_count
            errors.append(
                checks.check_sensitive_graph(doc, base_edges, ref)
                + checks.check_path_counts(paths, base_paths, ref)
            )
            fingerprint[n] = (checks.graph_digest(doc), paths)
        errors.append(errors_base)
        return errors, fingerprint

    def summary(self, inputs: dict, watch) -> dict:
        typical = [watch.median(n) for n in self.sizes]
        return {
            f"recover_{self.top // 1000}k_s": (typical[-1], "s"),
            f"baseline_{self.top // 1000}k_s": (watch.median("baseline"), "s"),
            "scaling_exponent": (_slope(self.sizes, typical), "1"),
            **{f"recover_{n // 1000}k_s": (t, "s") for n, t in zip(self.sizes[:-1], typical)},
        }


def _slope(sizes, seconds) -> float:
    """Least-squares slope of log time on log size."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(s) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class PatternCorpus:
    """Many small labelled fixtures, each fully analysed: both builds, path
    counts on both, polymorphic targets and oracle-trace coverage; and a
    few contracts with known detector findings, run through both detectors."""

    name = "pattern_corpus"
    DEPTHS = (1, 2, 3, 4)

    def __init__(self, seeds_per_shape: int = 5, detector_variants: int = 4) -> None:
        self.seeds_per_shape = seeds_per_shape
        self.detector_variants = detector_variants

    def setup(self, seed: int, workdir) -> dict:
        rng = random.Random(f"pattern_corpus:{seed}")
        fixtures = []
        for pattern in corpus.Pattern:
            for depth in self.DEPTHS:
                for _ in range(self.seeds_per_shape):
                    spec = corpus.PatternSpec(pattern, seed=rng.randrange(1 << 31), nesting_depth=depth)
                    truth = corpus.generate(spec)
                    fixtures.append({
                        "spec": spec,
                        "code": truth.bytecode,
                        "traces": truth.traces,
                        "truth": {
                            "sensitive_paths": truth.expected_sensitive_paths,
                            "insensitive_paths": truth.expected_insensitive_paths,
                            "traces": len(truth.traces),
                            "reused_offsets": truth.reused_offsets,
                        },
                    })
        return {
            "seed": seed,
            "fixtures": fixtures,
            "detector_fixtures": detector_shapes.generate(seed, self.detector_variants),
        }

    @staticmethod
    def _analyse(fixture: dict):
        code = fixture["code"]
        try:
            sensitive = cfg_mod.build_cfg(code, Mode.REUSE_SENSITIVE)
            insensitive = cfg_mod.build_cfg(code, Mode.REUSE_INSENSITIVE)
            covered, total, _ = metrics.trace_coverage(sensitive, fixture["traces"])
            return {
                "graph": sensitive,
                "sensitive_paths": metrics.count_paths(sensitive).path_count,
                "insensitive_paths": metrics.count_paths(insensitive).path_count,
                "poly": metrics.polymorphic_jump_targets(sensitive),
                "coverage": (covered, total),
            }
        except AnalysisError as exc:
            return exc

    @staticmethod
    def _detect(fixture: dict):
        try:
            graph = cfg_mod.build_cfg(fixture["code"], Mode.REUSE_SENSITIVE)
            findings = detectors.detect_tx_origin(graph, graph.value_table)
            findings += detectors.detect_reentrancy(graph, graph.value_table)
            return [f.to_dict() for f in findings]
        except AnalysisError as exc:
            return exc

    def _analyse_all(self, inputs: dict):
        return (
            [self._analyse(f) for f in inputs["fixtures"]],
            [self._detect(f) for f in inputs["detector_fixtures"]],
        )

    def run_pass(self, inputs: dict, watch):
        return watch.time("corpus", self._analyse_all, inputs)

    def check(self, inputs: dict, outputs):
        analysed, detected = outputs
        errors, fingerprint = [], []
        for fixture, outcome in zip(inputs["fixtures"], analysed):
            if isinstance(outcome, AnalysisError):
                errors.append([f"{fixture['spec']}: analysis error: {outcome}"])
                fingerprint.append(None)
                continue
            graph = outcome["graph"]
            result = {key: value for key, value in outcome.items() if key != "graph"}
            result["cloned"] = {
                b.offset for b in graph.blocks if b.clone >= 1 and b not in graph.end_block_clones
            }
            errs = checks.check_pattern(fixture["truth"], result)
            errors.append([f"{fixture['spec']}: {e}" for e in errs])
            fingerprint.append(result)
        for fixture, findings in zip(inputs["detector_fixtures"], detected):
            if isinstance(findings, AnalysisError):
                errs = [f"analysis error: {findings}"]
            else:
                errs = checks.check_findings(findings, fixture["expected"])
            errors.append([f"{fixture['name']}: {e}" for e in errs])
            fingerprint.append(None if isinstance(findings, AnalysisError) else findings)
        return errors, fingerprint

    def summary(self, inputs: dict, watch) -> dict:
        contracts = len(inputs["fixtures"]) + len(inputs["detector_fixtures"])
        return {"contracts_per_s": (contracts / watch.median("corpus"), "1/s")}


WORKLOADS = {w.name: w for w in (Audit, Scaling, PatternCorpus)}
