"""Span tracing of reusecfg's layers, installed from outside the program.

Each public function of a layer is replaced, at every module attribute that
holds it, by a wrapper that records one span: name, start, end and parent
span.  Functions imported by name into another module (``build_cfg`` in
``reusecfg.cli``, ``emulate_block`` in ``reusecfg.cfg``, ...) are found by
identity across all loaded ``reusecfg`` modules, so every call site is
covered.  ``Cfg`` methods are wrapped on the class.  Nothing under ``src/``
is edited and ``uninstall`` puts every original attribute back.

A layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import reusecfg.bytecode
import reusecfg.cfg
import reusecfg.cli
import reusecfg.corpus
import reusecfg.detectors
import reusecfg.emulator
import reusecfg.metrics

# (span name, owner, attribute).  The owner is the defining module, or the
# Cfg class for methods.
PASS_TARGETS = [
    ("bytecode.disassemble", reusecfg.bytecode, "disassemble"),
    ("bytecode.identify_blocks", reusecfg.bytecode, "identify_blocks"),
    ("emulator.emulate_block", reusecfg.emulator, "emulate_block"),
    ("emulator.prepare_stack", reusecfg.emulator, "prepare_stack"),
    ("emulator.trace_origin", reusecfg.emulator, "trace_origin"),
    ("cfg.build_cfg", reusecfg.cfg, "build_cfg"),
    ("cfg.update_reuse_context", reusecfg.cfg, "update_reuse_context"),
    ("cfg.backpropagate_context", reusecfg.cfg, "backpropagate_context"),
    ("cfg.transfer_taint", reusecfg.cfg, "transfer_taint"),
    ("cfg.reuse_handler", reusecfg.cfg, "reuse_handler"),
    ("cfg.handle_end_block", reusecfg.cfg, "handle_end_block"),
    ("cfg.export", reusecfg.cfg, "export"),
    ("cfg.add_diagnostic", reusecfg.cfg.Cfg, "add_diagnostic"),
    ("cfg.has_edge", reusecfg.cfg.Cfg, "has_edge"),
    ("cfg.add_edge", reusecfg.cfg.Cfg, "add_edge"),
    ("cfg.remove_out_edges", reusecfg.cfg.Cfg, "remove_out_edges"),
    ("cfg.predecessors", reusecfg.cfg.Cfg, "predecessors"),
    ("cfg.successors", reusecfg.cfg.Cfg, "successors"),
    ("cfg.clones_at", reusecfg.cfg.Cfg, "clones_at"),
    ("cfg.jump_successors", reusecfg.cfg.Cfg, "jump_successors"),
    ("metrics.count_paths", reusecfg.metrics, "count_paths"),
    ("metrics.polymorphic_jump_targets", reusecfg.metrics, "polymorphic_jump_targets"),
    ("metrics.trace_coverage", reusecfg.metrics, "trace_coverage"),
    ("detectors.detect_tx_origin", reusecfg.detectors, "detect_tx_origin"),
    ("detectors.detect_reentrancy", reusecfg.detectors, "detect_reentrancy"),
    ("cli.run", reusecfg.cli, "run"),
]

SETUP_TARGETS = [
    ("corpus.stress_fixture", reusecfg.corpus, "stress_fixture"),
    ("corpus.generate", reusecfg.corpus, "generate"),
    ("corpus.interpret", reusecfg.corpus, "interpret"),
]

# Metrics read from each tracer, in report order.  "<span>_s" is self time,
# "<span>_calls" the number of spans.
PASS_METRICS = [
    ("bytecode.disassemble_s", "s"),
    ("bytecode.identify_blocks_s", "s"),
    ("bytecode.instructions", "count"),
    ("bytecode.blocks", "count"),
    ("emulator.emulate_block_s", "s"),
    ("emulator.emulate_block_calls", "count"),
    ("emulator.reemulation_ratio", "1"),
    ("emulator.prepare_stack_s", "s"),
    ("emulator.trace_origin_s", "s"),
    ("emulator.trace_origin_calls", "count"),
    ("emulator.values", "count"),
    ("cfg.remove_out_edges_s", "s"),
    ("cfg.remove_out_edges_calls", "count"),
    ("cfg.edges_scanned", "count"),
    ("cfg.update_reuse_context_s", "s"),
    ("cfg.update_reuse_context_calls", "count"),
    ("cfg.transfer_taint_s", "s"),
    ("cfg.transfer_taint_calls", "count"),
    ("cfg.backpropagate_context_s", "s"),
    ("cfg.reuse_handler_s", "s"),
    ("cfg.reuse_handler_calls", "count"),
    ("cfg.handle_end_block_s", "s"),
    ("cfg.handle_end_block_calls", "count"),
    ("cfg.clones_at_calls", "count"),
    ("cfg.edge_index_s", "s"),
    ("cfg.add_diagnostic_s", "s"),
    ("cfg.build_cfg_self_s", "s"),
    ("cfg.graph_blocks", "count"),
    ("cfg.graph_clones", "count"),
    ("cfg.graph_edges", "count"),
    ("cfg.diagnostics", "count"),
    ("cfg.export_s", "s"),
    ("cfg.export_bytes", "count"),
    ("metrics.polymorphic_jump_targets_s", "s"),
    ("metrics.count_paths_s", "s"),
    ("metrics.trace_coverage_s", "s"),
    ("detectors.detect_tx_origin_s", "s"),
    ("detectors.detect_reentrancy_s", "s"),
    ("detectors.findings", "count"),
    ("cli.run_self_s", "s"),
]

SETUP_METRICS = [
    ("corpus.stress_fixture_s", "s"),
    ("corpus.generate_s", "s"),
    ("corpus.interpret_s", "s"),
]

# Per-layer metric name -> spans whose self times it sums, where the names
# differ.  Every wrapped span's self time is in exactly one metric.
_SELF_TIME_ALIASES = {
    "cfg.build_cfg_self_s": ("cfg.build_cfg",),
    "cli.run_self_s": ("cli.run",),
    "cfg.edge_index_s": (
        "cfg.has_edge",
        "cfg.add_edge",
        "cfg.predecessors",
        "cfg.successors",
        "cfg.jump_successors",
        "cfg.clones_at",
    ),
}


class Tracer:
    """Records spans in flat arrays while installed; counts work on the side."""

    def __init__(self, targets):
        self.targets = targets
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._emulated: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for name, owner, attr in self.targets:
            original = owner.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, before, after)
            for site in _import_sites(owner, attr, original):
                self._saved.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn, before, after):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self):
        counts = self.counts

        def on_build(*args, **kwargs):
            counts["builds"] += 1

        def built(cfg):
            counts["emulator.values"] += len(cfg.value_table)
            counts["cfg.graph_blocks"] += len(cfg.blocks)
            counts["cfg.graph_clones"] += sum(1 for b in cfg.blocks if b.clone >= 1)
            counts["cfg.graph_edges"] += len(cfg.edges)
            counts["cfg.diagnostics"] += len(cfg.diagnostics)

        def on_emulate(block, *args, **kwargs):
            self._emulated.add((counts["builds"], block.id))

        def on_remove(cfg, *args, **kwargs):
            counts["cfg.edges_scanned"] += len(cfg.edges)

        def add_len(key):
            def after(result):
                counts[key] += len(result)
            return after

        return {
            "cfg.build_cfg": (on_build, built),
            "emulator.emulate_block": (on_emulate, None),
            "cfg.remove_out_edges": (on_remove, None),
            "bytecode.disassemble": (None, add_len("bytecode.instructions")),
            "bytecode.identify_blocks": (None, add_len("bytecode.blocks")),
            "cfg.export": (None, add_len("cfg.export_bytes")),
            "detectors.detect_tx_origin": (None, add_len("detectors.findings")),
            "detectors.detect_reentrancy": (None, add_len("detectors.findings")),
        }

    # -- results -------------------------------------------------------------

    def spans(self):
        """(name, start, end, parent index or -1) for every recorded span."""
        for i in range(len(self.span_start)):
            yield (
                self.names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
                self.span_parent[i],
            )

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: 0.0 for name in self.names}
        for i, nid in enumerate(self.span_name):
            out[self.names[nid]] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(self.names[nid] for nid in self.span_name)

    def metrics(self, wanted) -> dict[str, float]:
        """The per-layer metrics named in `wanted` ((name, unit) pairs)."""
        self_s = self.self_times()
        calls = self.calls()
        out = {}
        for name, _ in wanted:
            if name in _SELF_TIME_ALIASES:
                out[name] = sum(self_s.get(span, 0.0) for span in _SELF_TIME_ALIASES[name])
            elif name.endswith("_s"):
                out[name] = self_s.get(name[:-2], 0.0)
            elif name.endswith("_calls"):
                out[name] = calls[name[: -len("_calls")]]
            elif name == "emulator.reemulation_ratio":
                emulated = len(self._emulated)
                out[name] = calls["emulator.emulate_block"] / emulated if emulated else 0.0
            else:
                out[name] = self.counts[name]
        return out


def _import_sites(owner, attr, original):
    """`owner` plus every loaded reusecfg module that holds `original` under
    the same name."""
    sites = [owner]
    for mod_name, module in list(sys.modules.items()):
        if module is owner or not (mod_name == "reusecfg" or mod_name.startswith("reusecfg.")):
            continue
        if getattr(module, attr, None) is original:
            sites.append(module)
    return sites
