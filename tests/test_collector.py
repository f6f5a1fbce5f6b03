"""Recovery and export run with CPython's cyclic garbage collector paused.

The pause is safe only because neither makes reference cycles: a cycle
made while the collector is off stays in memory until it runs again.  These
tests check that the collector's state is restored on every exit, that a
caller's choice to keep it off is kept, and that building, exporting and
running the detectors leave nothing for the collector to find.
"""

import gc
import weakref

import pytest

from fixtures import DEEPENING_LOOP, ree_reused_check
from reusecfg import stress_fixture
from reusecfg.cfg import (
    AnalysisError,
    CloneBudgetError,
    Config,
    EmptyBytecodeError,
    Mode,
    build_cfg,
    export,
)
from reusecfg.detectors import detect_reentrancy, detect_tx_origin

MODES = (Mode.REUSE_SENSITIVE, Mode.REUSE_INSENSITIVE)
EXPORTS = (("json", True), ("json", False), ("dot", True))


def _expect_error(error, *args):
    try:
        build_cfg(*args)
    except error:
        return
    raise AssertionError(f"no {error.__name__}")


def _error_builds():
    # (error, build_cfg arguments): an empty input, a baseline stack that
    # outgrows the EVM's, and a sensitive build past its clone budget.
    return [
        (AnalysisError, (b"",)),
        (AnalysisError, (DEEPENING_LOOP, Mode.REUSE_INSENSITIVE)),
        (CloneBudgetError, (DEEPENING_LOOP, Mode.REUSE_SENSITIVE, Config(clone_budget_per_offset=16))),
    ]


@pytest.mark.parametrize("mode", MODES)
def test_empty_bytecode_is_an_analysis_error(mode):
    with pytest.raises(AnalysisError, match="empty bytecode") as excinfo:
        build_cfg(b"", mode)
    # Callers that caught the ValueError of `disassemble` still catch it.
    assert isinstance(excinfo.value, EmptyBytecodeError)
    assert isinstance(excinfo.value, ValueError)


def test_collector_state_restored():
    assert gc.isenabled()
    code = stress_fixture(3000, 0)
    for mode in MODES:
        cfg = build_cfg(code, mode)
        assert gc.isenabled()
        for fmt, tac in EXPORTS:
            export(cfg, fmt, emit_tac=tac)
            assert gc.isenabled()
    for error, args in _error_builds():
        _expect_error(error, *args)
        assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    try:
        cfg = build_cfg(stress_fixture(3000, 0))
        assert not gc.isenabled()
        export(cfg, "json", emit_tac=True)
        assert not gc.isenabled()
        _expect_error(AnalysisError, b"")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert cfg.blocks


def test_build_and_export_make_no_reference_cycles():
    gc.disable()
    try:
        gc.collect()
        # The stress fixture has no detector finding; the reentrancy fixture
        # has one, so its detector builds reachability too.
        for name, code in (("stress", stress_fixture(3000, 0)), ("ree", ree_reused_check())):
            for mode in MODES:
                cfg = build_cfg(code, mode)
                assert gc.collect() == 0, f"{name} {mode.value} build"
                for fmt, tac in EXPORTS:
                    export(cfg, fmt, emit_tac=tac)
                    assert gc.collect() == 0, f"{name} {mode.value} {fmt} export, emit_tac={tac}"
                for detect in (detect_tx_origin, detect_reentrancy):
                    detect(cfg, cfg.value_table)
                    assert gc.collect() == 0, f"{name} {mode.value} {detect.__name__}"
        for error, args in _error_builds():
            _expect_error(error, *args)
            assert gc.collect() == 0, f"{error.__name__} on {args[0][:8].hex() or 'empty input'}"
    finally:
        gc.enable()


class _Cycle:
    def __init__(self):
        self.me = self


def test_collector_keeps_collecting_across_builds():
    # Each build leaves its allocations in generation 0 on exit, so the
    # collector runs on the first allocation after it and frees the cycles
    # the caller made meanwhile.  Resetting the counts on exit (as
    # `gc.freeze(); gc.unfreeze()` would) skips that pass on every build and
    # the caller's cycles are never freed.
    assert gc.isenabled()
    code = stress_fixture(3000, 0)
    refs = []
    for _ in range(50):
        refs.append(weakref.ref(_Cycle()))
        build_cfg(code)
    assert [ref for ref in refs if ref() is not None] == []
