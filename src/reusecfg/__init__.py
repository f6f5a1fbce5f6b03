"""Reuse-sensitive control-flow graph recovery for EVM bytecode."""

from .bytecode import (
    BasicBlock,
    BlockId,
    Instruction,
    Terminator,
    disassemble,
    format_listing,
    identify_blocks,
    load_bytecode,
    parse_hex,
    serialize,
)
from .cfg import (
    AnalysisError,
    Cfg,
    CloneBudgetError,
    Config,
    Edge,
    EdgeKind,
    Mode,
    build_cfg,
    export,
    handle_end_block,
    reuse_handler,
    transfer_taint,
    update_reuse_context,
)
from .corpus import (
    Assembler,
    GroundTruth,
    Pattern,
    PatternSpec,
    generate,
    interpret,
    stress_fixture,
)
from .detectors import Finding, detect_reentrancy, detect_tx_origin
from .emulator import (
    EmulationResult,
    Value,
    ValueTable,
    emulate_block,
    prepare_stack,
    tac_ops,
    trace_origin,
)
from .metrics import PathReport, Trace, count_paths, polymorphic_jump_targets, trace_coverage

__version__ = "0.1.0"
