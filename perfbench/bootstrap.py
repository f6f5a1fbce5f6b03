"""Puts the checkout's own ``src/`` on the import path and imports reusecfg
from there, so the benchmark always measures the source next to it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class ProgramMissing(Exception):
    pass


def import_program():
    src = ROOT / "src"
    if not (src / "reusecfg" / "__init__.py").is_file():
        raise ProgramMissing(f"no reusecfg sources under {src}")
    sys.path.insert(0, str(src))
    import reusecfg

    if Path(reusecfg.__file__).resolve().parent != src / "reusecfg":
        raise ProgramMissing(f"reusecfg imported from {reusecfg.__file__}, not {src}")
    return reusecfg
