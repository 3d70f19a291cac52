"""The checkout's source tree, and the peak memory of a benchmark process."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import latticejets from this checkout's source tree, or exit 1."""
    if not (SRC / "latticejets" / "__init__.py").is_file():
        sys.exit(f"perfbench: no latticejets source under {SRC}")
    sys.path.insert(0, str(SRC))
    import latticejets

    if Path(latticejets.__file__).resolve().parent != SRC / "latticejets":
        sys.exit(f"perfbench: latticejets imported from {latticejets.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """High-water resident memory of this process since it started its program.

    ``ru_maxrss`` would also count the parent's memory at fork time, so the
    kernel's VmHWM is read instead.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")
