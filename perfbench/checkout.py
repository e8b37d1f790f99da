"""Locate the checkout the benchmark runs in and put its sources first
on the import path, so the code measured is the code next to the
benchmark and never an installed copy."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CHECKPOINT = BENCH_DIR / "tone9.ckpt"


def use_sources():
    """Import voicehand from ROOT/src; exit with status 2 if it is absent."""
    if not (SRC / "voicehand" / "__init__.py").is_file():
        print(f"perfbench: no voicehand sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
