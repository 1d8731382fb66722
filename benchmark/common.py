"""Helpers shared by the benchmark scripts: where the checkout is, and seed lists."""
from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmark" / "out"


def use_checkout_source() -> None:
    """Import ``resplit`` from this checkout's ``src``, or exit 2 if it is missing.

    The benchmark measures the code next to it, never an installed copy.
    """
    if not (SRC / "resplit" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no resplit sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def engine_seeds(label: str, seed: int, count: int) -> list[int]:
    """``count`` 63-bit engine seeds drawn from ``(label, seed)``; the same pair gives the same list."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.getrandbits(63) for _ in range(count)]
