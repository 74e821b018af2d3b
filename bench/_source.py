"""Locates the program's source tree in the checkout and imports it from there.

The benchmark never falls back to an installed copy: a checkout without
`src/ecpt` is an error, so a run measures the code it was given.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    pass


def import_ecpt():
    package = SRC / "ecpt"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"program source not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ecpt

    if Path(ecpt.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"imported ecpt from {ecpt.__file__}, expected {package}")
    return ecpt
