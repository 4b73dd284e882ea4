#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark; see ``README.md`` here and
``e2ebench/cli.py`` for the options.

Runs from a bare checkout: the package under test is imported from the
checkout's own ``src/``, never from an installed copy.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"{SRC}/repro not found: the benchmark measures the "
             f"checkout it lives in and cannot run without it")
sys.path[:0] = [str(SRC), str(HERE)]

from e2ebench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
