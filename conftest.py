"""Pytest configuration for the repository root.

Ensures the ``src`` layout is importable even when the package has not been
installed (e.g. on a machine without network access where
``pip install -e .`` cannot fetch the ``wheel`` build dependency), and puts
the repository root itself on the path so tests and benchmarks can import
the frozen reference implementations as ``tests.oracles.<module>``.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).parent
for _path in (_ROOT, _ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
