"""Bench-suite configuration: make the shared module and the tests'
reference models (``tests/helpers.py``) importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent / "tests"))
