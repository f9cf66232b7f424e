"""Shared setup for the campaign tests.

``--import-mode=importlib`` does not put this directory on ``sys.path``,
so the shared chaos helpers live in :mod:`chaosfixtures` and the path is
added here (conftest loads before any test module).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
