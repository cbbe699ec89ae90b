"""Run the benchmark's own tests against this checkout's ``src``.

From the repository root::

    python3 -m pytest lmcbench/tests
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
