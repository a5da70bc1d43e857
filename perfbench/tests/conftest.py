"""Put the benchmark library and the program source on ``sys.path``.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
