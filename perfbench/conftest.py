"""Put the program's sources on the path for the benchmark's own tests.

Run them from the root of a checkout with ``python -m pytest perfbench``.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
