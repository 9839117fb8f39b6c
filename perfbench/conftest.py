"""Make the program under test importable when the benchmark's tests run
from the root of a checkout (``python3 -m pytest perfbench``)."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
