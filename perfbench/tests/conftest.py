"""Make the benchmark package and the repository's ``repro`` package
importable for ``python3 -m pytest perfbench/tests``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path[:0] = [PERFBENCH, os.path.join(os.path.dirname(PERFBENCH), "src")]
