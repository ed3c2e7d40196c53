import sys
from pathlib import Path

# the benchmark's modules import each other as top-level names, the way
# `python3 perfbench/run.py` puts its own directory on sys.path; the Levy
# gate calls levysid's sigma estimator
HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))
